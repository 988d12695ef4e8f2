// Client model (§3.2): a single-threaded process attached to one database
// site. It issues a transaction, blocks until the reply, pauses for a
// think time, and repeats. Each terminal outcome is logged with submit and
// finish timestamps (the source of all latency/throughput/abort metrics).
//
// The client is workload-agnostic: requests and think times come from the
// txn_source its workload built for it (workload/workload.hpp).
#ifndef DBSM_WORKLOAD_CLIENT_HPP
#define DBSM_WORKLOAD_CLIENT_HPP

#include <functional>
#include <memory>

#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace dbsm::core {

class client {
 public:
  /// One completed transaction, as logged by the client (§3.2).
  struct result {
    db::txn_class cls = 0;
    db::txn_outcome outcome = db::txn_outcome::committed;
    sim_time submitted = 0;
    sim_time finished = 0;
  };

  /// Hands a request to the local replica; the callback delivers the
  /// terminal outcome.
  using submit_fn =
      std::function<void(db::txn_request,
                         std::function<void(db::txn_outcome)>)>;
  using report_fn = std::function<void(const result&)>;

  client(sim::simulator& sim, std::unique_ptr<txn_source> source,
         submit_fn submit, report_fn report, util::rng gen);

  /// Begins issuing after `initial_delay` (staggered start).
  void start(sim_duration initial_delay);

  /// Stops issuing new transactions (e.g. its site crashed).
  void stop() { stopped_ = true; }

  /// Resumes a stopped client after its site rejoined. A request that was
  /// in flight at the crash can never be answered (the replica was
  /// rebuilt), so it is abandoned — no outcome recorded — and the client
  /// issues afresh.
  void resume();

  std::uint64_t completed() const { return completed_; }

 private:
  void issue();
  void on_reply(db::txn_class cls, sim_time submitted,
                db::txn_outcome outcome);

  sim::simulator& sim_;
  std::unique_ptr<txn_source> source_;
  submit_fn submit_;
  report_fn report_;
  util::rng rng_;
  bool stopped_ = false;
  bool waiting_ = false;
  std::uint64_t completed_ = 0;
};

}  // namespace dbsm::core

#endif  // DBSM_WORKLOAD_CLIENT_HPP
