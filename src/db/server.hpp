// Database server model (§3.1): a scheduler over a CPU pool, a storage
// element and the lock table. It executes the local-transaction path
// (atomic lock acquisition → fetch/process/write script → committing
// stage) and the remote path (certified apply with preemption).
//
// The server does NOT decide transaction termination: when a local
// transaction reaches its commit operation the server reports it
// "executed" and the replication layer (core::replica) runs the
// distributed termination protocol, then calls finish_commit /
// finish_abort.
#ifndef DBSM_DB_SERVER_HPP
#define DBSM_DB_SERVER_HPP

#include <functional>
#include <unordered_map>

#include "csrt/cpu.hpp"
#include "db/lock_table.hpp"
#include "db/storage.hpp"
#include "db/transaction.hpp"
#include "sim/simulator.hpp"

namespace dbsm::db {

struct server_config {
  storage_config storage;
  /// Processor time consumed by commit processing — "almost the same for
  /// all transactions (less than 2ms)" (§4.1).
  sim_duration commit_cpu = milliseconds(2);
  /// Processor time to apply a remotely-certified transaction's writes
  /// (no query processing, just installing tuple values).
  sim_duration remote_apply_cpu = milliseconds(1);
};

class server {
 public:
  /// Reports a local transaction that finished executing and entered the
  /// committing stage (locks held, ready for certification).
  using executed_fn = std::function<void(const txn_request&)>;
  /// Reports the terminal outcome of a local transaction to its submitter.
  using done_fn = std::function<void(std::uint64_t id, txn_outcome)>;

  server(sim::simulator& sim, csrt::cpu_pool& cpu, server_config cfg,
         util::rng gen);

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Starts a local transaction. `executed` fires when it reaches its
  /// commit operation; `done` fires exactly once with the terminal outcome
  /// (commit, or any abort cause, possibly before `executed`).
  void submit(txn_request req, executed_fn executed, done_fn done);

  /// Termination decision for a local update transaction in committing
  /// stage: commit — write back and release locks; `applied` fires after
  /// the disk write completes.
  void finish_commit(std::uint64_t id, std::function<void()> applied = {});

  /// finish_commit with an explicit disk-write size, for partial
  /// replication: the origin makes durable only the write-set slice its
  /// placement assigns to it (0 bytes still writes the one-sector commit
  /// record). Update transactions only.
  void finish_commit_bytes(std::uint64_t id, std::size_t disk_bytes,
                           std::function<void()> applied = {});

  /// Termination decision: certification abort.
  void finish_abort(std::uint64_t id);

  /// Applies a remotely-initiated certified transaction: acquires locks
  /// (preempting local holders), performs commit processing and disk
  /// writes, releases. `applied` fires when the writes are durable.
  void apply_remote(const txn_request& req, std::function<void()> applied);

  /// True if the local transaction is still known (not yet terminated).
  bool active(std::uint64_t id) const { return txns_.count(id) != 0; }

  storage& disk() { return storage_; }
  const storage& disk() const { return storage_; }

  std::uint64_t remote_applied() const { return remote_applied_; }

  /// Bytes the commit writes to disk (one sector-aligned write per tuple,
  /// unless the workload packed an explicit sector count). Exposed so the
  /// replication layer can account and pro-rate partial-placement writes.
  static std::size_t disk_write_bytes(const txn_request& req);

 private:
  enum class stage : std::uint8_t {
    acquiring,   // waiting for locks
    executing,   // running the operation script
    committing,  // executed; termination protocol in progress
    applying,    // certification passed; commit CPU + disk writes
  };

  struct active_txn {
    txn_request req;
    executed_fn executed;
    done_fn done;
    stage st = stage::acquiring;
    std::size_t next_op = 0;
    csrt::job_id cpu_job = 0;
    std::uint64_t epoch = 0;  // invalidates in-flight async callbacks
    bool has_locks = false;
  };

  void start_execution(std::uint64_t id);
  void run_ops(std::uint64_t id);
  void on_lock_abort(std::uint64_t id, lock_abort_cause cause);
  void finish(std::uint64_t id, txn_outcome outcome);

  sim::simulator& sim_;
  csrt::cpu_pool& cpu_;
  server_config cfg_;
  storage storage_;
  lock_table locks_;
  std::unordered_map<std::uint64_t, active_txn> txns_;
  /// Reused per-call buffer for lock_items_into on the submit/apply hot
  /// paths (lock_table::acquire copies, so reuse across calls is safe).
  std::vector<item_id> lock_scratch_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t remote_applied_ = 0;
};

}  // namespace dbsm::db

#endif  // DBSM_DB_SERVER_HPP
