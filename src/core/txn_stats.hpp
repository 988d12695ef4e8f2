// Per-class transaction metrics computed from client logs (§3.2: "the
// latency, throughput and abort rate of the server can then be computed
// for one or multiple users, and for all or just a subclass of the
// transactions").
#ifndef DBSM_CORE_TXN_STATS_HPP
#define DBSM_CORE_TXN_STATS_HPP

#include <vector>

#include "db/transaction.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dbsm::core {

struct class_stats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_lock = 0;
  std::uint64_t aborted_preempt = 0;
  std::uint64_t aborted_cert = 0;
  // Each response latency is stored once, by outcome.
  util::sample_set commit_latency_ms;
  util::sample_set abort_latency_ms;

  std::uint64_t aborted() const {
    return aborted_lock + aborted_preempt + aborted_cert;
  }
  std::uint64_t total() const { return committed + aborted(); }
  double abort_rate_pct() const {
    return total() == 0 ? 0.0
                        : 100.0 * static_cast<double>(aborted()) /
                              static_cast<double>(total());
  }
  /// Sum of all response latencies, in milliseconds.
  double latency_sum_ms() const {
    return commit_latency_ms.sum() + abort_latency_ms.sum();
  }
  /// Mean latency over all responses, in milliseconds.
  double mean_latency_ms() const {
    return total() == 0 ? 0.0
                        : latency_sum_ms() / static_cast<double>(total());
  }
};

class txn_stats {
 public:
  /// Default: zero classes; the harness re-sizes from the workload's
  /// class count before recording (record() on a zero-class instance
  /// throws).
  txn_stats() = default;
  explicit txn_stats(std::size_t classes) : per_class_(classes) {}

  void record(db::txn_class cls, db::txn_outcome outcome,
              sim_time submitted, sim_time finished) {
    class_stats& s = per_class_.at(cls);
    const double ms = to_millis(finished - submitted);
    switch (outcome) {
      case db::txn_outcome::committed:
        ++s.committed;
        s.commit_latency_ms.add(ms);
        return;
      case db::txn_outcome::aborted_lock: ++s.aborted_lock; break;
      case db::txn_outcome::aborted_preempt: ++s.aborted_preempt; break;
      case db::txn_outcome::aborted_cert: ++s.aborted_cert; break;
    }
    s.abort_latency_ms.add(ms);
  }

  const class_stats& of(db::txn_class cls) const {
    return per_class_.at(cls);
  }
  std::size_t classes() const { return per_class_.size(); }

  std::uint64_t total_committed() const {
    std::uint64_t n = 0;
    for (const auto& s : per_class_) n += s.committed;
    return n;
  }
  std::uint64_t total_responses() const {
    std::uint64_t n = 0;
    for (const auto& s : per_class_) n += s.total();
    return n;
  }
  double abort_rate_pct() const {
    const std::uint64_t t = total_responses();
    return t == 0 ? 0.0
                  : 100.0 * static_cast<double>(t - total_committed()) /
                        static_cast<double>(t);
  }

  /// Mean latency over all responses, in milliseconds (Fig 5b).
  double mean_latency_ms() const {
    const std::uint64_t n = total_responses();
    if (n == 0) return 0.0;
    double sum = 0;
    for (const auto& s : per_class_) sum += s.latency_sum_ms();
    return sum / static_cast<double>(n);
  }

  /// Pooled latency samples of all classes (for ECDFs, Fig 7a).
  util::sample_set pooled_latency_ms() const {
    util::sample_set out;
    for (const auto& s : per_class_) {
      for (double v : s.commit_latency_ms.sorted()) out.add(v);
      for (double v : s.abort_latency_ms.sorted()) out.add(v);
    }
    return out;
  }

  /// Committed transactions per minute over the observed span (Fig 5a).
  double tpm(sim_duration span) const {
    if (span <= 0) return 0.0;
    return static_cast<double>(total_committed()) /
           to_seconds(span) * 60.0;
  }

 private:
  std::vector<class_stats> per_class_;
};

}  // namespace dbsm::core

#endif  // DBSM_CORE_TXN_STATS_HPP
