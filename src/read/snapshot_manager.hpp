// Versioned view of the committed prefix for the local read fast path.
//
// Every totally ordered delivery produces (after certification) a new
// committed-prefix version at this site; the snapshot manager records one
// entry per delivery — (global sequence, certifier position, committed
// log length, last committed txn id) — and answers "what did the
// committed prefix look like at agreed epoch E?" with a floor lookup.
//
// The replica serves fast-path read-only transactions AT the gcs
// uniform-delivered watermark: the newest snapshot whose epoch every
// current member is guaranteed to hold. That prefix can never be rolled
// back within a view (and view installs reset the watermark to the
// agreed cut), so a read served at it is serializable at that snapshot
// point — 1SR requires consistency, not freshness. Entries older than
// the queried watermark are pruned; the floor entry is retained so later
// queries with the same watermark still resolve.
#ifndef DBSM_READ_SNAPSHOT_MANAGER_HPP
#define DBSM_READ_SNAPSHOT_MANAGER_HPP

#include <cstdint>
#include <deque>

namespace dbsm::read {

struct snapshot {
  std::uint64_t epoch = 0;           // global seq of the last delivery in it
  std::uint64_t position = 0;        // certifier position
  std::uint64_t log_len = 0;         // committed log length
  std::uint64_t last_commit_id = 0;  // txn id at log_len-1 (0: empty log)
};

class snapshot_manager {
 public:
  /// Records the committed-prefix version right after the delivery at
  /// `global_seq` was certified (and, on commit, applied).
  void note_delivery(std::uint64_t global_seq, std::uint64_t position,
                     std::uint64_t log_len, std::uint64_t last_commit_id) {
    ring_.push_back({global_seq, position, log_len, last_commit_id});
  }

  /// Newest snapshot with epoch <= watermark (floor lookup); prunes what
  /// it steps over. Before any delivery this is the empty-log snapshot.
  snapshot at(std::uint64_t watermark) {
    while (!ring_.empty() && ring_.front().epoch <= watermark) {
      floor_ = ring_.front();
      ring_.pop_front();
    }
    return floor_;
  }

  /// Rebase after a state-transfer install or log rollback: the recorded
  /// history no longer describes the local log.
  void reset(const snapshot& base) {
    ring_.clear();
    floor_ = base;
  }

  std::size_t entries() const { return ring_.size(); }

 private:
  std::deque<snapshot> ring_;
  snapshot floor_{};
};

}  // namespace dbsm::read

#endif  // DBSM_READ_SNAPSHOT_MANAGER_HPP
