// Reference scan certifier (§3.3) — the original O(window × |sets|)
// implementation, retained verbatim in behavior as the oracle for
// differential testing of the indexed certifier
// (cert/sharded_certifier.hpp).
//
// At each delivery it walks every retained committed write set newer than
// the transaction's snapshot and probes each stored id of the set against
// the transaction's own ids:
//   * write-write at tuple granularity (first-committer-wins);
//   * escalated granule reads against any committed write advertising the
//     granule (point reads are snapshot-served and never conflict).
// A retained write set keeps its tuples and its granules apart, so each
// probe walks only the ids that can match. The probe is a filtered one:
// before the walk, each written tuple and escalated read sets one bit of
// a fixed-size bitset, and only a stored id whose bit is set is looked up
// by binary search in the transaction's sorted run. The bitset lives only
// for the call; no per-id state survives it, so the oracle stays
// independent of the indexed certifier's last-writer table.
// Its decisions define the protocol; the indexed certifier must match them
// bit for bit (tests/cert_index_test.cpp). Its modeled cost keeps the
// historical scan cost model — cost grows with the concurrent window and
// each concurrent set is charged as a merge over both whole sets — so the
// two certifiers' real and modeled costs can be compared directly.
//
// It is also the online 1SR oracle (check::cert_oracle_monitor), which
// undoes orphan branches with rollback(), marks with settle() the prefix
// no rollback can reach, so that compaction can free below it, and tells
// forget_through() the settled low-water bound below which no later
// snapshot lies: the write sets at or below it leave as if the window
// had evicted them, and no decision changes.
#ifndef DBSM_CERT_REFERENCE_CERTIFIER_HPP
#define DBSM_CERT_REFERENCE_CERTIFIER_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cert/cert_config.hpp"
#include "cert/rwset.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

class reference_certifier {
 public:
  explicit reference_certifier(cert_config cfg = {});

  /// Certifies an update transaction at the next delivery position.
  /// Returns true to commit (its write set then enters the history).
  /// Throws invariant_violation on a snapshot below forgotten().
  bool certify_update(std::uint64_t begin_pos,
                      const std::vector<db::item_id>& read_set,
                      const std::vector<db::item_id>& write_set);

  /// Certifies a read-only transaction against the current position
  /// without consuming one (read-only transactions terminate locally).
  /// Throws invariant_violation on a snapshot below forgotten().
  bool certify_read_only(std::uint64_t begin_pos,
                         const std::vector<db::item_id>& read_set) const;

  /// Forgets every position >= p as if only positions < p had been
  /// certified: the counters step back and the write sets the forgotten
  /// commits evicted are live again. Needs settled() < p <= position() + 1,
  /// and every write set above forgotten() the window before p needs must
  /// still be stored: a certifier never settled may have freed them.
  void rollback(std::uint64_t p);

  /// Promises that no later certification has a snapshot below b
  /// (b <= settled()): every live write set at or below b is evicted as
  /// if the window had slid past it, and compaction may free it. A
  /// snapshot at or above b sees the decisions and last_cost() of a
  /// certifier never told, and max(oldest_retained(), b + 1) is the same.
  void forget_through(std::uint64_t b);

  /// Marks positions <= p (p <= position()) as settled: no rollback may
  /// reach them. The first call opts in to rollback-safe compaction: the
  /// history_window + 1 write sets before the first unsettled commit stay
  /// stored, but for those at or below forgotten(), which no rollback
  /// needs. A certifier never settled keeps no evicted write set for
  /// a rollback: it compacts whenever the evicted prefix is as long as
  /// the live window.
  void settle(std::uint64_t p);

  std::uint64_t position() const { return position_; }
  std::uint64_t settled() const { return settled_.value_or(0); }
  /// The highest bound given to forget_through() (0: none).
  std::uint64_t forgotten() const { return forgotten_; }
  std::uint64_t oldest_retained() const { return oldest_retained_; }
  sim_duration last_cost() const { return last_cost_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::size_t history_size() const { return history_.size() - head_; }
  /// Write sets stored: the live window plus the evicted ones not yet
  /// compacted away.
  std::size_t stored_size() const { return history_.size(); }

 private:
  /// One committed write set: ids_[begin, begin + tuples) are its tuples
  /// and the next `granules` ids its granules, each run ascending.
  struct entry {
    std::uint64_t pos;
    std::size_t begin;
    std::uint32_t tuples;
    std::uint32_t granules;
  };

  /// Conflict scan over history entries with pos in (begin_pos, +inf).
  /// `write_set` is null for a read-only certification.
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_set,
                 const std::vector<db::item_id>* write_set,
                 sim_duration& cost) const;
  /// True if a stored id is in `query` (ascending, its ids in the filter).
  bool probe(std::span<const db::item_id> stored,
             std::span<const db::item_id> query) const;
  /// Index of the first stored entry at a position > p.
  std::size_t first_after(std::uint64_t p) const;
  /// Drops the oldest retained write set; once the erasable prefix is as
  /// long as the rest, both vectors are compacted (amortized O(1)).
  void evict_oldest();

  cert_config cfg_;
  /// history_[head_, end): the live window; history_[0, head_): evicted
  /// write sets not yet compacted away. Ascending positions: the newest
  /// history_.size() of the commits_ commits.
  std::vector<entry> history_;
  std::size_t head_ = 0;
  std::vector<db::item_id> ids_;  // every retained entry's ids
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
  std::optional<std::uint64_t> settled_;  // unset: never settled
  std::uint64_t forgotten_ = 0;
  std::uint64_t newest_erased_ = 0;  // position of the last freed write set
  mutable sim_duration last_cost_ = 0;
  /// Per-call scratch for the escalated reads and the written tuples,
  /// reused across calls so the hot path does not heap-allocate.
  mutable std::vector<db::item_id> read_granules_scratch_;
  mutable std::vector<db::item_id> write_tuples_scratch_;
  /// Per-call query filter: bit util::open_table_home(id, filter_log2) of
  /// each id in the two scratch runs, set for one scan and cleared after.
  static constexpr unsigned filter_log2 = 12;  // 4,096 bits, 512 B
  mutable std::array<std::uint64_t, (std::size_t{1} << filter_log2) / 64>
      filter_{};
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_REFERENCE_CERTIFIER_HPP
