// Deterministic certification (§1, §3.3), indexed and hash-sharded.
//
// Fed by the total order, every replica runs the same procedure over the
// same sequence and reaches the same commit/abort decisions — the property
// the off-line safety checker verifies. A transaction carries the position
// of the last delivery it had locally applied when it began (its
// snapshot). At its own delivery position, it conflicts with any
// transaction *committed* in between:
//   * write-write, at tuple granularity (first-committer-wins — the
//     multi-version engine's rule);
//   * granule-read vs write: point reads are served from tuple versions
//     (snapshot reads never abort), but escalated scan reads (granule ids,
//     §3.3's table-lock escalation) cannot be versioned and conflict with
//     any committed write inside the granule.
// Tuple-level reads still travel in the marshaled read set (message sizes
// match the prototype, §3.3); they are simply never a conflict source.
//
// Instead of the historical scan over up to `history_window` retained
// write sets (kept as cert/reference_certifier, the differential oracle),
// certification probes an inverted last-writer index
// (cert/cert_index.hpp): an element conflicts iff its last committed
// writer position exceeds the snapshot. One certification is
// O(|read_set| + |write_set|) hash probes regardless of the window.
//
// State: the counters (position, oldest_retained, commits, aborts), the
// delivery positions of the retained committed write sets (at most
// `history_window`; history_size() counts them) and one last-writer index
// per shard. No write set is copied: once certify_update returns, the
// index entries it installed are all that is left of the transaction.
//
// Eviction: when a commit pushes the oldest retained position out of the
// window, oldest_retained advances and nothing happens per id — an index
// entry with pos < oldest_retained is decision-safe under the pre-window
// rule (every snapshot it could affect aborts first). Stale entries are
// dropped in bulk: whenever commits() > history_window and commits() is a
// multiple of history_window, every shard serially compacts its table
// down to its live entries. The purge moment depends on commits() alone,
// so index contents are identical at every shard count and on donor and
// joiner after a restore, and the index holds at most the ids of the last
// 2 × history_window committed write sets. Each purge walks the whole
// table, so the cadence trades index memory for certification time: once
// per window, a purge costs less per commit than removing one evicted
// write set's ids per commit would.
//
// The index partitions cleanly by item id: every probe and install
// touches exactly one id, so the tuple and granule spaces are hash-split
// across cert_config::shards last_writer_index shards, and one
// certification is a serial loop over the shards on the calling thread:
// probe each shard's slices of the sets, stopping at the first conflict,
// then install each shard's write slice. Decisions and index contents are
// identical at every shard count and under any shard map, because the
// pre-window rule depends only on global positions and is applied before
// any shard is consulted, a conflict is the OR of per-shard verdicts over
// disjoint id sets, and installs touch disjoint shards. At one shard
// (the default) the sets are never copied or partitioned. The
// differential suites (tests/cert_index_test.cpp,
// tests/cert_shard_test.cpp) check this decision for decision against
// cert::reference_certifier.
//
// Modeled cost: cost_fixed (cost_batch_fixed when amortized) plus
// cost_per_element × (|read_set| + |write_set|) — deterministic and
// window-independent like the real work, and the same at every shard
// count.
//
// Snapshot format (recovery state transfer), all fields u64
// little-endian, in order: position, oldest_retained, commits, aborts; the
// count of retained positions, then those positions ascending; the count
// of index entries, then every entry as (id, pos) in ascending id order,
// stale entries included. The format does not depend on
// cert_config::shards: restore re-partitions the entries by the local
// shard count, so donor and joiner may disagree on `shards`. Restore
// checks every count against the bytes left before it allocates and
// rejects what snapshot never writes with an invariant_violation:
// commits + aborts other than position, oldest_retained outside
// [1, position + 1], a retained count other than min(commits,
// history_window), retained positions not strictly ascending or outside
// [oldest_retained, position], ids not strictly ascending, and an entry
// position outside [1, position].
#ifndef DBSM_CERT_SHARDED_CERTIFIER_HPP
#define DBSM_CERT_SHARDED_CERTIFIER_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "cert/cert_config.hpp"
#include "cert/cert_index.hpp"
#include "cert/rwset.hpp"
#include "util/byte_buffer.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

class sharded_certifier {
 public:
  explicit sharded_certifier(cert_config cfg = {});

  /// Certifies an update transaction at the next delivery position.
  /// Returns true to commit (its position then enters the retained window
  /// and its write set the per-shard last-writer indexes).
  /// `amortized_fixed` switches the modeled fixed term to
  /// cert::cost_batch_fixed — set by the batched delivery path for
  /// every certification after a batch's first. It changes charged CPU
  /// only, never the decision.
  bool certify_update(std::uint64_t begin_pos,
                      const std::vector<db::item_id>& read_set,
                      const std::vector<db::item_id>& write_set,
                      bool amortized_fixed = false);

  /// Certifies a read-only transaction against the current position
  /// without consuming one (read-only transactions terminate locally).
  bool certify_read_only(std::uint64_t begin_pos,
                         const std::vector<db::item_id>& read_set) const;

  std::uint64_t position() const { return position_; }
  std::uint64_t oldest_retained() const { return oldest_retained_; }
  sim_duration last_cost() const { return last_cost_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::size_t history_size() const { return window_.size(); }

  /// Entries summed over every shard's last-writer index.
  std::size_t index_size() const;

  /// Serializes the full certification state in the shard-count-agnostic
  /// format described above; restore() on a fresh instance of any shard
  /// count reproduces the donor's index contents and therefore its
  /// decisions bit for bit. restore() throws invariant_violation on input
  /// snapshot() never writes.
  void snapshot(util::buffer_writer& w) const;
  void restore(util::buffer_reader& r);

 private:
  /// Deterministic id -> shard map (splitmix-style mixing; never
  /// std::hash, whose layout may differ between standard libraries).
  std::size_t shard_of(db::item_id id) const;

  /// Splits `set` into per-shard slices (scratch `slices`, cleared and
  /// refilled; slice order follows set order, so sorted sets produce
  /// sorted slices). No-op at shards == 1 — slice_of() then aliases the
  /// original set.
  void partition(const std::vector<db::item_id>& set,
                 std::vector<std::vector<db::item_id>>& slices) const;
  const std::vector<db::item_id>& slice_of(
      const std::vector<db::item_id>& full, std::size_t s,
      const std::vector<std::vector<db::item_id>>& slices) const {
    return shards_.size() == 1 ? full : slices[s];
  }

  /// Partitions the sets and probes shard by shard, stopping at the first
  /// conflict. `write_set` is null on the read-only path; otherwise its
  /// slices stay in write_slices_ for the install.
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_set,
                 const std::vector<db::item_id>* write_set) const;

  cert_config cfg_;
  std::vector<last_writer_index> shards_;

  std::deque<std::uint64_t> window_;  // retained commit positions, ascending
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
  mutable sim_duration last_cost_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;

  // Per-call scratch, reused so the hot path does not heap-allocate at
  // steady state. Mutable: the read-only path is logically const.
  mutable std::vector<std::vector<db::item_id>> read_slices_;
  mutable std::vector<std::vector<db::item_id>> write_slices_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_SHARDED_CERTIFIER_HPP
