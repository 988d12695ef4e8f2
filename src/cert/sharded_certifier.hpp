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
// `history_window`; history_size() counts them), one last-writer index
// per shard, one low water per origin and the index size of the next
// purge. No write set is copied: once certify_update returns, the
// index entries it installed are all that is left of the transaction.
//
// The low-water bound: every payload carries its origin's low water, the
// smallest begin_pos among that site's pending transactions, itself
// included (cert/txn_codec.hpp). Local counters are consecutive and a
// transaction's snapshot is the position at its submit, so transactions
// pending at the broadcast began at or above it, later ones begin at a
// position at least as high, and the total order keeps each origin's
// broadcast order: no later payload of that origin certifies below it.
// note_low_water() records it per site of the initial view (all 0 at
// construction), before the payload is certified, at every site and for
// read-only payloads too, so the table is a function of the delivered
// order alone. The bound is the minimum over the sites. An index entry at
// or below the bound can never satisfy `pos > begin_pos` for a live or
// future snapshot, exactly like an entry below oldest_retained. A
// certification below the bound that the pre-window rule does not abort
// throws invariant_violation: the promise was broken. A site that never
// broadcasts (a dedicated sequencer), or a crashed one, holds the bound
// at its last low water; the window purge then bounds the index as
// before. A certifier built without origins keeps the bound at 0.
//
// Eviction: when a commit pushes the oldest retained position out of the
// window, oldest_retained advances and nothing happens per id — an index
// entry with pos < oldest_retained is decision-safe under the pre-window
// rule (every snapshot it could affect aborts first). Stale entries are
// dropped in bulk: every shard serially compacts its table down to the
// entries above both oldest_retained − 1 and the low-water bound. A purge
// runs after a commit when either
//   * commits() > history_window and commits() is a multiple of
//     history_window (the window purge), or
//   * the bound is at or above oldest_retained, so it and not the window
//     decides what is stale, and the index holds max(1024, 2 × its size
//     after the previous purge) entries (the size trigger).
// Both read only commits(), the positions, the summed index size and the
// delivered low waters, so index contents are identical at every shard
// count and on donor and joiner after a restore. The window purge bounds
// the index to the ids of the last 2 × history_window committed write
// sets; with every origin broadcasting, the size trigger bounds it to
// about twice the ids written above the bound. Each purge walks the whole
// table; the doubling keeps that amortized O(1) per installed id. Without
// a bound past the window the size trigger never fires, so a certifier
// without origins purges exactly when the window alone did.
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
// stale entries included; the count of origins, then each origin's low
// water; the index size that triggers the next purge. The format does not
// depend on cert_config::shards: restore re-partitions the entries by the local
// shard count, so donor and joiner may disagree on `shards`. Restore
// checks every count against the bytes left before it allocates and
// rejects what snapshot never writes with an invariant_violation:
// commits + aborts other than position, oldest_retained outside
// [1, position + 1], a retained count other than min(commits,
// history_window), retained positions not strictly ascending or outside
// [oldest_retained, position], ids not strictly ascending, an entry
// position outside [1, position], an origin count other than the
// joiner's, and a purge trigger below 1024.
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
  /// The index size of the first purge; later ones run at twice the size
  /// the previous purge left, but never below this.
  static constexpr std::uint64_t min_purge_at = 1024;

  /// `origins` sizes the low-water table: one entry per site of the
  /// initial view, ids 0 .. origins − 1. With none, the bound stays 0.
  explicit sharded_certifier(cert_config cfg = {}, std::size_t origins = 0);

  /// Raises `origin`'s low water (see the low-water bound above). Throws
  /// invariant_violation on an origin outside the table or a low water
  /// below the origin's last one.
  void note_low_water(node_id origin, std::uint64_t low_water);

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
  /// The minimum of the origins' low waters (0 without origins).
  std::uint64_t low_water_bound() const { return bound_; }
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

  /// Throws unless `begin_pos` is at or above the low-water bound or
  /// aborts under the pre-window rule.
  void check_snapshot(std::uint64_t begin_pos) const;

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
  std::vector<std::uint64_t> low_water_;  // per origin of the initial view
  std::uint64_t bound_ = 0;               // min of low_water_
  std::uint64_t purge_at_ = min_purge_at;  // index size of the next purge

  // Per-call scratch, reused so the hot path does not heap-allocate at
  // steady state. Mutable: the read-only path is logically const.
  mutable std::vector<std::vector<db::item_id>> read_slices_;
  mutable std::vector<std::vector<db::item_id>> write_slices_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_SHARDED_CERTIFIER_HPP
