// Deterministic certification (§1, §3.3), indexed.
//
// Fed by the total order, every replica runs the same procedure over the
// same sequence and reaches the same commit/abort decisions — the property
// the off-line safety checker verifies.
//
// A transaction carries the position of the last delivery it had locally
// applied when it began (its snapshot). At its own delivery position, it
// conflicts with any transaction *committed* in between:
//   * write-write, at tuple granularity (first-committer-wins — the
//     multi-version engine's rule);
//   * granule-read vs write: point reads are served from tuple versions
//     (snapshot reads never abort), but escalated scan reads (granule ids,
//     §3.3's table-lock escalation) cannot be versioned and conflict with
//     any committed write inside the granule.
// Tuple-level reads still travel in the marshaled read set (message sizes
// match the prototype, §3.3); they are simply never a conflict source.
//
// Implementation: instead of the historical merge scan over up to
// `history_window` retained write sets (kept as cert/reference_certifier
// for differential testing), certification probes an inverted last-writer
// index (cert/cert_index.hpp): an element conflicts iff its last committed
// writer position exceeds the snapshot. One certification is
// O(|read_set| + |write_set|) hash probes regardless of the window.
// Decisions are bit-identical to the reference scan; the retained history
// ring exists only to evict stale index entries as the window slides.
#ifndef DBSM_CERT_CERTIFIER_HPP
#define DBSM_CERT_CERTIFIER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cert/index_shard.hpp"
#include "cert/rwset.hpp"
#include "util/byte_buffer.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

struct cert_config {
  /// Committed write-sets retained for conflict checks. A transaction
  /// whose snapshot predates the window aborts conservatively (identical
  /// rule — thus identical decisions — at every replica).
  std::size_t history_window = 50000;
  /// Modeled CPU cost per set element probed during certification. The
  /// indexed certifier visits each element of the transaction's own sets
  /// exactly once, so the modeled cost is a deterministic function of the
  /// transaction alone — independent of the history window, like the real
  /// work (the reference scan certifier keeps the historical
  /// window-proportional model).
  sim_duration cost_per_element = nanoseconds(60);
  /// Fixed modeled CPU cost per certification.
  sim_duration cost_fixed = microseconds(10);
  /// Evicted write sets whose stale index entries are drained per
  /// certify_update. Steady state evicts at most one set per delivery,
  /// so any positive rate bounds the backlog at one set; the default
  /// keeps headroom. 0 defers cleanup entirely — decisions are unchanged
  /// (stale entries predate every snapshot that survives the pre-window
  /// rule) but index memory then grows with every distinct item ever
  /// written. Larger rates clear an accumulated backlog in fewer
  /// deliveries.
  std::size_t evict_drain_per_delivery = 2;
  /// Hash partitions of the last-writer index (tuple and granule spaces
  /// both), used by cert::sharded_certifier. Decisions are
  /// shard-count-invariant; 1 keeps today's single-index layout and
  /// behavior byte-identical to cert::certifier.
  std::size_t shards = 1;
  /// Fork width of the sharded certifier's per-delivery fork-join (the
  /// delivery thread participates, so 1 runs inline and creates no
  /// threads — the default is byte-identical to cert::certifier).
  /// Meaningful only when shards > 1.
  unsigned certify_threads = 1;
  /// Modeled fork/join overhead charged once per certification when the
  /// sharded certifier actually forks (certify_threads > 1 on more than
  /// one shard) — the fixed price of the parallel term. The per-element
  /// term then follows the critical path: the fork worker whose shard
  /// range holds the most probed elements. Calibrated against the
  /// persistent-pool fork/join price bench_ablation_cert_shards measures
  /// at probe-light set sizes (2.1-3.6 us across the shard sweep; see
  /// bench/BENCH_cert_shards.json); tests/cert_shard_test.cpp pins the
  /// modeled-vs-real ratio. Never charged at the defaults (1 thread), so
  /// every historical figure and anchor is unaffected.
  sim_duration cost_fork_join = nanoseconds(2500);
  /// Fixed modeled cost of a certification *amortized over a delivery
  /// run*: the first certification of a run pays the full cost_fixed
  /// (cache-cold entry into the cert path), the rest pay only this.
  /// Decisions are unaffected; only charged CPU is.
  sim_duration cost_batch_fixed = microseconds(2);
  /// Optional override of the sharded certifier's id -> shard map, e.g.
  /// to align certification shards with a data placement (the shard that
  /// probes a granule is derived from the granule's primary replica, so
  /// partitioned certification touches index partitions congruent with
  /// the storage partitioning). Must be a pure deterministic function of
  /// (id, shard count), identical at every site. Decisions are invariant
  /// under ANY map — it only re-partitions the index — which is exactly
  /// what tests/cert_shard_test.cpp-style differentials rely on. Unset
  /// keeps the built-in splitmix64 layout.
  std::function<std::size_t(db::item_id id, std::size_t shards)> shard_map;
};

class certifier {
 public:
  explicit certifier(cert_config cfg = {});

  /// Certifies an update transaction at the next delivery position.
  /// Returns true to commit (its write set then enters the history and
  /// the last-writer index).
  bool certify_update(std::uint64_t begin_pos,
                      const std::vector<db::item_id>& read_set,
                      const std::vector<db::item_id>& write_set);

  /// Certifies a read-only transaction against the current position
  /// without consuming one (read-only transactions terminate locally).
  bool certify_read_only(std::uint64_t begin_pos,
                         const std::vector<db::item_id>& read_set) const;

  /// Delivery positions consumed so far (== position of the last update
  /// transaction processed). New transactions snapshot this value.
  std::uint64_t position() const { return position_; }

  /// Oldest delivery position still retained in the history window;
  /// snapshots strictly older than `oldest_retained() - 1` abort
  /// conservatively.
  std::uint64_t oldest_retained() const { return oldest_retained_; }

  /// Modeled CPU cost of the most recent certify_* call.
  sim_duration last_cost() const { return last_cost_; }

  /// Serializes the full certification state — position, retained history,
  /// undrained eviction backlog — for a membership-recovery state transfer.
  /// restore() on a fresh certifier (same cert_config) reproduces the
  /// donor's decisions bit-for-bit: the last-writer index is rebuilt by
  /// replaying the serialized write sets in position order, which yields
  /// the exact same index contents (including the decision-safe stale
  /// entries of the eviction backlog).
  void snapshot(util::buffer_writer& w) const;
  void restore(util::buffer_reader& r);

  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::size_t history_size() const { return history_.size(); }
  /// Live entries in the last-writer index (bounded by the window's
  /// distinct ids plus the not-yet-drained evicted entries).
  std::size_t index_size() const { return shard_.index_size(); }
  /// Evicted write sets queued for lazy index cleanup and not yet
  /// drained (cert_config::evict_drain_per_delivery).
  std::size_t evicted_backlog() const { return shard_.evicted_backlog(); }

 private:
  /// Index probes over ids with a committed writer in (begin_pos, +inf).
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_set,
                 const std::vector<db::item_id>* write_set) const;

  cert_config cfg_;
  /// The whole index and eviction ring as one shard (this certifier is
  /// the shards == 1 special case of the partitioned layout).
  index_shard shard_;
  std::deque<cert_entry> history_;  // ascending positions, committed only
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
  mutable sim_duration last_cost_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERTIFIER_HPP
