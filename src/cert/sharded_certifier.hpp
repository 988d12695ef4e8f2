// Deterministic certification (§1, §3.3), indexed, sharded and optionally
// parallel.
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
// Instead of the historical merge scan over up to `history_window`
// retained write sets (kept as cert/reference_certifier, the differential
// oracle), certification probes an inverted last-writer index
// (cert/cert_index.hpp): an element conflicts iff its last committed
// writer position exceeds the snapshot. One certification is
// O(|read_set| + |write_set|) hash probes regardless of the window; the
// retained history ring exists only to evict stale index entries as the
// window slides.
//
// The index partitions cleanly by item id: every probe and install
// touches exactly one id, so hash-splitting the tuple and granule spaces
// across N cert::index_shards makes one delivery's certification a
// fork-join — each fork worker probes/installs a contiguous shard range,
// writes its verdict into its own slot, and the verdicts are merged in
// shard order. Decisions (and therefore abort attribution downstream) are
// identical at every (shards, certify_threads) combination, because
//   * the conservative pre-window rule depends only on global delivery
//     positions and is applied before any shard is consulted;
//   * a conflict is the OR of per-shard verdicts over disjoint id sets —
//     commutative, and merged in a fixed order anyway;
//   * installs and eviction drains touch disjoint shards, so the parallel
//     pass reaches the same index contents as a serial one.
// The differential suites (tests/cert_index_test.cpp,
// tests/cert_shard_test.cpp) check this decision-for-decision against
// cert::reference_certifier at every grid point.
//
// With the default cert_config (shards = 1, certify_threads = 1) no pool
// is created and sets are never copied or partitioned.
//
// Modeled cost: certification CPU is charged along the fork-join critical
// path — cost_fixed, plus cost_per_element times the element count of the
// worker with the most probes, plus cost_fork_join once per certification
// when the fork is real (more than one worker). At one worker this is the
// set-linear model — deterministic and window-independent, like the real
// work — so figure benches can model multi-threaded delivery by just
// setting cert_config::{shards, certify_threads}.
//
// Snapshot/restore use the canonical shard-count-agnostic entry blocks of
// cert/index_shard.hpp: the donor merges its per-shard eviction rings
// back into full position-ordered entries; restore re-partitions by the
// local shard count. Donor and joiner may therefore disagree on
// cert_config::shards (recovery state transfer stays valid across
// heterogeneous tunings).
#ifndef DBSM_CERT_SHARDED_CERTIFIER_HPP
#define DBSM_CERT_SHARDED_CERTIFIER_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cert/cert_config.hpp"
#include "cert/index_shard.hpp"
#include "cert/rwset.hpp"
#include "util/byte_buffer.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

class sharded_certifier {
 public:
  explicit sharded_certifier(cert_config cfg = {});

  /// Certifies an update transaction at the next delivery position.
  /// Returns true to commit (its write set then enters the history and
  /// the per-shard last-writer indexes). `amortized_fixed` switches the
  /// modeled fixed term to cert_config::cost_batch_fixed — set by the
  /// batched delivery path for every certification after a batch's first.
  /// It changes charged CPU only, never the decision.
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
  std::size_t history_size() const { return history_.size(); }

  /// Live entries summed over every shard's last-writer index.
  std::size_t index_size() const;
  /// Queued eviction slices summed over every shard's ring. Note the
  /// unit: with shards > 1 one evicted write set contributes one slice
  /// per shard that owns ids of it, so the count is in write sets only at
  /// shards == 1.
  std::size_t evicted_backlog() const;

  /// Serializes the full certification state in the canonical
  /// shard-count-agnostic format (see cert/index_shard.hpp); restore()
  /// on a fresh instance of any shard count reproduces the donor's
  /// decisions bit-for-bit: the last-writer index is rebuilt by replaying
  /// the serialized write sets in position order, which yields the exact
  /// same index contents (including the decision-safe stale entries of
  /// the eviction backlog).
  void snapshot(util::buffer_writer& w) const;
  void restore(util::buffer_reader& r);

  std::size_t shards() const { return shards_.size(); }
  /// Real fork width: min(certify_threads, shards), at least 1.
  unsigned workers() const { return workers_; }

 private:
  /// First shard of fork chunk `c` when the shard range is split evenly
  /// across `workers_` chunks (chunk c covers [begin(c), begin(c+1))).
  std::size_t chunk_begin(unsigned c) const {
    return static_cast<std::size_t>(c) * shards_.size() / workers_;
  }

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

  /// Runs `per_shard` for every shard across the fork chunks. Inline when
  /// the fork width is 1 — a template so the default path never builds a
  /// std::function (no heap allocation per delivery); the type-erased
  /// wrapper exists only at the pool boundary of a real fork.
  template <typename Fn>
  void fork_join(const Fn& per_shard) const {
    if (workers_ <= 1 || pool_ == nullptr) {
      for (std::size_t s = 0; s < shards_.size(); ++s) per_shard(s);
      return;
    }
    pool_->run(workers_, [&](unsigned c) {
      const std::size_t end = chunk_begin(c + 1);
      for (std::size_t s = chunk_begin(c); s < end; ++s) per_shard(s);
    });
  }

  /// OR of the per-shard verdict slots, merged in shard order.
  bool merge_verdicts() const;

  /// Modeled cost of the last certification from the per-shard element
  /// counts in shard_elems_ (fork-join critical path; see header).
  /// `amortized_fixed` substitutes cost_batch_fixed for cost_fixed.
  sim_duration modeled_cost(bool amortized_fixed) const;

  /// Queues an entry that slid out of the window onto the owning shards'
  /// eviction rings — one partition pass. `install` additionally replays
  /// the slices into the shard indexes (restore(); on the delivery path
  /// the install already happened at commit time).
  void queue_evicted(cert_entry e, bool install = false);

  /// Per-shard eviction rings merged back into canonical full-set
  /// position-ordered entries (slices of equal position re-joined).
  std::vector<cert_entry> merged_evicted() const;

  cert_config cfg_;
  std::vector<index_shard> shards_;
  unsigned workers_ = 1;
  /// Null unless the fork is real (certify_threads > 1 and shards > 1).
  std::unique_ptr<util::thread_pool> pool_;

  std::deque<cert_entry> history_;  // full sets, ascending positions
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
  mutable sim_duration last_cost_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;

  // Per-call scratch, reused so the hot path does not heap-allocate at
  // steady state. Mutable: the read-only path is logically const.
  mutable std::vector<std::vector<db::item_id>> read_slices_;
  mutable std::vector<std::vector<db::item_id>> write_slices_;
  mutable std::vector<std::vector<db::item_id>> evict_slices_;
  mutable std::vector<std::size_t> shard_elems_;
  mutable std::vector<std::uint8_t> verdicts_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_SHARDED_CERTIFIER_HPP
