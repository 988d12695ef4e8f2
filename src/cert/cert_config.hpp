// Tunables of the certification layer (§3.3): the history window, the
// modeled CPU costs the simulator charges, and the sharding of the
// last-writer index. Shared by cert::sharded_certifier (the replicas'
// certifier) and cert::reference_certifier (the scan oracle).
#ifndef DBSM_CERT_CERT_CONFIG_HPP
#define DBSM_CERT_CERT_CONFIG_HPP

#include <cstddef>
#include <functional>

#include "db/item.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

struct cert_config {
  /// Committed write sets retained for conflict checks. A transaction
  /// whose snapshot predates the window aborts conservatively (identical
  /// rule — thus identical decisions — at every replica). The sharded
  /// certifier keeps only their positions and the last-writer index,
  /// which holds the ids of at most 2 × this many commits.
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
  /// Hash partitions of the last-writer index (tuple and granule spaces
  /// both). Decisions are shard-count-invariant; 1 keeps a single index.
  std::size_t shards = 1;
  /// Fork width of the per-delivery fork-join (the delivery thread
  /// participates, so 1 runs inline and creates no threads). Meaningful
  /// only when shards > 1.
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

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERT_CONFIG_HPP
