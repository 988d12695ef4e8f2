// Tunables of the certification layer (§3.3): the history window and the
// sharding of the last-writer index, plus the modeled CPU costs the
// simulator charges. Shared by cert::sharded_certifier (the replicas'
// certifier) and cert::reference_certifier (the scan oracle).
#ifndef DBSM_CERT_CERT_CONFIG_HPP
#define DBSM_CERT_CERT_CONFIG_HPP

#include <cstddef>
#include <functional>

#include "db/item.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

/// Modeled CPU cost per set element probed during certification. The
/// indexed certifier visits each element of the transaction's own sets
/// exactly once, so the modeled cost is a deterministic function of the
/// transaction alone — independent of the history window, like the real
/// work (the reference scan certifier keeps the historical
/// window-proportional model).
inline constexpr sim_duration cost_per_element = nanoseconds(60);
/// Fixed modeled CPU cost per certification.
inline constexpr sim_duration cost_fixed = microseconds(10);
/// Fixed modeled cost of a certification *amortized over a delivery
/// run*: the first certification of a run pays the full cost_fixed
/// (cache-cold entry into the cert path), the rest pay only this.
/// Decisions are unaffected; only charged CPU is.
inline constexpr sim_duration cost_batch_fixed = microseconds(2);

struct cert_config {
  /// Committed write sets retained for conflict checks. A transaction
  /// whose snapshot predates the window aborts conservatively (identical
  /// rule — thus identical decisions — at every replica). The sharded
  /// certifier keeps only their positions and the last-writer index,
  /// which holds the ids of at most 2 × this many commits, and far fewer
  /// once every origin's low water has risen (sharded_certifier.hpp).
  std::size_t history_window = 50000;
  /// Hash partitions of the last-writer index (tuple and granule spaces
  /// both), certified one after another on the calling thread.
  /// Decisions and modeled costs are shard-count-invariant; 1 keeps a
  /// single index.
  std::size_t shards = 1;
  /// Optional override of the sharded certifier's id -> shard map. Must
  /// be a pure deterministic function of (id, shard count), identical at
  /// every site. Decisions are invariant under ANY map — it only
  /// re-partitions the index — which is exactly what
  /// tests/cert_shard_test.cpp-style differentials rely on. Unset keeps
  /// the built-in splitmix64 layout; nothing in the library sets it
  /// (bench_suite/traced.cpp aligns it with a partial placement when a
  /// run certifies with more than one shard).
  std::function<std::size_t(db::item_id id, std::size_t shards)> shard_map;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERT_CONFIG_HPP
