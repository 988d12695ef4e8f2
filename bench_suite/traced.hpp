// The traced run: the same experiment run_experiment performs, assembled
// here from the public parts (core::cluster, clients, faults, monitors,
// the same rng forks), with passive hooks at each layer boundary:
//   * a cluster observer (certification decisions, views, exclusions),
//   * a medium tracer (datagrams sent, delivered, dropped),
//   * a txn_source decorator (wall ns per generated request),
//   * the client report path (per-transaction spans on the sim clock).
// After the run the decision stream of one site is replayed through a
// fresh cert::sharded_certifier (wall ns per certify_update; verdicts must
// match the run), and every captured payload goes through
// encode_txn -> decode_txn (wall ns per call; must round-trip exactly).
#ifndef DBSM_BENCH_SUITE_TRACED_HPP
#define DBSM_BENCH_SUITE_TRACED_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace dbsm::suite {

struct traced_options {
  /// Chrome trace-event JSON written here when non-empty.
  std::string trace_file;
  /// Spans of one name beyond this many are counted but not kept.
  std::size_t span_cap = 200000;
};

struct traced_outcome {
  /// Per-layer metrics measurable from this one run, by metric name.
  std::map<std::string, double> layer;
  std::uint64_t responses = 0;
  std::uint64_t log_hash = 0;
  /// Wall seconds of the simulation itself (set-up, run, gather and
  /// teardown, as in one run_experiment call), the figure compared with
  /// untraced runs for the tracing overhead.
  double sim_wall_s = 0.0;
  std::uint64_t events = 0;
  /// Failed gates (monitors, replay verdicts, codec round trip); empty
  /// when the run is correct.
  std::vector<std::string> failures;
};

traced_outcome run_traced(const core::experiment_config& cfg,
                          const traced_options& opt);

/// FNV-1a over every commit log, lengths included: equal hashes mean two
/// runs committed the same sequences at the same sites.
std::uint64_t hash_logs(const std::vector<std::vector<std::uint64_t>>& logs);

}  // namespace dbsm::suite

#endif  // DBSM_BENCH_SUITE_TRACED_HPP
