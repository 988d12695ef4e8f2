// The five bench_suite workloads. Every one is a closed loop (the paper's
// terminal model: a client waits for its reply, thinks, then issues
// again) on one simulated 3-site cluster in one single-threaded process.
// The seed is the only input that varies; the program sees only the
// requests the workload generates from it.
#ifndef DBSM_BENCH_SUITE_WORKLOADS_HPP
#define DBSM_BENCH_SUITE_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace dbsm::suite {

struct workload_def {
  std::string name;
  /// False when the run charges measured thread-CPU time, so reruns of
  /// one seed differ and the exact-repeat gates do not apply.
  bool deterministic = true;
};

const std::vector<workload_def>& workloads();

/// The run configuration of `w` at `seed`. `smoke` shrinks every run to a
/// fraction of a second of wall time for a CI gate.
core::experiment_config make_config(const workload_def& w, std::uint64_t seed,
                                    bool smoke);

}  // namespace dbsm::suite

#endif  // DBSM_BENCH_SUITE_WORKLOADS_HPP
