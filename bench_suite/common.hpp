// Metrics emitter of bench_suite: every number the suite reports goes
// through one `emitter`, which prints it as a `workload metric value unit`
// line, folds it into a JSON document with a run `meta` block (host cores,
// build type, compiler, seed, reps, per-workload wall time), and renders
// the one-line result object that ends the output.
#ifndef DBSM_BENCH_SUITE_COMMON_HPP
#define DBSM_BENCH_SUITE_COMMON_HPP

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace dbsm::suite {

struct metric {
  std::string workload;
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile (0 when the metric is not one).
  std::uint64_t samples = 0;
};

struct run_meta {
  std::uint64_t seed = 0;
  unsigned reps = 0;
  double seconds = 0.0;
  bool traced = false;
  /// Wall seconds spent on each workload, summed over its child runs.
  std::map<std::string, double> workload_wall_s;
};

class emitter {
 public:
  void add(const std::string& workload, const std::string& name, double value,
           const std::string& unit, std::uint64_t samples = 0);

  const std::vector<metric>& metrics() const { return metrics_; }

  /// One `workload metric value unit [n=samples]` line per metric.
  void print_lines(std::FILE* out) const;

  /// The full document: {"meta": {...}, "metrics": [...]}.
  std::string json(const run_meta& meta) const;

  /// The last output line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}. With one workload the metric
  /// keys are bare names; with several they are `workload.name`.
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  std::vector<metric> metrics_;
};

/// Median with the midpoint rule for even counts; 0 for an empty set.
double median(std::vector<double> v);

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);

/// Full-precision decimal rendering used in every output format.
std::string num(double v);

}  // namespace dbsm::suite

#endif  // DBSM_BENCH_SUITE_COMMON_HPP
