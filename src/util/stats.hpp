// Streaming and sample-based statistics used for every reported metric:
// latency distributions (ECDF, quantiles, Q-Q), throughput, resource usage.
#ifndef DBSM_UTIL_STATS_HPP
#define DBSM_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbsm::util {

/// Streaming mean/variance/min/max (Welford's algorithm).
class running_stats {
 public:
  void add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  void merge(const running_stats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Stores samples for distribution queries. Sorting is lazy and cached.
class sample_set {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;

  /// Quantile q in [0,1] with linear interpolation; empty set -> 0.
  double quantile(double q) const;

  /// Empirical CDF value at x: fraction of samples <= x.
  double ecdf_at(double x) const;

  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Q-Q series between two sample sets: n matched quantile pairs
/// (quantile of a, quantile of b).
std::vector<std::pair<double, double>> qq_series(const sample_set& a,
                                                 const sample_set& b,
                                                 std::size_t n);

/// Tracks the busy fraction of a resource over simulated time.
/// Feed it (time, busy-units) transitions; it integrates utilization.
class utilization_tracker {
 public:
  explicit utilization_tracker(double capacity = 1.0);

  /// Records that from `now` onward, `busy_units` units are in use.
  void set_busy(std::int64_t now, double busy_units);

  /// Utilization in [0,1] over [start, now].
  double utilization(std::int64_t now) const;
  /// Integrated busy time (unit-nanoseconds / capacity).
  double busy_integral(std::int64_t now) const;

 private:
  double capacity_;
  double busy_ = 0.0;
  std::int64_t last_change_ = 0;
  std::int64_t start_ = 0;
  double integral_ = 0.0;  // unit-nanoseconds
};

}  // namespace dbsm::util

#endif  // DBSM_UTIL_STATS_HPP
