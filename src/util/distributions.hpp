// Duration / value distributions used to model profiled costs.
//
// The paper drives the simulated database with *empirical distributions*
// obtained by profiling PostgreSQL (§4.1). We substitute calibrated
// parametric and tabulated distributions behind one small interface.
#ifndef DBSM_UTIL_DISTRIBUTIONS_HPP
#define DBSM_UTIL_DISTRIBUTIONS_HPP

#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace dbsm::util {

/// A sampleable non-negative real distribution.
class distribution {
 public:
  virtual ~distribution() = default;
  /// Draws one sample using the caller's generator.
  virtual double sample(rng& gen) const = 0;
  /// Analytic or configured mean (used by load calculations and docs).
  virtual double mean() const = 0;
};

using distribution_ptr = std::shared_ptr<const distribution>;

/// Always returns the same value.
distribution_ptr constant_dist(double value);

/// Uniform over [lo, hi].
distribution_ptr uniform_dist(double lo, double hi);

/// Exponential with the given mean.
distribution_ptr exponential_dist(double mean);

/// Log-normal parameterized by its *actual* mean and coefficient of
/// variation (cv = stddev/mean), which is how calibration tables are
/// written. Samples are truncated at `cap` (<=0 means no cap).
distribution_ptr lognormal_dist(double mean, double cv, double cap = 0.0);

/// Empirical distribution: samples uniformly among the given points with
/// linear interpolation between adjacent sorted points (a smoothed
/// bootstrap of a profile log).
distribution_ptr empirical_dist(std::vector<double> points);

/// Mixture of (weight, component) pairs; weights need not be normalized.
distribution_ptr mixture_dist(
    std::vector<std::pair<double, distribution_ptr>> parts);

}  // namespace dbsm::util

#endif  // DBSM_UTIL_DISTRIBUTIONS_HPP
