#include "util/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace dbsm::util {

namespace {

class constant_impl final : public distribution {
 public:
  explicit constant_impl(double v) : value_(v) {}
  double sample(rng&) const override { return value_; }
  double mean() const override { return value_; }

 private:
  double value_;
};

class uniform_impl final : public distribution {
 public:
  uniform_impl(double lo, double hi) : lo_(lo), hi_(hi) {
    DBSM_CHECK(lo <= hi);
  }
  double sample(rng& gen) const override {
    return lo_ + (hi_ - lo_) * gen.uniform();
  }
  double mean() const override { return (lo_ + hi_) / 2.0; }

 private:
  double lo_, hi_;
};

class exponential_impl final : public distribution {
 public:
  explicit exponential_impl(double mean) : mean_(mean) {
    DBSM_CHECK(mean > 0.0);
  }
  double sample(rng& gen) const override { return gen.exponential(mean_); }
  double mean() const override { return mean_; }

 private:
  double mean_;
};

class lognormal_impl final : public distribution {
 public:
  lognormal_impl(double mean, double cv, double cap)
      : configured_mean_(mean), cap_(cap) {
    DBSM_CHECK(mean > 0.0);
    DBSM_CHECK(cv >= 0.0);
    const double sigma2 = std::log(1.0 + cv * cv);
    sigma_ = std::sqrt(sigma2);
    mu_ = std::log(mean) - sigma2 / 2.0;
  }
  double sample(rng& gen) const override {
    double v = gen.lognormal(mu_, sigma_);
    if (cap_ > 0.0 && v > cap_) v = cap_;
    return v;
  }
  double mean() const override { return configured_mean_; }

 private:
  double configured_mean_, cap_;
  double mu_ = 0.0, sigma_ = 0.0;
};

class empirical_impl final : public distribution {
 public:
  explicit empirical_impl(std::vector<double> points)
      : points_(std::move(points)) {
    DBSM_CHECK(!points_.empty());
    std::sort(points_.begin(), points_.end());
    mean_ = std::accumulate(points_.begin(), points_.end(), 0.0) /
            static_cast<double>(points_.size());
  }
  double sample(rng& gen) const override {
    if (points_.size() == 1) return points_.front();
    // Pick a random position along the sorted points and interpolate.
    const double pos =
        gen.uniform() * static_cast<double>(points_.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    return points_[idx] + frac * (points_[idx + 1] - points_[idx]);
  }
  double mean() const override { return mean_; }

 private:
  std::vector<double> points_;
  double mean_ = 0.0;
};

class mixture_impl final : public distribution {
 public:
  explicit mixture_impl(std::vector<std::pair<double, distribution_ptr>> parts)
      : parts_(std::move(parts)) {
    DBSM_CHECK(!parts_.empty());
    for (const auto& [w, d] : parts_) {
      DBSM_CHECK(w >= 0.0);
      DBSM_CHECK(d != nullptr);
      total_weight_ += w;
      mean_ += w * d->mean();
    }
    DBSM_CHECK(total_weight_ > 0.0);
    mean_ /= total_weight_;
  }
  double sample(rng& gen) const override {
    double pick = gen.uniform() * total_weight_;
    for (const auto& [w, d] : parts_) {
      if (pick < w) return d->sample(gen);
      pick -= w;
    }
    return parts_.back().second->sample(gen);
  }
  double mean() const override { return mean_; }

 private:
  std::vector<std::pair<double, distribution_ptr>> parts_;
  double total_weight_ = 0.0;
  double mean_ = 0.0;
};

}  // namespace

distribution_ptr constant_dist(double value) {
  return std::make_shared<constant_impl>(value);
}
distribution_ptr uniform_dist(double lo, double hi) {
  return std::make_shared<uniform_impl>(lo, hi);
}
distribution_ptr exponential_dist(double mean) {
  return std::make_shared<exponential_impl>(mean);
}
distribution_ptr lognormal_dist(double mean, double cv, double cap) {
  return std::make_shared<lognormal_impl>(mean, cv, cap);
}
distribution_ptr empirical_dist(std::vector<double> points) {
  return std::make_shared<empirical_impl>(std::move(points));
}
distribution_ptr mixture_dist(
    std::vector<std::pair<double, distribution_ptr>> parts) {
  return std::make_shared<mixture_impl>(std::move(parts));
}

}  // namespace dbsm::util
