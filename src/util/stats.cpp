#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace dbsm::util {

void running_stats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double running_stats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double running_stats::stddev() const { return std::sqrt(variance()); }

void running_stats::merge(const running_stats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void sample_set::add(double x) {
  samples_.push_back(x);
  sorted_ = samples_.size() <= 1;
}

double sample_set::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double sample_set::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

const std::vector<double>& sample_set::sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

double sample_set::min() const {
  return samples_.empty() ? 0.0 : sorted().front();
}

double sample_set::max() const {
  return samples_.empty() ? 0.0 : sorted().back();
}

double sample_set::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  if (s.size() == 1) return s.front();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= s.size()) return s.back();
  const double frac = pos - static_cast<double>(idx);
  return s[idx] + frac * (s[idx + 1] - s[idx]);
}

double sample_set::ecdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

std::vector<std::pair<double, double>> qq_series(const sample_set& a,
                                                 const sample_set& b,
                                                 std::size_t n) {
  std::vector<std::pair<double, double>> out;
  if (a.empty() || b.empty() || n == 0) return out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    out.emplace_back(a.quantile(q), b.quantile(q));
  }
  return out;
}

utilization_tracker::utilization_tracker(double capacity)
    : capacity_(capacity) {
  DBSM_CHECK(capacity > 0.0);
}

void utilization_tracker::set_busy(std::int64_t now, double busy_units) {
  DBSM_CHECK_MSG(now >= last_change_,
                 "now=" << now << " last=" << last_change_);
  DBSM_CHECK_MSG(busy_units >= -1e-9 && busy_units <= capacity_ + 1e-9,
                 "busy=" << busy_units << " capacity=" << capacity_);
  integral_ += busy_ * static_cast<double>(now - last_change_);
  busy_ = std::clamp(busy_units, 0.0, capacity_);
  last_change_ = now;
}

double utilization_tracker::utilization(std::int64_t now) const {
  const auto elapsed = static_cast<double>(now - start_);
  if (elapsed <= 0.0) return 0.0;
  const double total =
      integral_ + busy_ * static_cast<double>(now - last_change_);
  return total / (elapsed * capacity_);
}

double utilization_tracker::busy_integral(std::int64_t now) const {
  return (integral_ + busy_ * static_cast<double>(now - last_change_)) /
         capacity_;
}

}  // namespace dbsm::util
