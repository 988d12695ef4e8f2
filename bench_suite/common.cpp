#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#ifndef DBSM_SUITE_BUILD_TYPE
#define DBSM_SUITE_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define DBSM_SUITE_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define DBSM_SUITE_COMPILER "gcc " __VERSION__
#else
#define DBSM_SUITE_COMPILER "unknown"
#endif

namespace dbsm::suite {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emitter::add(const std::string& workload, const std::string& name,
                  double value, const std::string& unit,
                  std::uint64_t samples) {
  metrics_.push_back({workload, name, value, unit, samples});
}

void emitter::print_lines(std::FILE* out) const {
  for (const metric& m : metrics_) {
    std::fprintf(out, "%s %s %.6g %s", m.workload.c_str(), m.name.c_str(),
                 m.value, m.unit.c_str());
    if (m.samples != 0)
      std::fprintf(out, " n=%llu", static_cast<unsigned long long>(m.samples));
    std::fputc('\n', out);
  }
  std::fflush(out);
}

std::string emitter::json(const run_meta& meta) const {
  std::string s = "{\n  \"meta\": {";
  s += "\"host_cores\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"build_type\": " + quoted(DBSM_SUITE_BUILD_TYPE);
  s += ", \"compiler\": " + quoted(DBSM_SUITE_COMPILER);
  s += ", \"seed\": " + std::to_string(meta.seed);
  s += ", \"reps\": " + std::to_string(meta.reps);
  s += ", \"seconds\": " + num(meta.seconds);
  s += std::string(", \"traced\": ") + (meta.traced ? "true" : "false");
  s += ", \"workload_wall_s\": {";
  bool first = true;
  for (const auto& [w, t] : meta.workload_wall_s) {
    s += (first ? "" : ", ") + quoted(w) + ": " + num(t);
    first = false;
  }
  s += "}},\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const metric& m = metrics_[i];
    s += "    {\"workload\": " + quoted(m.workload) +
         ", \"name\": " + quoted(m.name) + ", \"value\": " + num(m.value) +
         ", \"unit\": " + quoted(m.unit);
    if (m.samples != 0) s += ", \"samples\": " + std::to_string(m.samples);
    s += i + 1 < metrics_.size() ? "},\n" : "}\n";
  }
  return s + "  ]\n}\n";
}

std::string emitter::result_line(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::set<std::string> workloads;
  for (const metric& m : metrics_) workloads.insert(m.workload);
  const bool bare = workloads.size() <= 1;
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const metric& m = metrics_[i];
    const std::string key = bare ? m.name : m.workload + "." + m.name;
    s += (i == 0 ? "" : ", ") + quoted(key) + ": {\"value\": " +
         num(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  return s + "}}";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace dbsm::suite
