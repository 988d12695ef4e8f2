// Ablation: sharded parallel certification — shards × certify_threads ×
// set-size sweep over always-committing certifications at a warm history
// window (the delivery critical path of every experiment).
//
// Two series per point:
//   * real ns/certify — wall-clock over the actual probe/install work,
//     forked across the persistent pool (thread scaling here needs real
//     cores; the JSON baseline records the generating host's core count);
//   * modeled µs/certify — the deterministic cost the simulator charges
//     (cert_config's fork-join critical-path model), which is what
//     bench_fig5_performance and friends use via --certify-threads and is
//     machine-independent.
//
//   $ ./bench_ablation_cert_shards [--iters N] [--window N]
//                                  [--csv out.csv] [--json out.json]
//   $ ./bench_ablation_cert_shards --smoke   # CI: exercises the parallel
//     path and differentially re-checks it against the scan oracle
//     cert::reference_certifier, exiting non-zero on any decision
//     divergence.
//
// --json writes the machine-readable baseline (bench/BENCH_cert_shards.json).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "common.hpp"
#include "util/rng.hpp"

using namespace dbsm;

namespace {

struct sweep_point {
  std::size_t set_size;
  std::size_t shards;
  unsigned threads;
  double real_ns = 0;     // wall-clock per certify_update
  double modeled_us = 0;  // simulator charge per certify_update
};

constexpr db::item_id tup(std::uint64_t n) { return n << 1; }
constexpr db::item_id gran(std::uint64_t n) { return (n << 1) | 1; }

/// One grid point: prefill the window with committed sets, then time
/// `iters` always-committing certifications of a `set_size`-element write
/// set plus an escalated read set of set_size / 2 untouched granules.
void run_point(sweep_point& p, std::size_t window, std::size_t iters) {
  cert::cert_config cfg;
  cfg.history_window = window;
  cfg.shards = p.shards;
  cfg.certify_threads = p.threads;
  cert::sharded_certifier c(cfg);
  util::rng g(1);

  std::vector<db::item_id> ws;
  while (c.history_size() < window) {
    ws.clear();
    for (std::size_t k = 0; k < p.set_size; ++k)
      ws.push_back((db::item_id(1) << 40) |
                   tup(static_cast<db::item_id>(
                       g.uniform_int(0, 1 << 26))));
    cert::normalize(ws);
    c.certify_update(c.position(), {}, ws);
  }

  std::vector<db::item_id> rs(p.set_size / 2);
  for (std::size_t k = 0; k < rs.size(); ++k)
    rs[k] = gran((db::item_id(1) << 50) + k);  // never-written granules
  ws.resize(p.set_size);
  std::uint64_t fresh = 1;
  sim_duration modeled = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::size_t k = 0; k < ws.size(); ++k)
      ws[k] = tup(fresh * 2 * p.set_size + k);  // fresh: always commits
    ++fresh;
    c.certify_update(c.oldest_retained() - 1, rs, ws);
    modeled += c.last_cost();
  }
  const auto dt = std::chrono::steady_clock::now() - t0;
  if (c.commits() != c.position()) {
    std::fprintf(stderr, "sweep workload was expected to always commit\n");
    std::exit(1);
  }
  p.real_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
              .count()) /
      static_cast<double>(iters);
  p.modeled_us = to_micros(modeled) / static_cast<double>(iters);
}

/// Differential re-check for the CI smoke: sharded decisions must match
/// cert::reference_certifier over a randomized conflict-heavy stream.
bool smoke_differential(std::size_t shards, unsigned threads) {
  cert::cert_config cfg;
  cfg.history_window = 128;
  cert::reference_certifier oracle(cfg);
  cfg.shards = shards;
  cfg.certify_threads = threads;
  cert::sharded_certifier sharded(cfg);
  util::rng g(7);
  for (int i = 0; i < 2000; ++i) {
    std::vector<db::item_id> rs, ws;
    const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 600));
    if (g.bernoulli(0.4)) rs.push_back(gran(n >> 3));
    ws.push_back(tup(n));
    if (g.bernoulli(0.5)) ws.push_back(gran(n >> 3));
    cert::normalize(rs);
    cert::normalize(ws);
    const std::uint64_t pos = oracle.position();
    const std::uint64_t begin =
        pos - std::min<std::uint64_t>(
                  pos, static_cast<std::uint64_t>(g.uniform_int(0, 160)));
    if (sharded.certify_update(begin, rs, ws) !=
        oracle.certify_update(begin, rs, ws)) {
      std::fprintf(stderr,
                   "DIVERGENCE at step %d (shards %zu, threads %u)\n", i,
                   shards, threads);
      return false;
    }
  }
  return oracle.commits() == sharded.commits() &&
         oracle.aborts() == sharded.aborts();
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("iters", "0", "certifications per point (0 = auto)");
  flags.declare("window", "1000", "warm history window (committed sets)");
  flags.declare("smoke", "false",
                "CI mode: small sweep + differential correctness check");
  flags.declare("csv", "", "optional CSV output path");
  flags.declare("json", "", "optional JSON baseline output path");
  if (!flags.parse(argc, argv)) return 1;

  const bool smoke = flags.get_bool("smoke");
  if (smoke) {
    for (const auto& [s, t] : std::vector<std::pair<std::size_t, unsigned>>{
             {1, 1}, {2, 1}, {8, 4}}) {
      if (!smoke_differential(s, t)) return 1;
    }
    std::puts("shard differential smoke: PASS");
  }

  const std::size_t window = flags.get_u64("window");
  const std::vector<std::size_t> set_sizes =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{16, 64, 256, 1024};
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 4}
            : std::vector<unsigned>{1, 2, 4};

  std::vector<sweep_point> points;
  for (const std::size_t n : set_sizes)
    for (const std::size_t s : shard_counts)
      for (const unsigned t : thread_counts) {
        if (t > 1 && s == 1) continue;  // fork width is min(threads, shards)
        points.push_back(sweep_point{n, s, t});
      }

  util::text_table table;
  table.header({"Set size", "Shards", "Threads", "Real ns/certify",
                "Modeled us/certify", "Modeled speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back({"set_size", "shards", "threads", "real_ns",
                      "modeled_us", "modeled_speedup"});

  for (sweep_point& p : points) {
    const std::size_t iters =
        flags.get_u64("iters") != 0
            ? flags.get_u64("iters")
            : std::max<std::size_t>(
                  smoke ? 50 : 400,
                  (smoke ? 40000 : 800000) / p.set_size);
    run_point(p, window, iters);
    std::fprintf(stderr, "[point] set %zu shards %zu threads %u done\n",
                 p.set_size, p.shards, p.threads);
  }

  // Modeled speedup is relative to the serial model at the same set size
  // (the 1-shard / 1-thread row), the quantity the figure benches model.
  auto serial_modeled = [&](std::size_t set_size) {
    for (const sweep_point& p : points)
      if (p.set_size == set_size && p.shards == 1 && p.threads == 1)
        return p.modeled_us;
    return 0.0;
  };

  std::string json =
      "{\n  \"benchmark\": \"cert_shards_sweep\",\n"
      "  \"window\": " + util::fmt(static_cast<double>(window), 0) +
      ",\n  \"host_cpus\": " +
      util::fmt(static_cast<double>(std::thread::hardware_concurrency()),
                0) +
      ",\n  \"note\": \"modeled_us is the deterministic simulator charge "
      "(fork-join critical path); real_ns needs host cores to scale\",\n"
      "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sweep_point& p = points[i];
    const double base = serial_modeled(p.set_size);
    const double speedup = p.modeled_us > 0 ? base / p.modeled_us : 0.0;
    table.row({util::fmt(p.set_size), util::fmt(p.shards),
               util::fmt(static_cast<std::size_t>(p.threads)), util::fmt(p.real_ns, 0),
               util::fmt(p.modeled_us, 2), util::fmt(speedup, 2)});
    csv_rows.push_back({util::fmt(p.set_size), util::fmt(p.shards),
                        util::fmt(static_cast<std::size_t>(p.threads)), util::fmt(p.real_ns, 0),
                        util::fmt(p.modeled_us, 2),
                        util::fmt(speedup, 2)});
    json += "    {\"set_size\": " + util::fmt(p.set_size) +
            ", \"shards\": " + util::fmt(p.shards) +
            ", \"threads\": " + util::fmt(static_cast<std::size_t>(p.threads)) +
            ", \"real_ns_per_certify\": " + util::fmt(p.real_ns, 0) +
            ", \"modeled_us_per_certify\": " + util::fmt(p.modeled_us, 2) +
            ", \"modeled_speedup\": " + util::fmt(speedup, 2) + "}" +
            (i + 1 < points.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";

  bench::emit(table, flags.get_string("csv"), csv_rows);
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "[json] wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "[json] cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
