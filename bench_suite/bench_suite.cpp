// bench_suite: the repository benchmark. Five closed-loop workloads run
// through the public core::run_experiment; every measured run is a forked
// child, so each run gets its own peak RSS (from wait4) and no run's heap
// warms the next. Repetitions go round-robin across the selected
// workloads, so a noisy patch on the host hits every workload alike.
//
// One --seed fans out into kSubSeeds sub-seeds (the first is the seed
// itself). Repetition r runs sub-seed r mod kSubSeeds, so the modeled
// metrics average kSubSeeds independent runs, and every repetition past
// the first kSubSeeds re-runs a sub-seed and must reproduce it exactly.
//
// End-to-end metrics (untraced runs):
//   modeled, on the simulated clock, mean over the sub-seeds: tpm,
//     abort_pct, latency_p50_ms, latency_p95_ms, cert_mean_ms;
//   harness, on the wall clock, median over repetitions:
//     harness_txn_per_s, setup_s, peak_rss_mb.
// With --trace 1 a traced run per workload (traced.hpp) adds the
// per-layer metrics, each measured from outside its layer.
//
// Gates (any failure makes the result incorrect and the exit code 1): the
// online monitors and the commit-log safety check on every run; exact
// repeats of a sub-seed's modeled metrics and commit logs on a
// deterministic workload; a monitors-off run and the traced run committing
// the same logs as the untraced run of sub-seed 0; replayed certification
// verdicts and the codec round trip.
//
//   $ bench_suite [--workload NAME|all] [--seed N] [--seconds S | --reps N]
//                 [--trace 0|1] [--json out.json] [--trace-file out.json]
//                 [--trace-spans N] [--smoke]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; with --trace 1 its metrics are the
// per-layer ones, otherwise the end-to-end ones.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "traced.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

using namespace dbsm;
using namespace dbsm::suite;

namespace {

using wall_clock = std::chrono::steady_clock;

constexpr unsigned kSubSeeds = 4;
// Set-up is timed a few times before every repetition, so the samples
// spread over the whole measurement instead of one short window.
constexpr unsigned kSetupsPerRound = 5;

double seconds_since(wall_clock::time_point t0) {
  return std::chrono::duration<double>(wall_clock::now() - t0).count();
}

/// Sub-seed k of `seed`; sub-seed 0 is the seed itself.
std::uint64_t sub_seed(std::uint64_t seed, unsigned k) {
  return seed ^ (0x9e3779b97f4a7c15ull * k);
}

/// What a forked child reported: `key value` lines plus its peak RSS.
struct child_report {
  bool exited_ok = false;
  std::map<std::string, std::string> values;
  double peak_rss_mb = 0.0;
  double wall_s = 0.0;

  double num(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  std::string text(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::string() : it->second;
  }
};

/// Runs `body` in a forked child that writes `key value` lines to the
/// stream it is given; waits for the child and returns what it wrote.
child_report in_child(const std::function<void(std::FILE*)>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  const wall_clock::time_point t0 = wall_clock::now();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    // The child dies with the parent: a killed benchmark leaves no run
    // behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    std::FILE* out = fdopen(fds[1], "w");
    int code = 0;
    try {
      body(out);
    } catch (const std::exception& e) {
      std::fprintf(out, "error %s\n", e.what());
      code = 1;
    }
    std::fflush(out);
    _exit(code);
  }
  close(fds[1]);
  child_report rep;
  std::FILE* in = fdopen(fds[0], "r");
  char line[4096];
  while (std::fgets(line, sizeof line, in) != nullptr) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    const auto sp = s.find(' ');
    if (sp == std::string::npos) continue;
    rep.values[s.substr(0, sp)] = s.substr(sp + 1);
  }
  std::fclose(in);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("wait4");
    std::exit(2);
  }
  rep.wall_s = seconds_since(t0);
  rep.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  rep.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return rep;
}

void put(std::FILE* out, const std::string& key, double v) {
  std::fprintf(out, "%s %s\n", key.c_str(), num(v).c_str());
}

const char* const kModeled[] = {"tpm", "abort_pct", "latency_p50_ms",
                                "latency_p95_ms", "cert_mean_ms"};

/// One untraced run of core::run_experiment, reported to the parent.
void measured_run(const core::experiment_config& cfg, std::FILE* out) {
  const wall_clock::time_point t0 = wall_clock::now();
  const core::experiment_result r = core::run_experiment(cfg);
  put(out, "wall_s", seconds_since(t0));
  const util::sample_set lat = r.stats.pooled_latency_ms();
  put(out, "responses", static_cast<double>(r.responses));
  put(out, "tpm", r.tpm());
  put(out, "abort_pct", r.stats.abort_rate_pct());
  put(out, "latency_p50_ms", lat.quantile(0.50));
  put(out, "latency_p95_ms", lat.quantile(0.95));
  put(out, "latency_n", static_cast<double>(lat.size()));
  put(out, "cert_mean_ms", r.cert_latency_ms.mean());
  put(out, "cert_n", static_cast<double>(r.cert_latency_ms.size()));
  std::fprintf(out, "log_hash %llu\n",
               static_cast<unsigned long long>(hash_logs(r.commit_logs)));
  std::fprintf(out, "safety %s\n", r.safety.ok ? "ok" : "VIOLATION");
  std::fprintf(out, "checks %s\n",
               r.checks.ok ? "ok" : r.checks.summary().c_str());
}

/// Why a measured run is not acceptable, or empty when it is.
std::string run_gate(const child_report& rep,
                     const core::experiment_config& cfg) {
  if (!rep.exited_ok) return "child failed " + rep.text("error");
  if (rep.text("safety") != "ok") return "commit-log safety check failed";
  if (rep.text("checks") != "ok") return "monitors: " + rep.text("checks");
  if (rep.num("responses") == 0) return "no responses";
  if (cfg.target_responses != 0 &&
      rep.num("responses") < static_cast<double>(cfg.target_responses))
    return "stopped short of the response target";
  return {};
}

struct workload_state {
  const workload_def* def = nullptr;
  core::experiment_config cfg;
  unsigned sub_seeds = kSubSeeds;
  unsigned rounds = 0;
  std::vector<double> setup_s;
  /// Every accepted repetition, and the first accepted run of each
  /// sub-seed (the reference later repeats must reproduce).
  std::vector<child_report> reps;
  std::map<unsigned, child_report> first_of_sub;
  /// Wall seconds of every accepted run of sub-seed 0.
  std::vector<double> sub0_walls;
  std::vector<std::string> failures;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  core::experiment_config config_for(unsigned k) const {
    core::experiment_config c = cfg;
    c.seed = sub_seed(cfg.seed, k);
    return c;
  }

  /// Counts one experiment run and records why it failed, if it did.
  void account(const std::string& label, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "[suite] FAIL %s %s: %s\n", def->name.c_str(),
                 label.c_str(), why.c_str());
    failures.push_back(label + ": " + why);
  }
};

void run_setups(workload_state& w) {
  child_report rep = in_child([&w](std::FILE* out) {
    core::experiment_config cfg = w.cfg;
    cfg.max_sim_time = 0;
    for (unsigned k = 0; k < kSetupsPerRound; ++k) {
      const wall_clock::time_point t0 = wall_clock::now();
      core::run_experiment(cfg);
      put(out, "setup_" + std::to_string(k), seconds_since(t0));
    }
  });
  w.wall_s += rep.wall_s;
  for (unsigned k = 0; k < kSetupsPerRound; ++k) {
    const std::string key = "setup_" + std::to_string(k);
    const bool ok = rep.exited_ok && rep.values.count(key) != 0;
    w.account("set-up " + std::to_string(k),
              ok ? "" : "child failed " + rep.text("error"));
    if (ok) w.setup_s.push_back(rep.num(key));
  }
}

void run_rep(workload_state& w) {
  const unsigned k = w.rounds++ % w.sub_seeds;
  const core::experiment_config cfg = w.config_for(k);
  child_report rep =
      in_child([&cfg](std::FILE* out) { measured_run(cfg, out); });
  w.wall_s += rep.wall_s;
  std::string why = run_gate(rep, cfg);
  const auto first = w.first_of_sub.find(k);
  if (why.empty() && w.def->deterministic && first != w.first_of_sub.end()) {
    if (rep.text("log_hash") != first->second.text("log_hash"))
      why = "commit logs differ from the first run of this sub-seed";
    for (const char* key : kModeled)
      if (why.empty() && rep.text(key) != first->second.text(key))
        why = std::string(key) + " differs from the first run of this "
                                 "sub-seed";
  }
  const std::string label = "rep " + std::to_string(w.rounds - 1);
  w.account(label, why);
  std::fprintf(stderr, "[suite] %s %s (sub-seed %u): %.2f s, %.0f responses\n",
               w.def->name.c_str(), label.c_str(), k, rep.num("wall_s"),
               rep.num("responses"));
  if (!why.empty()) return;
  if (first == w.first_of_sub.end()) w.first_of_sub.emplace(k, rep);
  if (k == 0) w.sub0_walls.push_back(rep.num("wall_s"));
  w.reps.push_back(std::move(rep));
}

void emit_end_to_end(workload_state& w, emitter& e) {
  if (w.first_of_sub.size() != w.sub_seeds) {
    w.failures.push_back("not every sub-seed produced an accepted run");
    return;
  }
  const std::string& n = w.def->name;
  const auto sum_over_subs = [&w](const char* key) {
    double sum = 0;
    for (const auto& [k, r] : w.first_of_sub) sum += r.num(key);
    return sum;
  };
  const auto mean = [&](const char* key) {
    return sum_over_subs(key) / static_cast<double>(w.sub_seeds);
  };
  const auto lat_n = static_cast<std::uint64_t>(sum_over_subs("latency_n"));
  const auto cert_n = static_cast<std::uint64_t>(sum_over_subs("cert_n"));
  e.add(n, "tpm", mean("tpm"), "txn/min");
  e.add(n, "abort_pct", mean("abort_pct"), "%");
  e.add(n, "latency_p50_ms", mean("latency_p50_ms"), "ms", lat_n);
  e.add(n, "latency_p95_ms", mean("latency_p95_ms"), "ms", lat_n);
  e.add(n, "cert_mean_ms", mean("cert_mean_ms"), "ms", cert_n);
  std::vector<double> rate, rss;
  for (const child_report& r : w.reps) {
    rate.push_back(r.num("responses") / r.num("wall_s"));
    rss.push_back(r.peak_rss_mb);
  }
  e.add(n, "harness_txn_per_s", median(rate), "txn/s");
  e.add(n, "setup_s", median(w.setup_s), "s");
  e.add(n, "peak_rss_mb", median(rss), "MB");
}

/// Per-layer metrics from name to unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.events_per_txn", "events/txn"},
      {"sim.ns_per_event", "ns"},
      {"workload.next_ns_p50", "ns"},
      {"csrt.cpu_busy_pct_max", "%"},
      {"csrt.protocol_cpu_pct_max", "%"},
      {"csrt.protocol_cpu_spread", "ratio"},
      {"net.datagrams_per_commit", "count/txn"},
      {"net.wire_bytes_per_commit", "B/txn"},
      {"net.dropped_datagrams", "count"},
      {"gcs.naks", "count"},
      {"gcs.retransmissions", "count"},
      {"gcs.blocked_episodes", "count"},
      {"gcs.mean_run_len", "count"},
      {"cert.certify_ns_p50", "ns"},
      {"cert.certify_ns_p99", "ns"},
      {"cert.conflict_pct", "%"},
      {"cert.index_size", "count"},
      {"cert.history_size", "count"},
      {"codec.encode_ns_p50", "ns"},
      {"codec.decode_ns_p50", "ns"},
      {"codec.bytes_per_txn", "B/txn"},
      {"db.disk_busy_pct_max", "%"},
      {"db.abort_lock_pct", "%"},
      {"db.abort_preempt_pct", "%"},
      {"db.applied_bytes_per_commit", "B/txn"},
      {"core.max_commit_gap_ms", "ms"},
      {"core.pipeline_high_water", "count"},
      {"read.local_pct", "%"},
      {"read.ro_broadcasts", "count"},
      {"check.wall_share_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

/// The monitors-off run and the traced run of sub-seed 0; emits the
/// per-layer metrics.
void run_layers(workload_state& w, const traced_options& opt, emitter& e) {
  const auto first = w.first_of_sub.find(0);
  if (first == w.first_of_sub.end()) return;
  const child_report& ref = first->second;
  const double wall_on = median(w.sub0_walls);

  core::experiment_config off_cfg = w.config_for(0);
  off_cfg.checks.enabled = false;
  const child_report off =
      in_child([&off_cfg](std::FILE* out) { measured_run(off_cfg, out); });
  w.wall_s += off.wall_s;
  std::string why = run_gate(off, off_cfg);
  if (why.empty() && w.def->deterministic &&
      off.text("log_hash") != ref.text("log_hash"))
    why = "commit logs differ with the monitors off";
  w.account("monitors-off run", why);

  const core::experiment_config cfg = w.config_for(0);
  const child_report tr = in_child([&cfg, &opt](std::FILE* out) {
    const traced_outcome t = run_traced(cfg, opt);
    for (const auto& [k, v] : t.layer) put(out, k, v);
    put(out, "sim_wall_s", t.sim_wall_s);
    put(out, "events", static_cast<double>(t.events));
    put(out, "responses", static_cast<double>(t.responses));
    std::fprintf(out, "log_hash %llu\n",
                 static_cast<unsigned long long>(t.log_hash));
    std::string failures;
    for (const std::string& f : t.failures) failures += f + "; ";
    std::fprintf(out, "failures %s\n",
                 failures.empty() ? "none" : failures.c_str());
  });
  w.wall_s += tr.wall_s;
  why.clear();
  if (!tr.exited_ok) why = "child failed " + tr.text("error");
  else if (tr.text("failures") != "none") why = tr.text("failures");
  else if (w.def->deterministic &&
           (tr.text("log_hash") != ref.text("log_hash") ||
            tr.text("responses") != ref.text("responses")))
    why = "commit logs or response count differ from the untraced run";
  w.account("traced run", why);
  if (!tr.exited_ok || !off.exited_ok) return;

  for (const auto& [name, unit] : layer_units()) {
    double v = tr.num(name);
    if (name == "sim.ns_per_event") v = 1e9 * wall_on / tr.num("events");
    if (name == "check.wall_share_pct")
      v = 100.0 * (wall_on - off.num("wall_s")) / wall_on;
    if (name == "trace.overhead_pct")
      v = 100.0 * (tr.num("sim_wall_s") - wall_on) / wall_on;
    e.add(w.def->name, name, v, unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("workload", "all", "workload name, or all");
  flags.declare("seed", "42", "seed every workload's inputs derive from");
  flags.declare("seconds", "0",
                "measure for about this many wall seconds (at least one "
                "run per sub-seed); 0 uses --reps");
  flags.declare("reps", "7",
                "repetitions per workload when --seconds is 0 (at least "
                "one per sub-seed)");
  flags.declare("trace", "0", "1 adds the traced run and per-layer metrics");
  flags.declare("json", "", "write the metrics document (with meta) here");
  flags.declare("trace-file", "",
                "write the traced run's spans here as Chrome trace JSON "
                "(needs --trace 1 and one workload)");
  flags.declare("trace-spans", "200000",
                "cap on spans kept per span name in the traced run");
  flags.declare("smoke", "false",
                "CI gate: tiny runs of every workload, one sub-seed run "
                "twice, traced; exit 1 on any failed gate");
  if (!flags.parse(argc, argv)) return 2;

  const bool smoke = flags.get_bool("smoke");
  const bool traced = smoke || flags.get_int("trace") != 0;
  const double seconds = smoke ? 0.0 : flags.get_double("seconds");
  const std::uint64_t seed = flags.get_u64("seed");
  const std::string only = flags.get_string("workload");
  traced_options topt;
  topt.trace_file = flags.get_string("trace-file");
  topt.span_cap = flags.get_u64("trace-spans");

  std::vector<workload_state> states;
  for (const workload_def& def : workloads()) {
    if (only != "all" && only != def.name) continue;
    workload_state s;
    s.def = &def;
    s.cfg = make_config(def, seed, smoke);
    s.sub_seeds = smoke ? 1 : kSubSeeds;
    states.push_back(std::move(s));
  }
  if (states.empty()) {
    std::fprintf(stderr, "unknown workload: %s\n", only.c_str());
    return 2;
  }
  if (!topt.trace_file.empty() && (!traced || states.size() != 1)) {
    std::fprintf(stderr, "--trace-file needs --trace 1 and one workload\n");
    return 2;
  }

  // Round-robin repetitions: one per sub-seed at least; with --seconds,
  // more while another round is expected to fit the budget.
  const unsigned min_rounds =
      smoke ? 2
            : std::max(kSubSeeds, seconds > 0
                                      ? 0u
                                      : static_cast<unsigned>(
                                            flags.get_u64("reps")));
  const wall_clock::time_point t0 = wall_clock::now();
  for (unsigned round = 0;; ++round) {
    if (round >= min_rounds) {
      if (seconds <= 0) break;
      const double elapsed = seconds_since(t0);
      if (elapsed + elapsed / round > seconds) break;
    }
    for (workload_state& w : states) {
      run_setups(w);
      run_rep(w);
    }
  }

  emitter end_to_end;
  emitter layers;
  for (workload_state& w : states) emit_end_to_end(w, end_to_end);
  if (traced)
    for (workload_state& w : states) run_layers(w, topt, layers);

  run_meta meta;
  meta.seed = seed;
  meta.reps = states.front().rounds;
  meta.seconds = seconds;
  meta.traced = traced;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const workload_state& w : states) {
    meta.workload_wall_s[w.def->name] = w.wall_s;
    attempted += w.attempted;
    failed += w.failed;
    correct = correct && w.failures.empty();
  }

  end_to_end.print_lines(stdout);
  layers.print_lines(stdout);
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    emitter all = end_to_end;
    for (const metric& m : layers.metrics())
      all.add(m.workload, m.name, m.value, m.unit, m.samples);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    const bool written =
        f != nullptr && std::fputs(all.json(meta).c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  const emitter& reported = traced && !smoke ? layers : end_to_end;
  std::printf("%s\n", reported.result_line(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}
