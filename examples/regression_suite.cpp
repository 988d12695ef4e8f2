// Automated regression suite (§7): "the ability to autonomously run a set
// of realistic load and fault scenarios and automatically check for
// performance or reliability regressions has proved invaluable."
//
//   $ ./regression_suite          # exit code 0 = all gates passed
//
// Each scenario asserts reliability gates (the online invariant monitors,
// the off-line safety check, liveness, bounded aborts) and performance
// gates (throughput and latency envelopes around the calibrated
// baselines). Run it after changing any protocol component.
#include <cstdio>

#include "core/experiment.hpp"
#include "util/table.hpp"

using namespace dbsm;

namespace {

struct gate {
  const char* name;
  core::experiment_config cfg;
  double min_tpm;
  double max_mean_latency_ms;
  double max_abort_pct;
};

core::experiment_config scenario(unsigned sites, unsigned cpus,
                                 unsigned clients) {
  core::experiment_config cfg;
  cfg.sites = sites;
  cfg.cpus_per_site = cpus;
  cfg.clients = clients;
  cfg.target_responses = 2500;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 42;
  return cfg;
}

}  // namespace

int main() {
  std::vector<gate> gates;
  gates.push_back({"centralized 1x1 @250", scenario(1, 1, 250),
                   1150, 120, 4.0});
  gates.push_back({"replicated 3x1 @500", scenario(3, 1, 500),
                   2300, 120, 4.0});
  gates.push_back({"replicated 6x1 @1000", scenario(6, 1, 1000),
                   4800, 150, 5.0});
  {
    auto cfg = scenario(3, 1, 500);
    cfg.faults = fault::scenarios::random_loss();
    gates.push_back({"3x1 @500 + 5% loss", cfg, 2200, 250, 6.0});
  }
  {
    auto cfg = scenario(3, 1, 300);
    fault::scenarios::params p;
    p.sites = 3;
    p.onset = seconds(25);
    cfg.faults = fault::scenarios::crash(p);
    gates.push_back({"3x1 @300 + crash", cfg, 1100, 200, 5.0});
  }

  util::text_table t;
  t.header({"Scenario", "tpm", "latency(ms)", "abort(%)", "monitors",
            "safety", "verdict"});
  bool all_ok = true;
  for (const gate& g : gates) {
    std::fprintf(stderr, "[regression] %s ...\n", g.name);
    const auto r = core::run_experiment(g.cfg);
    const bool perf_ok = r.tpm() >= g.min_tpm &&
                         r.stats.mean_latency_ms() <= g.max_mean_latency_ms &&
                         r.stats.abort_rate_pct() <= g.max_abort_pct;
    const bool ok = perf_ok && r.checks.ok && r.safety.ok;
    all_ok = all_ok && ok;
    t.row({g.name, util::fmt(r.tpm(), 0),
           util::fmt(r.stats.mean_latency_ms(), 1),
           util::fmt(r.stats.abort_rate_pct(), 2),
           r.checks.ok ? "ok" : "VIOLATED", r.safety.ok ? "ok" : "VIOLATED",
           ok ? "PASS" : "FAIL"});
    if (!r.checks.ok)
      std::fprintf(stderr, "[regression] %s: %s\n", g.name,
                   r.checks.summary().c_str());
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nregression suite: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
