// Quickstart: run a replicated TPC-C database (3 sites, 300 clients) in
// the simulation and print the headline metrics.
//
//   $ ./quickstart [--sites N] [--clients N] [--txns N] [--seed N]
//
// This is the highest-level public API: describe the scenario in an
// experiment_config, call run_experiment, read the result.
#include <cstdio>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("sites", "3", "number of database replicas");
  flags.declare("cpus", "1", "CPUs per site");
  flags.declare("clients", "300", "TPC-C clients (10 per warehouse)");
  flags.declare("txns", "3000", "transactions to run");
  flags.declare("seed", "42", "random seed");
  if (!flags.parse(argc, argv)) return 1;

  core::experiment_config cfg;
  cfg.sites = static_cast<unsigned>(flags.get_int("sites"));
  cfg.cpus_per_site = static_cast<unsigned>(flags.get_int("cpus"));
  cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
  cfg.target_responses = flags.get_u64("txns");
  cfg.seed = flags.get_u64("seed");

  std::printf("Running %u TPC-C clients against %u site(s) x %u CPU...\n",
              cfg.clients, cfg.sites, cfg.cpus_per_site);
  const auto r = core::run_experiment(cfg);

  std::printf("\nsimulated time     %.1f s\n", to_seconds(r.duration));
  std::printf("throughput         %.0f committed tpm\n", r.tpm());
  std::printf("mean latency       %.1f ms\n", r.stats.mean_latency_ms());
  std::printf("abort rate         %.2f %%\n", r.stats.abort_rate_pct());
  std::printf("CPU utilization    %.1f %% (protocol: %.2f %%)\n",
              r.cpu_utilization * 100.0,
              r.protocol_cpu_utilization * 100.0);
  std::printf("disk utilization   %.1f %%\n", r.disk_utilization * 100.0);
  std::printf("network traffic    %.0f KB/s\n", r.network_kbps);
  std::printf("safety check       %s (common prefix: %zu commits)\n",
              r.safety.ok ? "IDENTICAL COMMIT SEQUENCES" : "VIOLATED",
              r.safety.common_prefix);

  // Per-class breakdown straight from the result: class count and names
  // come from the workload that ran, not from a hard-wired benchmark.
  util::text_table t;
  t.header({"Class", "Total", "Committed", "Abort %", "Mean latency (ms)"});
  for (db::txn_class c = 0;
       c < static_cast<db::txn_class>(r.stats.classes()); ++c) {
    const auto& s = r.stats.of(c);
    t.row({r.class_names.at(c), util::fmt(s.total()),
           util::fmt(s.committed), util::fmt(s.abort_rate_pct(), 2),
           util::fmt(s.mean_latency_ms(), 1)});
  }
  std::printf("\n%s", t.to_string().c_str());
  return r.safety.ok ? 0 : 1;
}
