#include "common.hpp"

#include <cstdio>

namespace dbsm::bench {

core::experiment_config paper_config() {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.cpus_per_site = 1;
  cfg.clients = 500;
  cfg.target_responses = 10000;  // "simulations of 10000 transactions"
  cfg.max_sim_time = seconds(3600);
  cfg.seed = 42;
  // Defaults of replica/gcs/lan/cost models are the calibrated testbed
  // values (§4.1); profile is the PostgreSQL-profiling substitute.
  return cfg;
}

void declare_common_flags(util::flag_set& flags) {
  flags.declare("txns", "10000", "responses per configuration point");
  flags.declare("seed", "42", "experiment seed");
  flags.declare("quick", "false", "reduced sweep for smoke runs");
  flags.declare("csv", "", "optional CSV output path");
}

void apply_common_flags(const util::flag_set& flags,
                        core::experiment_config& cfg) {
  cfg.target_responses = flags.get_u64("txns");
  cfg.seed = flags.get_u64("seed");
  if (flags.get_bool("quick") && !flags.is_set("txns")) {
    cfg.target_responses = 1500;
  }
}

const std::vector<system_config>& fig5_systems() {
  static const std::vector<system_config> systems = {
      {"1 CPU", 1, 1},   {"3 CPU", 1, 3},   {"6 CPU", 1, 6},
      {"3 Sites", 3, 1}, {"6 Sites", 6, 1},
  };
  return systems;
}

std::vector<unsigned> fig5_client_points(bool quick) {
  if (quick) return {100, 500, 1000, 1500, 2000};
  return {100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000};
}

core::experiment_result run_point(core::experiment_config cfg,
                                  const std::string& label) {
  std::fprintf(stderr, "[run] %s ...\n", label.c_str());
  auto result = core::run_experiment(cfg);
  if (!result.safety.ok) {
    std::fprintf(stderr, "[run] %s: SAFETY VIOLATION: %s\n", label.c_str(),
                 result.safety.detail.c_str());
  }
  return result;
}

void emit(const util::text_table& table, const std::string& csv_path,
          const std::vector<std::vector<std::string>>& csv_rows) {
  std::fputs(table.to_string().c_str(), stdout);
  std::fflush(stdout);
  if (!csv_path.empty()) {
    util::csv_writer csv(csv_path);
    for (const auto& row : csv_rows) csv.row(row);
    std::fprintf(stderr, "[csv] wrote %s\n", csv_path.c_str());
  }
}

}  // namespace dbsm::bench
