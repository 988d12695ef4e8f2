// Deterministic fault-scenario fuzzing under the online invariant
// monitors (check/): generate a batch of random fault timelines from a
// fixed seed, run each against a replicated configuration, and — if any
// run violates an invariant — shrink the scenario to a minimal
// reproducing timeline, print it, and optionally save it for replay.
//
//   $ ./fault_fuzzer                             # 25 scenarios, seed 1
//   $ ./fault_fuzzer --scenarios 100 --seed 42
//   $ ./fault_fuzzer --replay shrunk.fuzz        # re-run a saved case
//   $ ./fault_fuzzer --break-primary-partition   # demo: catch split-brain
//
// Exit status 0 iff every scenario passed every invariant (CI smoke).
#include <cstdio>

#include "fault/fuzz.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

using namespace dbsm;

namespace {

fault::fuzz::config make_config(const util::flag_set& flags) {
  fault::fuzz::config cfg;
  cfg.sites = static_cast<unsigned>(flags.get_int("sites"));
  cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
  cfg.target_responses = flags.get_u64("txns");
  cfg.max_sim_time = seconds(flags.get_int("max-sim-secs"));
  cfg.max_faults = static_cast<unsigned>(flags.get_int("max-faults"));
  cfg.horizon = seconds(flags.get_int("horizon"));
  cfg.allow_recovery = flags.get_bool("recovery");
  cfg.break_primary_partition = flags.get_bool("break-primary-partition");
  cfg.shrink_budget = static_cast<unsigned>(flags.get_int("shrink-budget"));
  return cfg;
}

int report_failure(const fault::fuzz::scenario_spec& spec,
                   const fault::fuzz::run_result& bad,
                   const fault::fuzz::config& cfg,
                   const std::string& out_path) {
  std::printf("VIOLATION: %s\n", bad.detail.c_str());
  std::printf("shrinking (budget %u runs)...\n", cfg.shrink_budget);
  const auto minimal = fault::fuzz::shrink(spec, cfg);
  const auto replay = fault::fuzz::run_spec(minimal, cfg);
  std::printf("minimal reproducing scenario (%zu of %zu events, still %s):\n",
              minimal.events.size(), spec.events.size(),
              replay.ok ? "PASSES (shrink lost the bug?)" : "failing");
  std::printf("%s", fault::fuzz::serialize(minimal).c_str());
  if (!out_path.empty()) {
    if (fault::fuzz::save(minimal, out_path)) {
      std::printf("saved to %s (replay with --replay %s)\n",
                  out_path.c_str(), out_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("scenarios", "25", "number of generated scenarios");
  flags.declare("seed", "1", "first scenario seed (batch uses seed..seed+n-1)");
  flags.declare("sites", "3", "replica sites");
  flags.declare("clients", "24", "TPC-C clients");
  flags.declare("txns", "220", "responses per scenario (0 = run full time)");
  flags.declare("max-sim-secs", "120", "simulated-time cap per scenario");
  flags.declare("max-faults", "4", "max events per generated timeline");
  flags.declare("horizon", "40", "fault windows land in [0, horizon) secs");
  flags.declare("recovery", "true", "allow crash->recover sequences");
  flags.declare("break-primary-partition", "false",
                "disable the majority rule (demo: monitors catch it)");
  flags.declare("shrink-budget", "96", "max re-runs while shrinking");
  flags.declare("replay", "", "replay a saved scenario file and exit");
  flags.declare("out", "", "write the shrunk scenario here on failure");
  flags.declare("log", "false", "protocol event logging (debugging replays)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.get_bool("log")) util::set_log_level(util::log_level::info);

  const fault::fuzz::config cfg = make_config(flags);
  const std::string replay_path = flags.get_string("replay");
  const std::string out_path = flags.get_string("out");

  if (!replay_path.empty()) {
    const auto spec = fault::fuzz::load(replay_path);
    if (!spec) {
      std::fprintf(stderr, "cannot parse scenario file %s\n",
                   replay_path.c_str());
      return 1;
    }
    std::printf("replaying %s (seed %llu, %zu events)\n", replay_path.c_str(),
                static_cast<unsigned long long>(spec->seed),
                spec->events.size());
    const auto r = fault::fuzz::run_spec(*spec, cfg);
    std::printf("%s — %llu committed, %llu responses%s%s\n",
                r.ok ? "ok" : "VIOLATION",
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.responses),
                r.ok ? "" : ": ", r.detail.c_str());
    return r.ok ? 0 : 1;
  }

  const auto n = flags.get_u64("scenarios");
  const auto first_seed = flags.get_u64("seed");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = first_seed + i;
    const auto spec = fault::fuzz::generate(seed, cfg);
    std::printf("[fuzz %llu/%llu] seed %llu: %zu events ... ",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(seed), spec.events.size());
    std::fflush(stdout);
    const auto r = fault::fuzz::run_spec(spec, cfg);
    std::printf("%s (%llu committed, %llu responses)\n",
                r.ok ? "ok" : "FAIL",
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.responses));
    if (!r.ok) return report_failure(spec, r, cfg, out_path);
  }
  std::printf("all %llu scenarios passed every invariant\n",
              static_cast<unsigned long long>(n));
  return 0;
}
