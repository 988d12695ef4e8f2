// Fault-injection campaign (§5.3): subject a replicated configuration to
// the scenarios of the named fault library — the paper's five fault types
// plus the composed/timed scenarios (partition + heal, flaky switch, slow
// replica, cascading crashes) — and verify after each run that all
// operational sites committed exactly the same sequence.
//
//   $ ./fault_injection                        # default campaign
//   $ ./fault_injection --scenario all         # every catalog scenario
//   $ ./fault_injection --scenario flaky_switch
//   $ ./fault_injection --list
//
// This reproduces the paper's use of the tool for automated dependability
// regression testing (§7: "the ability to autonomously run a set of
// realistic load and fault scenarios and automatically check for
// performance or reliability regressions has proved invaluable").
#include <cstdio>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("clients", "120", "TPC-C clients");
  flags.declare("txns", "1500", "responses per scenario");
  flags.declare("seed", "7", "random seed");
  flags.declare("scenario", "campaign",
                "scenario name, 'campaign' (default set), or 'all'");
  flags.declare("read-path", "off",
                "read-only termination: off (paper §5.1 local "
                "certification), certified (broadcast), or fast (read/ "
                "lease snapshots; prints per-site read counters)");
  flags.declare("list", "false", "list available scenarios and exit");
  if (!flags.parse(argc, argv)) return 1;

  const std::string rp = flags.get_string("read-path");
  if (rp != "off" && rp != "certified" && rp != "fast") {
    std::fprintf(stderr, "unknown --read-path '%s' (off|certified|fast)\n",
                 rp.c_str());
    return 1;
  }
  const read::mode read_mode = rp == "fast"        ? read::mode::fast
                               : rp == "certified" ? read::mode::certified
                                                   : read::mode::off;

  if (flags.get_bool("list")) {
    std::printf("Available scenarios:\n");
    for (const auto& e : fault::scenarios::catalog())
      std::printf("  %-20s %s (>=%u sites)%s\n", e.name, e.description,
                  e.min_sites, e.in_default_campaign ? "" : "  [all only]");
    return 0;
  }

  std::vector<const fault::scenarios::catalog_entry*> selected;
  const std::string sel = flags.get_string("scenario");
  if (sel == "campaign" || sel == "all") {
    for (const auto& e : fault::scenarios::catalog())
      if (sel == "all" || e.in_default_campaign) selected.push_back(&e);
  } else if (const auto* e = fault::scenarios::find(sel)) {
    selected.push_back(e);
  } else {
    std::fprintf(stderr,
                 "unknown scenario '%s' (try --list for the catalog)\n",
                 sel.c_str());
    return 1;
  }

  util::text_table t;
  t.header({"Scenario", "Sites", "Committed", "Abort %", "p99 lat (ms)",
            "Retx", "Views", "Rejoined", "Safety"});
  bool all_safe = true;
  for (const auto* e : selected) {
    fault::scenarios::params prm;
    prm.sites = std::max(3u, e->min_sites);

    core::experiment_config cfg;
    cfg.sites = prm.sites;
    cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
    cfg.target_responses = flags.get_u64("txns");
    cfg.max_sim_time = seconds(900);
    cfg.seed = flags.get_u64("seed");
    cfg.faults = e->make(prm);
    cfg.enable_recovery = cfg.faults.needs_recovery();
    cfg.replica_cfg.read.path = read_mode;
    if (e->placement_degree > 0)
      cfg.placement = {place::strategy::round_robin, e->placement_degree};
    std::fprintf(stderr, "[fault_injection] %s ...\n", e->name);
    const auto r = core::run_experiment(cfg);

    bool ok = r.safety.ok && r.checks.ok;
    if (!r.checks.ok)
      std::fprintf(stderr, "[fault_injection] %s: online monitor: %s\n",
                   e->name, r.checks.summary().c_str());
    if (cfg.enable_recovery) {
      // A rejoin scenario must end with every recovered site back in the
      // view and converged: its log within one in-flight window of the
      // longest (its prefix consistency is the safety check above).
      std::uint64_t longest = 0;
      for (const auto& s : r.sites)
        longest = std::max(longest, s.committed_log);
      if (r.rejoined_sites() == 0) ok = false;
      for (const auto& s : r.sites) {
        if (s.state == core::cluster::site_status::rejoined &&
            s.committed_log + 50 < longest)
          ok = false;  // non-convergent joiner
      }
    }
    all_safe = all_safe && ok;
    t.row({e->name, util::fmt(static_cast<std::int64_t>(cfg.sites)),
           util::fmt(r.stats.total_committed()),
           util::fmt(r.stats.abort_rate_pct(), 2),
           util::fmt(r.stats.pooled_latency_ms().quantile(0.99), 1),
           util::fmt(static_cast<std::int64_t>(r.retransmissions)),
           util::fmt(static_cast<std::int64_t>(r.view_changes)),
           util::fmt(static_cast<std::int64_t>(r.rejoined_sites())),
           !r.safety.ok || !r.checks.ok ? "VIOLATED"
                                        : (ok ? "ok" : "NO REJOIN")});
    // Per-site read-path accounting, meaningful only when the read path
    // is on (the default table stays untouched otherwise).
    if (read_mode != read::mode::off) {
      for (std::size_t i = 0; i < r.sites.size(); ++i) {
        const auto& s = r.sites[i];
        std::printf("    site %zu: %llu fast, %llu fallback, %llu RO "
                    "broadcasts, %llu lease revocations\n",
                    i, static_cast<unsigned long long>(s.fast_path_reads),
                    static_cast<unsigned long long>(s.fallback_reads),
                    static_cast<unsigned long long>(s.ro_broadcasts),
                    static_cast<unsigned long long>(s.lease_revocations));
      }
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%s\n", all_safe
                            ? "All operational sites committed identical "
                              "sequences under every fault scenario."
                            : "SAFETY VIOLATION DETECTED — see above.");
  return all_safe ? 0 : 1;
}
