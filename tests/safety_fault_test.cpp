// The paper's §5.3 safety property as a parameterized test: under every
// fault scenario (clock drift, scheduling latency, random loss, bursty
// loss, crash, combinations — and timed scenarios: partitions with
// healing, transient loss windows), all operational sites commit exactly
// the same sequence of transactions.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/safety.hpp"
#include "fault/fault_types.hpp"
#include "fault/scenarios.hpp"

namespace dbsm::core {
namespace {

struct fault_case {
  const char* name;
  fault::scenario scenario;
  unsigned sites;
  unsigned clients;
  /// Run with membership recovery; expect this many rejoined sites.
  unsigned expect_rejoined = 0;
  /// Nonzero: run for this much simulated time instead of a response
  /// target (recovery cases must outlive their last rejoin).
  sim_duration run_for = 0;
};

fault_case make_case(const char* name, fault::scenario s, unsigned sites = 3,
                     unsigned clients = 30, unsigned expect_rejoined = 0,
                     sim_duration run_for = 0) {
  return fault_case{name, std::move(s), sites, clients, expect_rejoined,
                    run_for};
}

std::vector<fault_case> all_cases() {
  std::vector<fault_case> cases;
  cases.push_back(make_case("no_faults", {}));
  cases.push_back(make_case("random_loss_5", fault::scenarios::random_loss()));
  {
    fault::scenario s("random_loss_15");
    s.add(fault::loss_fault::random(0.15));
    cases.push_back(make_case("random_loss_15", std::move(s)));
  }
  cases.push_back(make_case("bursty_loss_5", fault::scenarios::bursty_loss()));
  cases.push_back(
      make_case("clock_drift_10pct", fault::scenarios::clock_drift()));
  cases.push_back(
      make_case("sched_latency_5ms", fault::scenarios::sched_latency()));
  {
    fault::scenarios::params prm;
    prm.sites = 3;
    prm.onset = seconds(20);
    cases.push_back(
        make_case("crash_one_site", fault::scenarios::crash(prm)));
  }
  {
    fault::scenario s("crash_under_loss");
    s.add(fault::loss_fault::random(0.05));
    s.add(fault::crash_fault(fault::site_set{1}), seconds(20));
    cases.push_back(make_case("crash_under_loss", std::move(s), 4, 40));
  }
  {
    fault::scenario s("drift_plus_latency");
    s.add(fault::clock_drift_fault(0.05, fault::site_selector::odd()));
    s.add(fault::sched_latency_fault(milliseconds(2),
                                     fault::site_selector::all()));
    cases.push_back(make_case("drift_plus_latency", std::move(s)));
  }
  // --- timed/composed scenarios ---
  {
    // Site 2 is cut off well past the suspicion timeout, then the
    // partition heals: the majority excludes it and keeps committing; the
    // minority must stall (primary partition) rather than split-brain.
    fault::scenario s("partition_then_heal");
    s.add(fault::partition_fault::two_way(fault::site_set{2}),
          seconds(10), seconds(14));
    cases.push_back(make_case("partition_then_heal", std::move(s)));
  }
  {
    // The cut heals before the suspicion timeout fires: a purely
    // transient partition the reliability layer rides out with NAKs.
    fault::scenario s("partition_blip");
    s.add(fault::partition_fault::two_way(fault::site_set{2}),
          seconds(10), seconds(10) + milliseconds(150));
    cases.push_back(make_case("partition_blip", std::move(s)));
  }
  {
    // Heavy loss confined to a window: clean before and after.
    fault::scenario s("transient_loss_window");
    s.add(fault::loss_fault::random(0.30), seconds(5), seconds(15));
    cases.push_back(make_case("transient_loss_window", std::move(s)));
  }
  {
    // Overlapping windows: a loss burst over a sustained slow replica.
    fault::scenario s("slow_replica_plus_loss_burst");
    s.add(fault::sched_latency_fault(milliseconds(10),
                                     fault::site_selector{fault::site_set{2}}));
    s.add(fault::loss_fault::random(0.20), seconds(8), seconds(12));
    cases.push_back(
        make_case("slow_replica_plus_loss_burst", std::move(s)));
  }
  // --- recovery scenarios: full cut/heal/rejoin cycles. The §5.3 check
  // --- runs over every rejoined site's complete (transferred prefix +
  // --- replay + live) committed sequence.
  {
    fault::scenarios::params prm;
    prm.sites = 3;
    prm.onset = seconds(8);
    cases.push_back(make_case("partition_cut_heal_rejoin",
                              fault::scenarios::partition_cut_heal_rejoin(prm),
                              3, 30, /*expect_rejoined=*/1, seconds(30)));
    cases.push_back(make_case("crash_restart",
                              fault::scenarios::crash_restart(prm), 3, 30,
                              /*expect_rejoined=*/1, seconds(30)));
    cases.push_back(make_case("rolling_restarts",
                              fault::scenarios::rolling_restarts(prm), 3, 30,
                              /*expect_rejoined=*/3, seconds(70)));
  }
  return cases;
}

class safety_under_faults : public ::testing::TestWithParam<fault_case> {};

TEST_P(safety_under_faults, operational_sites_agree) {
  const fault_case& fc = GetParam();
  experiment_config cfg;
  cfg.sites = fc.sites;
  cfg.cpus_per_site = 1;
  cfg.clients = fc.clients;
  cfg.target_responses = fc.run_for != 0 ? 0 : 250;
  cfg.max_sim_time = fc.run_for != 0 ? fc.run_for : seconds(400);
  cfg.seed = 1234;
  cfg.faults = fc.scenario;
  cfg.enable_recovery = fc.expect_rejoined > 0;

  const auto result = run_experiment(cfg);

  // Safety: identical committed sequences (§5.3).
  EXPECT_TRUE(result.safety.ok) << fc.name << ": " << result.safety.detail;
  // The online invariant monitors must stay silent across the catalog.
  EXPECT_TRUE(result.checks.ok) << fc.name << ": " << result.checks.summary();
  // Liveness: the system made progress despite the faults.
  EXPECT_GT(result.stats.total_committed(), 50u) << fc.name;
  EXPECT_GT(result.safety.common_prefix, 10u) << fc.name;
  // Recovery: every site the scenario brings back must be in again.
  EXPECT_EQ(result.rejoined_sites(), fc.expect_rejoined) << fc.name;
}

INSTANTIATE_TEST_SUITE_P(
    fault_types, safety_under_faults, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<fault_case>& info) {
      return info.param.name;
    });

/// One checker input per log: every site operational, reporting exactly
/// the commits its log holds. The inputs read `logs` in place, so the
/// caller keeps it alive through the check.
std::vector<site_log_input> operational_sites(
    const std::vector<std::vector<std::uint64_t>>& logs) {
  std::vector<site_log_input> sites;
  for (const auto& log : logs) {
    site_log_input s;
    s.log = log;
    s.reported_committed = log.size();
    sites.push_back(s);
  }
  return sites;
}

TEST(safety_checker, detects_divergence) {
  const auto report =
      check_commit_logs(operational_sites({{1, 2, 3}, {1, 2, 4}}));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.common_prefix, 2u);
}

TEST(safety_checker, accepts_prefix_lag) {
  const auto report =
      check_commit_logs(operational_sites({{1, 2, 3}, {1, 2}, {1, 2, 3}}));
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.common_prefix, 2u);
}

TEST(safety_checker, crashed_site_lags_freely_and_its_orphans_are_counted) {
  const std::vector<std::vector<std::uint64_t>> logs{
      {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 9, 8}};
  auto sites = operational_sites(logs);
  sites[2].state = site_log_input::kind::crashed;
  const auto report = check_commit_logs(sites);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.orphaned, 2u);  // 9 and 8, past the agreement at 2
  EXPECT_EQ(report.common_prefix, 4u);  // the crashed site is not counted
  EXPECT_EQ(report.first_mismatch_site, -1);

  // A crashed site that merely lags holds no orphan.
  const std::vector<std::uint64_t> lagging{1};
  sites[2].log = lagging;
  sites[2].reported_committed = 1;
  EXPECT_EQ(check_commit_logs(sites).orphaned, 0u);
}

TEST(safety_checker, reported_count_must_match_the_log) {
  const std::vector<std::vector<std::uint64_t>> logs{{1, 2, 3}, {1, 2, 3}};
  auto sites = operational_sites(logs);
  sites[1].reported_committed = 4;
  const auto report = check_commit_logs(sites);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_mismatch_site, 1);
}

TEST(safety_checker, rejoined_site_must_converge_within_the_lag_bound) {
  std::vector<std::uint64_t> full(60);
  for (std::size_t i = 0; i < full.size(); ++i) full[i] = i + 1;
  std::vector<std::vector<std::uint64_t>> logs{
      full, full, {full.begin(), full.begin() + 20}};
  auto sites = operational_sites(logs);
  sites[2].state = site_log_input::kind::rejoined;
  const auto far = check_commit_logs(sites, /*rejoin_max_lag=*/30);
  EXPECT_FALSE(far.ok);
  EXPECT_EQ(far.first_mismatch_site, 2);
  EXPECT_TRUE(check_commit_logs(sites, /*rejoin_max_lag=*/40).ok);

  // A rejoined site is live: it must agree position-wise.
  logs[2][5] = 999;
  const auto diverged = check_commit_logs(sites, 40);
  EXPECT_FALSE(diverged.ok);
  EXPECT_EQ(diverged.first_mismatch_site, 2);
  EXPECT_EQ(diverged.common_prefix, 5u);
}

TEST(safety_fault, loss_increases_abort_rate) {
  // Table 2's direction: random loss raises abort rates noticeably more
  // than bursty loss of the same average rate.
  experiment_config base;
  base.sites = 3;
  base.clients = 60;
  base.target_responses = 1000;
  base.max_sim_time = seconds(600);
  base.seed = 5;

  auto none = run_experiment(base);

  auto random_cfg = base;
  random_cfg.faults = fault::scenarios::random_loss();
  auto random = run_experiment(random_cfg);

  EXPECT_TRUE(none.safety.ok);
  EXPECT_TRUE(random.safety.ok);
  EXPECT_GE(random.stats.abort_rate_pct(),
            none.stats.abort_rate_pct());
  // Loss engages retransmission machinery.
  EXPECT_GT(random.retransmissions, none.retransmissions);
}

TEST(safety_fault, excluding_partition_changes_view_and_stays_safe) {
  // The partition that outlives the suspicion timeout must produce a view
  // change on the majority side, and the healed minority must not have
  // committed anything beyond the common prefix.
  experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 30;
  cfg.target_responses = 250;
  cfg.max_sim_time = seconds(400);
  cfg.seed = 99;
  fault::scenario s("partition_then_heal");
  s.add(fault::partition_fault::two_way(fault::site_set{2}),
        seconds(10), seconds(14));
  cfg.faults = s;

  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.safety.ok) << result.safety.detail;
  EXPECT_TRUE(result.checks.ok) << result.checks.summary();
  EXPECT_GE(result.view_changes, 1u);
  EXPECT_GT(result.stats.total_committed(), 50u);
}

}  // namespace
}  // namespace dbsm::core
