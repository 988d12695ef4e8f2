// Unit tests for the online invariant monitors (check/monitors.hpp): the
// checker is fed a synthetic event stream directly, so each invariant's
// accept/reject boundary is pinned down without running a simulation.
// One sweep runs the fault catalog at a window every scenario overflows,
// so the certification oracle settles and compacts under real timelines.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog_run.hpp"
#include "check/check.hpp"
#include "check/monitors.hpp"
#include "db/transaction.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

namespace dbsm::check {
namespace {

cert::txn_payload make_txn(std::uint64_t id, std::uint64_t begin_pos = 0,
                           std::vector<db::item_id> reads = {},
                           std::vector<db::item_id> writes = {}) {
  cert::txn_payload t;
  t.id = id;
  t.begin_pos = begin_pos;
  t.read_set = std::move(reads);
  t.write_set = std::move(writes);
  return t;
}

decision_event commit_at(unsigned site, std::uint64_t seq,
                         const cert::txn_payload& txn, std::uint64_t log_len,
                         sim_time at = 0, bool commit = true) {
  return decision_event{site, seq, &txn, commit, log_len, at};
}

view_event install(unsigned site, std::uint32_t id,
                   std::vector<node_id> members, std::uint64_t delivered,
                   sim_time at = 0) {
  view_event e;
  e.site = site;
  e.v.id = id;
  e.v.members = std::move(members);
  e.delivered = delivered;
  e.at = at;
  return e;
}

config no_halt() {
  config c;
  c.halt_on_violation = false;
  return c;
}

// ---------- (1) agreed prefix ----------

TEST(agreed_prefix, prefix_agreement_and_divergence) {
  checker c(no_halt());
  c.add(std::make_unique<agreed_prefix_monitor>());
  const auto a = make_txn(101), b = make_txn(202);
  c.decision(commit_at(0, 1, a, 1));
  c.decision(commit_at(1, 1, a, 1));  // second site agrees on position 0
  EXPECT_TRUE(c.ok());
  c.decision(commit_at(2, 1, b, 1));  // same position, different txn
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "agreed_prefix");
  EXPECT_EQ(c.get_report().violations[0].site, 2u);
  EXPECT_EQ(c.get_report().decisions_checked, 3u);
}

TEST(agreed_prefix, aborts_never_enter_the_order) {
  checker c(no_halt());
  c.add(std::make_unique<agreed_prefix_monitor>());
  const auto a = make_txn(1), b = make_txn(2);
  c.decision(commit_at(0, 1, a, 0, 0, /*commit=*/false));
  // The abort consumed a total-order position but no commit-log slot:
  // position 0 of the log is still up for grabs.
  c.decision(commit_at(1, 2, b, 1));
  c.decision(commit_at(0, 2, b, 1));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

TEST(agreed_prefix, commit_log_gaps_are_flagged) {
  checker c(no_halt());
  c.add(std::make_unique<agreed_prefix_monitor>());
  const auto a = make_txn(1);
  // First commit anywhere lands at log length 2: position 0 was skipped.
  c.decision(commit_at(0, 1, a, 2));
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.get_report().violations[0].evidence.find("jumped"),
            std::string::npos);
}

TEST(agreed_prefix, orphan_branch_rolled_back_at_view_install) {
  checker c(no_halt());
  c.add(std::make_unique<agreed_prefix_monitor>());
  const auto orphan = make_txn(11), agreed = make_txn(22), next = make_txn(33);
  // Site 0 — a partitioned-off sequencer — self-delivers its own txn
  // (non-uniform delivery) at position 0.
  c.decision(commit_at(0, 1, orphan, 1));
  // The survivors {1, 2} install view 2 before committing anything: the
  // cut is 0 and everything past it held only by site 0 is rolled back.
  c.view_installed(install(1, 2, {1, 2}, 1));
  c.view_installed(install(2, 2, {1, 2}, 1));
  // The new primary partition redefines position 0 — no divergence.
  c.decision(commit_at(1, 2, agreed, 1));
  c.decision(commit_at(2, 2, agreed, 1));
  // The excluded site extending its dead branch is skipped by this
  // monitor (the primary_partition fence polices it instead).
  c.decision(commit_at(0, 2, next, 2));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

TEST(agreed_prefix, state_transfer_checked_against_agreed_order) {
  checker c(no_halt());
  c.add(std::make_unique<agreed_prefix_monitor>());
  const auto a = make_txn(1), b = make_txn(2);
  c.decision(commit_at(0, 1, a, 1));
  c.decision(commit_at(0, 2, b, 2));
  const std::vector<std::uint64_t> good{1, 2};
  c.log_reset({1, &good, 0});
  EXPECT_TRUE(c.ok());
  const std::vector<std::uint64_t> diverged{1, 7};
  c.log_reset({2, &diverged, 0});
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  const std::vector<std::uint64_t> too_long{1, 2, 3};
  c.log_reset({2, &too_long, 0});
  EXPECT_EQ(c.get_report().violations.size(), 2u);
  EXPECT_EQ(c.get_report().log_resets_checked, 3u);
}

// ---------- (2) view synchrony ----------

TEST(view_synchrony, members_must_match_across_sites) {
  checker c(no_halt());
  c.add(std::make_unique<view_synchrony_monitor>(3));
  c.view_installed(install(0, 2, {0, 1}, 5));
  c.view_installed(install(1, 2, {0, 1}, 5));
  EXPECT_TRUE(c.ok());
  c.view_installed(install(2, 3, {0, 1, 2}, 9));
  c.view_installed(install(0, 3, {0, 2}, 9));  // disagrees on membership
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "view_synchrony");
  EXPECT_EQ(c.get_report().views_checked, 4u);
}

TEST(view_synchrony, delivery_cut_must_match_and_ids_increase) {
  checker c(no_halt());
  c.add(std::make_unique<view_synchrony_monitor>(2));
  c.view_installed(install(0, 2, {0, 1}, 5));
  c.view_installed(install(1, 2, {0, 1}, 7));  // same view, different cut
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  EXPECT_NE(c.get_report().violations[0].evidence.find("cut"),
            std::string::npos);
  c.view_installed(install(0, 2, {0, 1}, 5));  // id did not increase
  EXPECT_EQ(c.get_report().violations.size(), 2u);
}

// ---------- (3) primary partition ----------

TEST(primary_partition, minority_view_violates_the_chain_rule) {
  checker c(no_halt());
  c.add(std::make_unique<primary_partition_monitor>(3));
  c.view_installed(install(0, 2, {0, 1}, 4));  // 2 of 3 survive: majority
  EXPECT_TRUE(c.ok());
  c.view_installed(install(2, 2, {2}, 4));  // 1 of 3: split brain
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "primary_partition");
  EXPECT_NE(c.get_report().violations[0].evidence.find("strict majority"),
            std::string::npos);
}

TEST(primary_partition, chain_rule_is_relative_to_the_previous_view) {
  checker c(no_halt());
  c.add(std::make_unique<primary_partition_monitor>(4));
  // {0,1,2,3} -> {0,1,2} -> {0,1}: each step keeps a strict majority of
  // the one before, even though {0,1} is a minority of the original four.
  c.view_installed(install(0, 2, {0, 1, 2}, 4));
  c.view_installed(install(0, 3, {0, 1}, 9));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

TEST(primary_partition, exclusion_fence_fires_only_after_discovery) {
  checker c(no_halt());
  c.add(std::make_unique<primary_partition_monitor>(3));
  const auto t = make_txn(5), u = make_txn(6);
  // Before the site learns of its exclusion it may still be riding the
  // group's in-flight stream on a slow link: no violation.
  c.decision(commit_at(2, 1, t, 1, milliseconds(10)));
  c.excluded({2, milliseconds(20)});
  EXPECT_TRUE(c.ok());
  c.decision(commit_at(2, 2, u, 2, milliseconds(30)));
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.get_report().violations[0].evidence.find("after learning"),
            std::string::npos);
}

// ---------- (4) 1SR certification oracle ----------

TEST(cert_oracle, flags_a_decision_the_reference_rejects) {
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(3, cert::cert_config{}));
  const auto w1 = make_txn(1, /*begin_pos=*/0, {}, {10});
  c.decision(commit_at(0, 1, w1, 1));
  c.decision(commit_at(1, 1, w1, 1));  // a second site agreeing is fine
  EXPECT_TRUE(c.ok());
  // w2's snapshot predates w1's committed write of item 10: the merge
  // scan says abort, so a site claiming commit is a 1SR violation.
  const auto w2 = make_txn(2, /*begin_pos=*/0, {}, {10});
  c.decision(commit_at(0, 2, w2, 2, 0, /*commit=*/true));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "cert_oracle");
  EXPECT_NE(c.get_report().violations[0].evidence.find("abort"),
            std::string::npos);
}

TEST(cert_oracle, flags_diverging_transaction_identity) {
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(3, cert::cert_config{}));
  const auto a = make_txn(1), b = make_txn(9);
  c.decision(commit_at(0, 1, a, 1));
  c.decision(commit_at(1, 1, b, 1));  // position 1 must hold txn 1 everywhere
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.get_report().violations[0].evidence.find("first decider"),
            std::string::npos);
}

TEST(cert_oracle, orphan_rollback_rebuilds_the_oracle) {
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(3, cert::cert_config{}));
  // Site 0's orphan branch commits a write of item 10 at position 1.
  const auto orphan = make_txn(11, 0, {}, {10});
  c.decision(commit_at(0, 1, orphan, 1));
  // Survivors install view 2 at cut 0: the orphan verdict is rolled back
  // and its write set leaves the oracle's history.
  c.view_installed(install(1, 2, {1, 2}, 0));
  // The survivors' own first txn also writes item 10 from snapshot 0. If
  // the orphan's write still polluted the history this would have to
  // abort; rebuilt, the oracle says commit.
  const auto fresh = make_txn(22, 0, {}, {10});
  c.decision(commit_at(1, 1, fresh, 1, 0, /*commit=*/true));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

TEST(cert_oracle, orphan_rollback_restores_the_write_sets_it_evicted) {
  cert::cert_config cfg;
  cfg.history_window = 2;
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(3, cfg));
  // Every site commits writes of items 10 and 20 at positions 1 and 2.
  const auto w1 = make_txn(1, 0, {}, {10}), w2 = make_txn(2, 1, {}, {20});
  for (unsigned site = 0; site < 3; ++site) {
    c.decision(commit_at(site, 1, w1, 1));
    c.decision(commit_at(site, 2, w2, 2));
  }
  // Site 0's orphan branch commits positions 3 and 4, which push both out
  // of the oracle's two-commit window.
  const auto o3 = make_txn(3, 2, {}, {30}), o4 = make_txn(4, 3, {}, {40});
  c.decision(commit_at(0, 3, o3, 3));
  c.decision(commit_at(0, 4, o4, 4));
  // Survivors install view 2 at cut 2: positions 3 and 4 roll back and
  // positions 1 and 2 are the window again.
  c.view_installed(install(1, 2, {1, 2}, 2));
  // Snapshot 1 is inside the window again, so a write of a fresh item
  // commits (with the window left at positions 3-4 it would abort as
  // predating the window) ...
  const auto s3 = make_txn(33, 1, {}, {50});
  c.decision(commit_at(1, 3, s3, 3, 0, /*commit=*/true));
  // ... a write of item 20 conflicts with position 2's write ...
  const auto s4 = make_txn(44, 1, {}, {20});
  c.decision(commit_at(1, 4, s4, 3, 0, /*commit=*/false));
  // ... and position 3's commit evicted position 1, so snapshot 0
  // predates the window.
  const auto s5 = make_txn(55, 0, {}, {60});
  c.decision(commit_at(1, 5, s5, 3, 0, /*commit=*/false));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

TEST(cert_oracle, rollback_into_the_settled_prefix_is_a_violation) {
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(3, cert::cert_config{}));
  const auto a = make_txn(1), b = make_txn(2, 1);
  for (unsigned site = 0; site < 3; ++site)
    c.decision(commit_at(site, 1, a, 1));
  // View 2 excludes site 2; both members decide position 2, settling it.
  c.view_installed(install(0, 2, {0, 1}, 1));
  c.decision(commit_at(0, 2, b, 2));
  c.decision(commit_at(1, 2, b, 2));
  EXPECT_TRUE(c.ok());
  // A view keeping no member of view 2 (the chain rule broken) would roll
  // position 2 back: a violation, raised instead of a crash.
  c.view_installed(install(2, 3, {2}, 1));
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  const violation& v = c.get_report().violations[0];
  EXPECT_EQ(v.invariant, "cert_oracle");
  EXPECT_NE(v.evidence.find("view 3"), std::string::npos) << v.evidence;
  EXPECT_NE(v.evidence.find("position 2"), std::string::npos) << v.evidence;
}

TEST(cert_oracle, stored_write_sets_stay_within_the_window) {
  // Fed 20 windows of commits. When every site decides each position
  // before the next one arrives, at most one position is unsettled. The
  // oracle keeps the window and the entry before it in front of that
  // position (window + 2 write sets in all) and compacts once the
  // erasable prefix is as long as the rest: at most 2 × (window + 2).
  // With site 2 silent nothing settles and every write set stays.
  constexpr std::size_t window = 8;
  constexpr std::uint64_t positions = 20 * window;
  cert::cert_config cfg;
  cfg.history_window = window;
  for (const unsigned deciding : {3u, 2u}) {
    checker c(no_halt());
    auto owned = std::make_unique<cert_oracle_monitor>(3, cfg);
    const cert_oracle_monitor& m = *owned;
    c.add(std::move(owned));
    std::size_t peak = 0;
    for (std::uint64_t n = 1; n <= positions; ++n) {
      const auto t = make_txn(n, n - 1, {}, {2 * n});
      for (unsigned site = 0; site < deciding; ++site)
        c.decision(commit_at(site, n, t, n));
      peak = std::max(peak, m.oracle_stored_size());
    }
    EXPECT_TRUE(c.ok()) << c.get_report().summary();
    if (deciding == 3) {
      EXPECT_LE(peak, 2 * (window + 2));
    } else {
      EXPECT_EQ(peak, positions);
    }
  }
}

TEST(cert_oracle, forgets_write_sets_below_the_settled_low_water) {
  // Origins take turns at the default window, which never slides here.
  // Each snapshot trails its position by up to 4 and each low water is 6
  // behind the position, so 2-6 behind the snapshot and below every later
  // snapshot of its origin. Every site decides each position with the
  // verdict of a reference certifier that never forgets, and writes
  // collide often enough to abort. With all three origins broadcasting,
  // the bound trails the position by about 8 and the oracle stores a
  // constant number of write sets however long the run; with origin 2
  // silent, the bound stays 0 and every write set stays, as without low
  // waters.
  constexpr std::uint64_t positions = 3000;
  for (const unsigned origins : {3u, 2u}) {
    checker c(no_halt());
    auto owned = std::make_unique<cert_oracle_monitor>(3, cert::cert_config{});
    const cert_oracle_monitor& m = *owned;
    c.add(std::move(owned));
    cert::reference_certifier expected;
    util::rng g(origins);
    std::size_t peak = 0;
    for (std::uint64_t n = 1; n <= positions; ++n) {
      const auto origin = static_cast<node_id>(n % origins);
      const auto lag = static_cast<std::uint64_t>(g.uniform_int(0, 4));
      auto t = make_txn(db::make_txn_id(origin, n),
                        n - 1 - std::min(n - 1, lag), {},
                        {2 * static_cast<db::item_id>(n % 4)});
      t.origin = origin;
      t.low_water = n - 1 - std::min<std::uint64_t>(n - 1, 6);
      const bool commit =
          expected.certify_update(t.begin_pos, t.read_set, t.write_set);
      for (unsigned site = 0; site < 3; ++site)
        c.decision(commit_at(site, n, t, n, 0, commit));
      peak = std::max(peak, m.oracle_stored_size());
    }
    EXPECT_TRUE(c.ok()) << c.get_report().summary();
    EXPECT_GT(expected.aborts(), 0u);
    if (origins == 3) {
      EXPECT_LE(peak, 32u);
    } else {
      EXPECT_EQ(m.oracle_stored_size(), expected.commits());
    }
  }
}

TEST(cert_oracle, a_broken_low_water_promise_is_a_violation) {
  checker c(no_halt());
  c.add(std::make_unique<cert_oracle_monitor>(2, cert::cert_config{}));
  // Sites 0 and 1 each settle a payload with low water 5: the bound is 5.
  for (std::uint64_t n = 1; n <= 8; ++n) {
    const auto origin = static_cast<node_id>(n % 2);
    auto t = make_txn(db::make_txn_id(origin, n), n - 1, {}, {2 * n});
    t.origin = origin;
    t.low_water = n < 7 ? 0 : 5;
    for (unsigned site = 0; site < 2; ++site)
      c.decision(commit_at(site, n, t, n));
  }
  ASSERT_TRUE(c.ok()) << c.get_report().summary();
  // Site 1's next payload has snapshot 4, below the bound: a violation
  // naming the transaction, its snapshot, its origin and the bound.
  const std::uint64_t below = db::make_txn_id(1, 9);
  auto t = make_txn(below, 4, {}, {40});
  t.origin = 1;
  t.low_water = 4;
  c.decision(commit_at(1, 9, t, 9, seconds(3)));
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  const violation& v = c.get_report().violations[0];
  EXPECT_EQ(v.invariant, "cert_oracle");
  EXPECT_EQ(v.site, 1u);
  EXPECT_EQ(v.at, seconds(3));
  for (const std::string& evidence :
       {"txn " + std::to_string(below), std::string("from site 1"),
        std::string("snapshot 4"), std::string("bound 5")})
    EXPECT_NE(v.evidence.find(evidence), std::string::npos) << v.evidence;
  // The position was left uncertified: a snapshot at the bound fills it.
  // Its low water, 3, is below site 1's settled 5: a violation once both
  // sites decide it.
  const std::uint64_t falls = db::make_txn_id(1, 10);
  auto u = make_txn(falls, 5, {}, {50});
  u.origin = 1;
  u.low_water = 3;
  c.decision(commit_at(0, 9, u, 9));
  EXPECT_EQ(c.get_report().violations.size(), 1u);
  c.decision(commit_at(1, 9, u, 9, seconds(4)));
  ASSERT_EQ(c.get_report().violations.size(), 2u);
  const violation& w = c.get_report().violations[1];
  EXPECT_EQ(w.invariant, "cert_oracle");
  EXPECT_EQ(w.at, seconds(4));
  for (const std::string& evidence :
       {"txn " + std::to_string(falls), std::string("position 9"),
        std::string("site 1's settled low water from 5 to 3")})
    EXPECT_NE(w.evidence.find(evidence), std::string::npos) << w.evidence;
}

TEST(cert_oracle, fault_catalog_is_clean_at_an_evicting_window) {
  // A YCSB-A base, as in ordering_test: on the TPC-C default,
  // batch_boundary_crash trips an open agreed_prefix bug at any window
  // (ROADMAP item 1).
  core::experiment_config base;
  base.clients = 45;
  base.seed = 7;
  base.replica_cfg.cert.history_window = 64;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;
  k.think_time = util::exponential_dist(0.5);
  base.workload = kv::factory(k);
  test::for_each_catalog_run(base, [](const auto& e, const auto& r) {
    EXPECT_TRUE(r.checks.ok) << e.name << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << e.name << ": " << r.safety.detail;
    EXPECT_GT(r.stats.total_committed(), 64u) << e.name;
  });
}

// ---------- (5) recovery convergence ----------

TEST(recovery_convergence, bounded_lag_and_wedged_recoveries) {
  config cfg = no_halt();
  cfg.rejoin_max_lag = 2;
  cfg.rejoin_deadline = seconds(5);
  checker c(cfg);
  c.add(std::make_unique<recovery_convergence_monitor>(cfg));
  const auto t = make_txn(1);
  c.decision(commit_at(0, 10, t, 10));  // longest log seen anywhere: 10
  c.recovery_started({1, seconds(1)});
  c.rejoined({1, 9, seconds(2)});  // lag 1 <= bound 2
  EXPECT_TRUE(c.ok());
  c.recovery_started({2, seconds(1)});
  c.rejoined({2, 5, seconds(3)});  // lag 5 > bound 2
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  EXPECT_EQ(c.get_report().violations[0].invariant, "recovery_convergence");
  // A recovery still pending long past the deadline has wedged.
  c.recovery_started({0, seconds(1)});
  c.run_end(seconds(10));
  EXPECT_EQ(c.get_report().violations.size(), 2u);
  EXPECT_NE(c.get_report().violations[1].evidence.find("never produced"),
            std::string::npos);
  EXPECT_EQ(c.get_report().rejoins_checked, 2u);
}

TEST(recovery_convergence, run_end_spares_recoveries_inside_the_deadline) {
  config cfg = no_halt();
  cfg.rejoin_deadline = seconds(5);
  checker c(cfg);
  c.add(std::make_unique<recovery_convergence_monitor>(cfg));
  c.recovery_started({1, seconds(8)});
  c.run_end(seconds(10));  // only 2 s in flight: cut short, not wedged
  EXPECT_TRUE(c.ok());
}

// ---------- (7) read-snapshot 1SR ----------

/// Monitor 1 and the read-snapshot monitor reading its agreed order,
/// registered in the standard suite's order.
void add_read_snapshot(checker& c) {
  auto order = std::make_unique<agreed_prefix_monitor>();
  const agreed_prefix_monitor& agreed = *order;
  c.add(std::move(order));
  c.add(std::make_unique<read_snapshot_monitor>(agreed));
}

read_event fast_read(unsigned site, std::uint64_t log_len,
                     std::uint64_t last_commit_id, sim_time at = 0) {
  return read_event{site, true, 1, log_len, last_commit_id, at};
}

TEST(read_snapshot, claim_past_the_agreed_order_is_flagged) {
  checker c(no_halt());
  add_read_snapshot(c);
  const auto a = make_txn(1);
  c.decision(commit_at(0, 1, a, 1));
  c.read(fast_read(0, 1, 1));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
  // A two-commit prefix nobody committed.
  c.read(fast_read(1, 2, 9));
  ASSERT_EQ(c.get_report().violations.size(), 1u);
  EXPECT_EQ(c.get_report().violations[0].invariant, "read_snapshot");
  EXPECT_NE(c.get_report().violations[0].evidence.find(
                "not (or no longer) part of the agreed order (length 1)"),
            std::string::npos);
  // The right length, the wrong last transaction.
  c.read(fast_read(2, 1, 7));
  ASSERT_EQ(c.get_report().violations.size(), 2u);
  EXPECT_NE(c.get_report().violations[1].evidence.find("ending in txn 7"),
            std::string::npos);
  EXPECT_EQ(c.get_report().reads_checked, 3u);
}

TEST(read_snapshot, orphan_branch_claim_flagged_at_the_rolling_back_install) {
  // The standard suite: its registration order is what lets the
  // revalidation see monitor 1's rollback at the same install.
  auto c = checker::standard(no_halt(), 3, cert::cert_config{});
  const auto orphan = make_txn(11);
  // Site 0 — a partitioned-off sequencer — self-delivers its own txn and
  // serves a fast read of that one-commit prefix. Nothing contradicts it
  // yet.
  c->decision(commit_at(0, 1, orphan, 1));
  c->read(fast_read(0, 1, 11, seconds(1)));
  EXPECT_TRUE(c->ok()) << c->get_report().summary();
  // The survivors install view 2 at cut 0: the orphan branch is rolled
  // back, and the claim with it.
  c->view_installed(install(1, 2, {1, 2}, 0, seconds(2)));
  ASSERT_FALSE(c->ok());
  const violation& v = c->get_report().violations[0];
  EXPECT_EQ(v.invariant, "read_snapshot");
  EXPECT_EQ(v.site, 0u);
  EXPECT_EQ(v.at, seconds(1));  // blamed on the read, not the install
  EXPECT_EQ(c->get_report().violations.size(), 1u);
}

TEST(read_snapshot, a_site_may_not_serve_a_shorter_snapshot) {
  checker c(no_halt());
  add_read_snapshot(c);
  const auto a = make_txn(1), b = make_txn(2);
  c.decision(commit_at(0, 1, a, 1));
  c.decision(commit_at(0, 2, b, 2));
  c.read(fast_read(0, 2, 2));
  // Monotonicity is per site: another site may still serve the shorter
  // prefix.
  c.read(fast_read(1, 1, 1));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
  c.read(fast_read(0, 1, 1));
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.get_report().violations[0].evidence.find("back in time"),
            std::string::npos);
  EXPECT_EQ(c.get_report().violations[0].site, 0u);
}

TEST(read_snapshot, fallback_reads_claim_nothing) {
  checker c(no_halt());
  add_read_snapshot(c);
  const auto a = make_txn(1);
  c.decision(commit_at(0, 1, a, 1));
  c.read(fast_read(0, 1, 1));
  // A fallback certifies through the total order: its fields are not a
  // snapshot claim, even when they would fail one, and it does not count
  // against the site's monotonicity.
  c.read(read_event{0, false, 0, 0, 0, 0});
  c.read(read_event{0, false, 0, 5, 99, 0});
  c.view_installed(install(0, 2, {0, 1, 2}, 1));
  c.run_end(seconds(1));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
  EXPECT_EQ(c.get_report().reads_checked, 3u);
}

TEST(read_snapshot, rollback_starts_at_the_transferred_log_end) {
  checker c(no_halt());
  add_read_snapshot(c);
  const auto a = make_txn(1), b = make_txn(2);
  // All three sites commit position 1; site 0 alone commits position 2
  // and serves a fast read of that two-commit prefix.
  for (unsigned site = 0; site < 3; ++site)
    c.decision(commit_at(site, 1, a, 1));
  c.decision(commit_at(0, 2, b, 2));
  c.read(fast_read(0, 2, 2));
  // Site 1's log is replaced by a transferred log holding both commits,
  // and site 1 is the first to install view {1, 2}. Its commit-log cut is
  // the transferred log's end, so position 2 is not rolled back and the
  // claim stands.
  const std::vector<std::uint64_t> transferred{1, 2};
  c.log_reset({1, &transferred, 0});
  c.view_installed(install(1, 2, {1, 2}, 2));
  c.run_end(seconds(1));
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
}

// ---------- the checker itself ----------

TEST(checker_core, halt_hook_fires_once_and_summary_reports_first) {
  config cfg;  // halt_on_violation = true (default)
  checker c(cfg);
  c.add(std::make_unique<view_synchrony_monitor>(2));
  int halts = 0;
  c.set_halt([&] { ++halts; });
  EXPECT_EQ(c.get_report().summary().substr(0, 2), "ok");
  c.view_installed(install(0, 2, {0, 1}, 5));
  c.view_installed(install(1, 2, {0, 1}, 9));
  EXPECT_EQ(halts, 1);
  EXPECT_FALSE(c.ok());
  // Once halted the checker ignores further events (the simulation is
  // being torn down; the offending event must stay on top).
  c.view_installed(install(1, 2, {0, 1}, 9));
  EXPECT_EQ(c.get_report().violations.size(), 1u);
  EXPECT_NE(c.get_report().summary().find("view_synchrony"),
            std::string::npos);
}

TEST(checker_core, standard_suite_carries_all_five_monitors) {
  auto c = checker::standard(no_halt(), 3, cert::cert_config{});
  const auto a = make_txn(1);
  c->decision(commit_at(0, 1, a, 1));
  c->view_installed(install(0, 2, {0, 1}, 1));
  EXPECT_TRUE(c->ok());
  EXPECT_EQ(c->get_report().decisions_checked, 1u);
  EXPECT_EQ(c->get_report().views_checked, 1u);
  // The same split-brain install trips the suite.
  c->view_installed(install(2, 2, {2}, 1));
  EXPECT_FALSE(c->ok());
}

}  // namespace
}  // namespace dbsm::check
