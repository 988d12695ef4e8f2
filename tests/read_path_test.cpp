// The local read-only fast path (src/read/): lease grant/revoke unit
// semantics, snapshot floor bookkeeping, the end-to-end guarantees — off
// is bit-identical to the pre-read-path tree (hard-coded anchors), fast
// mode serves YCSB-C with zero read-only broadcasts under the
// read_snapshot monitor — and the fault-catalog sweep with the fast path
// armed, including the lease-revocation race scenarios.
#include <gtest/gtest.h>

#include <vector>

#include "catalog_run.hpp"
#include "core/experiment.hpp"
#include "fault/scenarios.hpp"
#include "read/lease.hpp"
#include "read/snapshot_manager.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

// ---------- read::lease unit semantics ----------

TEST(read_lease, starts_unheld_and_grants_arm_it) {
  read::lease l;
  EXPECT_FALSE(l.valid());
  l.grant(1);
  EXPECT_TRUE(l.valid());
  EXPECT_EQ(l.view(), 1u);
  EXPECT_EQ(l.revocations(), 0u);
}

TEST(read_lease, view_advance_counts_one_revocation) {
  read::lease l;
  l.grant(1);
  l.grant(3);  // re-grant at a later view: the old lease died with it
  EXPECT_TRUE(l.valid());
  EXPECT_EQ(l.view(), 3u);
  EXPECT_EQ(l.revocations(), 1u);
  l.grant(3);  // same view again: nothing was revoked
  EXPECT_EQ(l.revocations(), 1u);
}

TEST(read_lease, suspicion_suspends_until_uniform_advances) {
  read::lease l;
  l.grant(1);
  l.revoke(read::revoke_reason::suspicion);
  EXPECT_FALSE(l.valid());
  EXPECT_TRUE(l.suspended());
  EXPECT_EQ(l.revocations(), 1u);
  // A second suspicion in the same episode is not a new revocation.
  l.revoke(read::revoke_reason::suspicion);
  EXPECT_EQ(l.revocations(), 1u);
  l.on_uniform_advance();  // connectivity proven: stability completed
  EXPECT_TRUE(l.valid());
  EXPECT_FALSE(l.suspended());
}

TEST(read_lease, exclusion_drops_the_lease_until_regrant) {
  read::lease l;
  l.grant(2);
  l.revoke(read::revoke_reason::exclusion);
  EXPECT_FALSE(l.valid());
  EXPECT_FALSE(l.suspended());
  EXPECT_EQ(l.revocations(), 1u);
  l.on_uniform_advance();  // no lazy re-arm from exclusion
  EXPECT_FALSE(l.valid());
  l.grant(5);  // only a merged-view re-grant brings it back
  EXPECT_TRUE(l.valid());
}

// ---------- read::snapshot_manager floor semantics ----------

TEST(read_snapshot_manager, at_returns_newest_epoch_under_watermark) {
  read::snapshot_manager m;
  m.note_delivery(/*global_seq=*/3, /*position=*/1, /*log_len=*/1,
                  /*last_commit_id=*/101);
  m.note_delivery(5, 2, 2, 102);
  m.note_delivery(9, 3, 2, 102);  // an abort: log unchanged
  // Watermark behind everything: the base (empty) snapshot.
  EXPECT_EQ(m.at(2).log_len, 0u);
  EXPECT_EQ(m.at(5).last_commit_id, 102u);
  EXPECT_EQ(m.at(5).log_len, 2u);
  // The floor is monotone: an older watermark cannot resurrect history.
  EXPECT_EQ(m.at(3).log_len, 2u);
  EXPECT_EQ(m.at(100).epoch, 9u);
  EXPECT_EQ(m.entries(), 0u);  // fully consumed into the floor
}

TEST(read_snapshot_manager, reset_replaces_history) {
  read::snapshot_manager m;
  m.note_delivery(4, 1, 1, 7);
  m.reset({/*epoch=*/20, /*position=*/9, /*log_len=*/9,
           /*last_commit_id=*/900});
  EXPECT_EQ(m.entries(), 0u);
  EXPECT_EQ(m.at(25).log_len, 9u);
  EXPECT_EQ(m.at(25).last_commit_id, 900u);
}

// ---------- end-to-end scaffolding ----------

std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

core::experiment_config kv_cfg(read::mode mode, kv::mix mix) {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 45;
  cfg.target_responses = 400;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = mix;
  k.think_time = util::exponential_dist(0.5);
  cfg.workload = kv::factory(k);
  cfg.replica_cfg.read.path = mode;
  return cfg;
}

struct read_totals {
  std::uint64_t fast = 0, fallback = 0, bcast = 0, revoked = 0;
};

read_totals totals(const core::experiment_result& r) {
  read_totals t;
  for (const core::site_report& s : r.sites) {
    t.fast += s.fast_path_reads;
    t.fallback += s.fallback_reads;
    t.bcast += s.ro_broadcasts;
    t.revoked += s.lease_revocations;
  }
  return t;
}

// ---------- off is bit-identical to the pre-read-path tree ----------

// Same anchors as tests/place_test.cpp (recorded on the PR 6 tree,
// re-verified on PR 7): the default TPC-C campaign with the read path
// left off must not move by a single commit.
TEST(read_path_disabled, matches_pre_read_path_anchors) {
  struct anchor {
    const char* scenario;
    std::uint64_t committed, responses, log0_len, log0_hash;
  };
  const anchor anchors[] = {
      {"no_faults", 399, 400, 369, 961761018588045584ull},
      {"crash", 398, 400, 365, 10089116188003370927ull},
      {"crash_restart", 395, 400, 365, 7733846660168087355ull},
  };
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    core::experiment_config cfg;
    cfg.sites = 3;
    cfg.clients = 60;
    cfg.target_responses = 400;
    cfg.max_sim_time = seconds(900);
    cfg.seed = 7;
    EXPECT_EQ(cfg.replica_cfg.read.path, read::mode::off);  // the default
    fault::scenarios::params prm;
    prm.sites = cfg.sites;
    cfg.faults = e->make(prm);
    cfg.enable_recovery = cfg.faults.needs_recovery();
    const auto r = core::run_experiment(cfg);
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    EXPECT_EQ(r.responses, a.responses) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty());
    EXPECT_EQ(r.commit_logs[0].size(), a.log0_len) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << r.checks.summary();
    const read_totals t = totals(r);
    EXPECT_EQ(t.fast, 0u);
    EXPECT_EQ(t.bcast, 0u);
    EXPECT_EQ(t.revoked, 0u);
  }
}

// ---------- fast mode: zero broadcasts at YCSB-C ----------

TEST(read_path_fast, ycsb_c_serves_every_read_locally) {
  const auto r = core::run_experiment(
      kv_cfg(read::mode::fast, kv::mix::ycsb_c));
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  const read_totals t = totals(r);
  EXPECT_EQ(t.bcast, 0u);       // counter-verified: no RO broadcast
  EXPECT_EQ(t.fallback, 0u);    // healthy run: lease never stale
  EXPECT_EQ(t.fast, r.responses);
  EXPECT_EQ(r.checks.reads_checked, t.fast);  // every read monitored
  EXPECT_EQ(r.stats.total_committed(), r.responses);  // reads never abort
}

TEST(read_path_certified, ycsb_c_broadcasts_every_read) {
  const auto r = core::run_experiment(
      kv_cfg(read::mode::certified, kv::mix::ycsb_c));
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  const read_totals t = totals(r);
  EXPECT_EQ(t.fast, 0u);
  EXPECT_GE(t.bcast, r.responses);  // one per read (retries can add more)
}

TEST(read_path_fast, ycsb_b_mixes_reads_and_updates) {
  const auto r = core::run_experiment(
      kv_cfg(read::mode::fast, kv::mix::ycsb_b));
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  const read_totals t = totals(r);
  EXPECT_EQ(t.bcast, 0u);
  EXPECT_GT(t.fast, 0u);
  EXPECT_GT(r.checks.decisions_checked, 0u);  // updates still certify
}

// ---------- fault catalog under the fast path ----------

// Every catalog scenario that fits a 5-site system, run on the YCSB-B
// mix with the fast path armed: the read_snapshot monitor cross-checks
// each fast read against the reference agreed order, and the §5.3
// off-line safety check must also hold. This includes the recovery
// cycles (partition_cut_heal_rejoin et al.) and the lease-race
// scenarios.
TEST(read_path_fast, survives_the_full_fault_catalog) {
  const auto base = kv_cfg(read::mode::fast, kv::mix::ycsb_b);
  test::for_each_catalog_run(base, [](const auto& e, const auto& r) {
    EXPECT_TRUE(r.checks.ok) << e.name << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << e.name << ": " << r.safety.detail;
    const read_totals t = totals(r);
    EXPECT_GT(t.fast, 0u) << e.name;
    // A restart rebuilds the site's replica (fresh counters), so the
    // monitor may have seen more reads than the end-of-run counters hold.
    EXPECT_GE(r.checks.reads_checked, t.fast + t.fallback) << e.name;
  });
}

// The full-cut recovery scenario is the stale-snapshot case the lease
// protocol exists for: the victim's lease dies with the cut (suspicion,
// then exclusion), so its reads fall back instead of serving the frozen
// snapshot, and the majority's view change re-grants theirs.
TEST(read_path_fast, partition_cut_revokes_and_rejoin_recovers) {
  auto cfg = kv_cfg(read::mode::fast, kv::mix::ycsb_b);
  fault::scenarios::params prm;
  prm.sites = cfg.sites;
  prm.onset = seconds(2);
  cfg.faults = fault::scenarios::rejoin_stale_reads(prm);
  cfg.enable_recovery = true;
  cfg.target_responses = 0;  // run past the rejoin and post-rejoin blip
  cfg.max_sim_time = seconds(25);
  const auto r = core::run_experiment(cfg);
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.rejoined_sites(), 1u);
  const read_totals t = totals(r);
  EXPECT_GT(t.revoked, 0u);  // suspicion/exclusion/view change fired
  EXPECT_GT(t.fast, 0u);
}

// Sub-suspicion blips: no view change, the lease stays held, and the
// frozen-watermark snapshots the victim serves during each cut must all
// re-validate as agreed prefixes.
TEST(read_path_fast, lease_window_blips_stay_consistent) {
  auto cfg = kv_cfg(read::mode::fast, kv::mix::ycsb_b);
  fault::scenarios::params prm;
  prm.sites = cfg.sites;
  prm.onset = seconds(2);
  cfg.faults = fault::scenarios::partition_lease_window(prm);
  cfg.target_responses = 0;
  cfg.max_sim_time = seconds(10);
  const auto r = core::run_experiment(cfg);
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.view_changes, 0u);  // blips stay under the suspicion timeout
  EXPECT_GT(totals(r).fast, 0u);
}

}  // namespace
}  // namespace dbsm
