// Fixed-sequencer total order under the whole system: the seed-7
// campaign anchors (committed counts and FNV-1a commit-log hashes), the
// full fault catalog at the default batch size under the seven online
// monitors and the §5.3 off-line safety check, and view synchrony at a
// sequencer crash — a scripted group-level install and a crash → rejoin
// seed sweep under the monitors. Protocol-level unit tests of the
// sequencer live in tests/gcs_protocol_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog_run.hpp"
#include "core/experiment.hpp"
#include "fake_env.hpp"
#include "fault/fault_types.hpp"
#include "fault/scenarios.hpp"
#include "gcs/group.hpp"
#include "util/distributions.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

using test::fake_env;

util::shared_bytes text_payload(const std::string& s) {
  return std::make_shared<const util::byte_buffer>(
      util::bytes(s.begin(), s.end()));
}

// ---------- the seed-7 campaign anchor pin ----------

std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

core::experiment_config campaign_cfg(
    const fault::scenarios::catalog_entry& e) {
  fault::scenarios::params prm;
  prm.sites = std::max(3u, e.min_sites);
  core::experiment_config cfg;
  cfg.sites = prm.sites;
  cfg.clients = 120;
  cfg.target_responses = 1500;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  cfg.faults = e.make(prm);
  cfg.enable_recovery = cfg.faults.needs_recovery();
  if (e.placement_degree > 0)
    cfg.placement = {place::strategy::round_robin, e.placement_degree};
  return cfg;
}

// The default campaign is pinned (ROADMAP/REPRODUCING): the six paper
// scenarios at seed 7 commit exactly the recorded counts, and site 0's
// committed sequence hashes to the recorded value.
TEST(ordering_anchor, fixed_sequencer_reproduces_the_pr9_campaign) {
  struct anchor {
    const char* scenario;
    std::uint64_t committed, log0_hash;
  };
  const anchor anchors[] = {
      {"no_faults", 1486, 15300083140241123095ull},
      {"clock_drift", 1486, 15300083140241123095ull},
      {"sched_latency", 1488, 11836265132706122930ull},
      {"random_loss", 1481, 2868645777487609070ull},
      {"bursty_loss", 1487, 3199907249306276880ull},
      {"crash", 1489, 15446268365123131477ull},
  };
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    const auto r = core::run_experiment(campaign_cfg(*e));
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty()) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << a.scenario << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << a.scenario << ": " << r.safety.detail;
  }
}

// ---------- the full fault catalog at the default batch size ----------

core::experiment_config kv_cfg() {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 45;
  cfg.target_responses = 400;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;
  k.think_time = util::exponential_dist(0.5);
  cfg.workload = kv::factory(k);
  return cfg;
}

// Every catalog scenario at the default batch size: the monitors
// cross-check every certification decision and apply online, the §5.3
// off-line check verifies identical committed sequences across
// operational sites, and rejoin scenarios must actually bring the crashed
// site back. (tests/batching_test.cpp runs the catalog at batch_max 1 and
// 32.)
TEST(ordering_catalog, full_fault_catalog_passes_at_the_default_batch) {
  test::for_each_catalog_run(kv_cfg(), [](const auto& e, const auto& r) {
    EXPECT_TRUE(r.checks.ok) << e.name << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << e.name << ": " << r.safety.detail;
    EXPECT_GT(r.stats.total_committed(), 0u) << e.name;
    fault::scenarios::params prm;
    prm.sites = 5;
    if (e.make(prm).needs_recovery()) {
      EXPECT_GE(r.rejoined_sites(), 1u) << e.name;
    }
  });
}

// ---------- view synchrony at a sequencer crash ----------

// One member (site 1 of {0, 1, 2}) driven through the view change that
// excludes the crashed lead, site 0, by hand-fed wire messages from site 2
// (the coordinator). Site 1 becomes the new lead — the new sequencer —
// and holds an own message broadcast after its state report, so past the
// agreed cut. Its first mint in the new view orders
// that message and self-delivers at once; the view handler must still see
// delivery standing exactly at the cut.
TEST(ordering_view_change, new_lead_mints_past_the_cut_after_the_view_handler) {
  fake_env env{1, {0, 1, 2}};
  gcs::group_config cfg;
  cfg.members = {0, 1, 2};
  gcs::group g(env, cfg);
  std::vector<std::uint64_t> delivered_at_view;
  g.set_view_handler([&](const gcs::view&) {
    delivered_at_view.push_back(g.delivered_count());
  });
  g.start();

  // Site 2's message, complete here and never ordered by site 0.
  gcs::data_msg m;
  m.hdr = {gcs::msg_type::data, 1, 2};
  m.dgram_seq = 1;
  m.app_seq = 1;
  m.payload = std::make_shared<const util::byte_buffer>(util::bytes{0, 'x'});
  env.deliver(2, gcs::encode(m));

  // Site 2 proposes {1, 2}; site 1 reports its flush state (prefixes
  // {0, 0, 1}) and quiesces ordering.
  gcs::view_propose_msg p;
  p.hdr = {gcs::msg_type::view_propose, 1, 2};
  p.new_view_id = 2;
  p.proposed_members = {1, 2};
  env.deliver(2, gcs::encode(p));

  // Past the reported cut: self-delivered, held unordered.
  g.broadcast(text_payload("own"));

  const std::vector<std::uint64_t> cut = {0, 0, 1};
  gcs::view_cut_msg c;
  c.hdr = {gcs::msg_type::view_cut, 1, 2};
  c.new_view_id = 2;
  c.new_members = {1, 2};
  c.cut = cut;
  c.sources = {2, 2, 2};
  env.deliver(2, gcs::encode(c));

  gcs::view_install_msg i;
  i.hdr = {gcs::msg_type::view_install, 1, 2};
  i.new_view_id = 2;
  i.new_members = {1, 2};
  i.cut = cut;
  env.deliver(2, gcs::encode(i));

  // The backlog within the cut (site 2's message) is delivered before
  // the handler; the own message only after it.
  EXPECT_EQ(delivered_at_view, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(g.am_sequencer());
  EXPECT_EQ(g.delivered_count(), 2u);
}

// Crash the sequencer (site 0) at 20 s and restart it at 30 s on the
// paper TPC-C mix with 1000 clients: the surviving lead takes over minting
// at the install, and the crashed site rejoins by state transfer. Seed 61
// broke view synchrony at batch_max = 16 while the new lead's first mint
// could self-deliver before the view handler ran.
TEST(ordering_view_change, crash_sequencer_rejoin_sweep_keeps_view_synchrony) {
  for (std::uint64_t seed = 42; seed <= 61; ++seed) {
    core::experiment_config cfg;
    cfg.sites = 3;
    cfg.clients = 1000;
    cfg.target_responses = 0;
    cfg.max_sim_time = seconds(35);
    cfg.seed = seed;
    cfg.enable_recovery = true;
    fault::scenario s("crash_sequencer_rejoin");
    s.add(fault::crash_fault(fault::site_set{0}), seconds(20));
    s.add(fault::recover_fault(fault::site_set{0}), seconds(30));
    cfg.faults = s;
    const auto r = core::run_experiment(cfg);
    EXPECT_TRUE(r.checks.ok) << "seed " << seed << ": " << r.checks.summary();
    EXPECT_TRUE(r.safety.ok) << "seed " << seed << ": " << r.safety.detail;
    EXPECT_EQ(r.rejoined_sites(), 1u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dbsm
