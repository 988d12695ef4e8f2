// Tests of the membership-recovery layer (crash/partition rejoin via
// state transfer): a joiner converges on the primary's exact committed
// sequence under concurrent load, a second failure during the transfer
// restarts cleanly (joiner death and donor death), rejoin is
// deterministic (same seed => identical commit logs), the certifier
// snapshot/restore roundtrip reproduces decisions bit-for-bit, and the
// per-site experiment report distinguishes crashed from rejoined sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cert/sharded_certifier.hpp"
#include "core/experiment.hpp"
#include "fault/fault_types.hpp"
#include "fault/scenarios.hpp"
#include "util/rng.hpp"

namespace dbsm::core {
namespace {

experiment_config recovery_config(std::uint64_t seed = 1234) {
  experiment_config cfg;
  cfg.sites = 3;
  cfg.cpus_per_site = 1;
  cfg.clients = 30;
  cfg.target_responses = 300;
  cfg.max_sim_time = seconds(400);
  cfg.seed = seed;
  cfg.enable_recovery = true;
  return cfg;
}

/// Crash site `victim` at `down`, recover it at `up`.
fault::scenario crash_then_recover(unsigned victim, sim_time down,
                                   sim_time up) {
  fault::scenario s("crash_then_recover");
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{victim}}),
        down);
  s.add(std::make_shared<fault::recover_fault>(
            fault::site_selector{fault::site_set{victim}}),
        up);
  return s;
}

TEST(recovery, joiner_converges_on_exact_committed_sequence) {
  auto cfg = recovery_config();
  cfg.faults = crash_then_recover(2, seconds(8), seconds(12));

  const auto r = run_experiment(cfg);

  // The site came back: excluded view change + merge view change.
  ASSERT_EQ(r.sites.size(), 3u);
  EXPECT_EQ(r.sites[2].state, cluster::site_status::rejoined);
  EXPECT_GE(r.view_changes, 2u);

  // Safety holds over the full (transferred prefix + replay + live)
  // sequence of the rejoined site.
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  ASSERT_EQ(r.commit_logs.size(), 3u);  // all sites operational again

  // Exact convergence: element-for-element agreement with the longest
  // log, and the joiner lags by at most the in-flight window.
  const auto longest = std::max_element(
      r.commit_logs.begin(), r.commit_logs.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const auto& joiner_log = r.commit_logs[2];
  ASSERT_LE(joiner_log.size(), longest->size());
  EXPECT_TRUE(std::equal(joiner_log.begin(), joiner_log.end(),
                         longest->begin()));
  EXPECT_GT(joiner_log.size() + 50, longest->size());

  // The system kept serving through crash and rejoin, and the rejoined
  // site's clients resumed and committed again.
  EXPECT_GT(r.stats.total_committed(), 100u);
  EXPECT_GT(r.sites[2].client_commits, 0u);
}

TEST(recovery, rejoined_site_commits_new_transactions) {
  auto cfg = recovery_config(777);
  cfg.target_responses = 400;
  cfg.faults = crash_then_recover(2, seconds(8), seconds(12));

  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.safety.ok) << r.safety.detail;
  ASSERT_EQ(r.sites[2].state, cluster::site_status::rejoined);
  // The joiner's log extends past the point where the crash-stop run
  // would have frozen it: it contains (nearly) the full sequence, so it
  // must be far longer than what was committed before the 8s crash.
  const std::uint64_t full = r.sites[0].committed_log;
  EXPECT_GT(r.sites[2].committed_log, full / 2);
  EXPECT_GT(r.duration, seconds(13));
}

TEST(recovery, double_failure_joiner_dies_during_recovery) {
  auto cfg = recovery_config(4321);
  fault::scenario s("double_failure");
  // Crash, start recovering, kill the site again inside the restart
  // window (settle + transfer), then recover once more: both the donor
  // and the joiner must unwind cleanly and the second attempt completes.
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(8));
  s.add(std::make_shared<fault::recover_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(12));
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(12) + milliseconds(320));
  s.add(std::make_shared<fault::recover_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(18));
  cfg.faults = s;
  cfg.target_responses = 400;

  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.sites[2].state, cluster::site_status::rejoined);
  EXPECT_GT(r.stats.total_committed(), 100u);
}

TEST(recovery, double_failure_donor_dies_during_recovery) {
  // 5 sites: site 4 recovers while site 0 — the coordinator donating the
  // state — crashes mid-protocol. The joiner times out and restarts the
  // attempt against the next coordinator (site 1), which serves it.
  auto cfg = recovery_config(99);
  cfg.sites = 5;
  cfg.clients = 40;
  cfg.target_responses = 500;
  fault::scenario s("donor_dies");
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{4}}),
        seconds(8));
  s.add(std::make_shared<fault::recover_fault>(
            fault::site_selector{fault::site_set{4}}),
        seconds(12));
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{0}}),
        seconds(12) + milliseconds(350));
  cfg.faults = s;

  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.sites[0].state, cluster::site_status::crashed);
  EXPECT_EQ(r.sites[4].state, cluster::site_status::rejoined);
  EXPECT_GT(r.sites[4].committed_log, 0u);
}

TEST(recovery, rejoin_completes_under_message_loss) {
  // Random loss overlapping the whole join (request, chunks, forwarded
  // deliveries, the commit handshake): every leg of the protocol must
  // retransmit — a forward lost around the merge install in particular
  // must be resent during the committing phase, or the join wedges.
  auto cfg = recovery_config(8888);
  cfg.target_responses = 0;
  cfg.max_sim_time = seconds(30);
  fault::scenario s("lossy_rejoin");
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(8));
  s.add(std::make_shared<fault::recover_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(12));
  s.add(fault::loss_fault::random(0.10), seconds(11), seconds(16));
  cfg.faults = s;

  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.sites[2].state, cluster::site_status::rejoined);
  EXPECT_GT(r.stats.total_committed(), 50u);
}

TEST(recovery, rejoin_is_deterministic) {
  auto cfg = recovery_config(2024);
  cfg.faults = crash_then_recover(2, seconds(8), seconds(12));

  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);

  EXPECT_TRUE(a.safety.ok);
  EXPECT_EQ(a.rejoined_sites(), 1u);
  EXPECT_EQ(a.rejoined_sites(), b.rejoined_sites());
  EXPECT_EQ(a.stats.total_committed(), b.stats.total_committed());
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.duration, b.duration);
  ASSERT_EQ(a.commit_logs.size(), b.commit_logs.size());
  for (std::size_t i = 0; i < a.commit_logs.size(); ++i)
    EXPECT_EQ(a.commit_logs[i], b.commit_logs[i]) << "site " << i;
}

TEST(recovery, partition_cut_heal_rejoin_campaign) {
  // The acceptance scenario: the minority site is cut, excluded, healed,
  // then rejoins via state transfer and commits new transactions, with
  // the §5.3 checker passing over the full sequence.
  auto cfg = recovery_config(7);
  fault::scenarios::params prm;
  prm.sites = cfg.sites;
  prm.onset = seconds(8);
  cfg.faults = fault::scenarios::partition_cut_heal_rejoin(prm);
  cfg.target_responses = 400;

  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.rejoined_sites(), 1u);
  EXPECT_EQ(r.sites[2].state, cluster::site_status::rejoined);
  EXPECT_GE(r.view_changes, 2u);  // exclusion + merge
  EXPECT_GT(r.stats.total_committed(), 100u);
}

TEST(recovery, crash_stop_site_report_without_recovery) {
  // The stats-bias fix: a crash-stop campaign reports the dead site as
  // crashed with its log frozen, so "aborted" and "site was gone" are
  // distinguishable.
  auto cfg = recovery_config(55);
  cfg.enable_recovery = false;
  fault::scenario s("crash_only");
  s.add(std::make_shared<fault::crash_fault>(
            fault::site_selector{fault::site_set{2}}),
        seconds(8));
  cfg.faults = s;

  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok);
  ASSERT_EQ(r.sites.size(), 3u);
  EXPECT_EQ(r.sites[0].state, cluster::site_status::operational);
  EXPECT_EQ(r.sites[2].state, cluster::site_status::crashed);
  EXPECT_EQ(r.rejoined_sites(), 0u);
  EXPECT_LT(r.sites[2].committed_log, r.sites[0].committed_log);
  // The crashed site served responses before the crash, none after; its
  // clients' responses stay below an operational site's.
  EXPECT_GT(r.sites[2].client_responses, 0u);
  EXPECT_LT(r.sites[2].client_responses, r.sites[0].client_responses);
}

// --- certifier snapshot/restore --------------------------------------

std::vector<db::item_id> random_set(util::rng& gen, std::size_t max_items) {
  std::vector<db::item_id> out;
  const std::size_t n =
      1 + static_cast<std::size_t>(gen.uniform_int(0, max_items - 1));
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<db::item_id>(gen.uniform_int(0, 499)));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(recovery, certifier_snapshot_restore_reproduces_decisions) {
  cert::cert_config ccfg;
  ccfg.history_window = 64;  // small window: exercise eviction + backlog
  cert::sharded_certifier donor(ccfg);
  util::rng gen(321);

  auto feed = [&gen](cert::sharded_certifier& c, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const std::uint64_t pos = c.position();
      const std::uint64_t begin =
          pos == 0 ? 0
                   : pos - static_cast<std::uint64_t>(
                               gen.uniform_int(0, std::min<std::uint64_t>(
                                                      pos, 80)));
      c.certify_update(begin, random_set(gen, 4), random_set(gen, 6));
    }
  };
  // Warm the donor past the window so the eviction backlog is non-empty.
  feed(donor, 500);

  util::buffer_writer w;
  donor.snapshot(w);
  util::buffer_reader r(w.take());
  cert::sharded_certifier joiner(ccfg);
  joiner.restore(r);

  EXPECT_EQ(joiner.position(), donor.position());
  EXPECT_EQ(joiner.oldest_retained(), donor.oldest_retained());
  EXPECT_EQ(joiner.history_size(), donor.history_size());
  EXPECT_EQ(joiner.index_size(), donor.index_size());
  EXPECT_EQ(joiner.evicted_backlog(), donor.evicted_backlog());

  // Identical decisions from here on: both replicas continue from the
  // same state through another randomized stretch.
  util::rng replay_gen(654);
  util::rng replay_gen2 = replay_gen;
  util::rng* gens[2] = {&replay_gen, &replay_gen2};
  cert::sharded_certifier* certs[2] = {&donor, &joiner};
  for (int i = 0; i < 400; ++i) {
    bool decisions[2];
    for (int k = 0; k < 2; ++k) {
      util::rng& g = *gens[k];
      cert::sharded_certifier& c = *certs[k];
      const std::uint64_t pos = c.position();
      const std::uint64_t begin =
          pos == 0 ? 0
                   : pos - static_cast<std::uint64_t>(
                               g.uniform_int(0, std::min<std::uint64_t>(
                                                    pos, 80)));
      decisions[k] =
          c.certify_update(begin, random_set(g, 4), random_set(g, 6));
    }
    ASSERT_EQ(decisions[0], decisions[1]) << "diverged at step " << i;
  }
  EXPECT_EQ(donor.commits(), joiner.commits());
  EXPECT_EQ(donor.aborts(), joiner.aborts());
}

// A recovery state transfer must be valid between ends that disagree on
// cert_config::shards (one shard included): the snapshot carries
// canonical full-set entries that each end re-partitions locally
// (cert/index_shard.hpp).
TEST(recovery, sharded_snapshot_is_shard_count_agnostic) {
  cert::cert_config donor_cfg;
  donor_cfg.history_window = 64;  // exercise per-shard eviction rings
  donor_cfg.shards = 4;
  donor_cfg.certify_threads = 2;
  cert::sharded_certifier donor(donor_cfg);
  util::rng gen(432);

  auto random_step = [](auto& c, util::rng& g,
                        auto make_set) -> bool {
    const std::uint64_t pos = c.position();
    const std::uint64_t begin =
        pos == 0 ? 0
                 : pos - static_cast<std::uint64_t>(
                             g.uniform_int(0, std::min<std::uint64_t>(
                                                  pos, 80)));
    return c.certify_update(begin, make_set(g, 4), make_set(g, 6));
  };
  // Warm the donor past the window so every shard ring is non-empty.
  for (int i = 0; i < 500; ++i) random_step(donor, gen, random_set);

  util::buffer_writer w;
  donor.snapshot(w);
  const auto blob = w.take();

  // Restore at a different shard count, and at one shard, from the same
  // bytes.
  cert::cert_config joiner_cfg = donor_cfg;
  joiner_cfg.shards = 2;
  joiner_cfg.certify_threads = 1;
  cert::sharded_certifier joiner(joiner_cfg);
  {
    util::buffer_reader r(blob);
    joiner.restore(r);
  }
  cert::sharded_certifier single(
      [&] {
        cert::cert_config c = donor_cfg;
        c.shards = 1;
        c.certify_threads = 1;
        return c;
      }());
  {
    util::buffer_reader r(blob);
    single.restore(r);
  }

  EXPECT_EQ(joiner.position(), donor.position());
  EXPECT_EQ(joiner.oldest_retained(), donor.oldest_retained());
  EXPECT_EQ(joiner.history_size(), donor.history_size());
  // Index *contents* (id -> last writer) are partition-invariant, so the
  // summed sizes agree across shard counts.
  EXPECT_EQ(joiner.index_size(), donor.index_size());
  EXPECT_EQ(single.index_size(), donor.index_size());

  // All three continue decision-for-decision from the transferred state
  // through another randomized stretch.
  util::rng g0(765), g1 = g0, g2 = g0;
  for (int i = 0; i < 400; ++i) {
    const bool a = random_step(donor, g0, random_set);
    const bool b = random_step(joiner, g1, random_set);
    const bool c = random_step(single, g2, random_set);
    ASSERT_EQ(a, b) << "joiner diverged at step " << i;
    ASSERT_EQ(a, c) << "single-index diverged at step " << i;
  }
  EXPECT_EQ(donor.commits(), joiner.commits());
  EXPECT_EQ(donor.commits(), single.commits());
  EXPECT_EQ(donor.aborts(), joiner.aborts());
}

}  // namespace
}  // namespace dbsm::core
