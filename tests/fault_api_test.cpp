// Tests of the composable fault-scenario API: target-site selection
// (explicit sets drift exactly those sites — the odd-site hardwiring is
// gone), [start, stop) fault windows on the simulator timeline, network
// partition/heal and per-link delay injection, the named scenario catalog
// (the paper's odd-site drift included), and whole-run determinism (same
// seed + same scenario => identical committed sequence).
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "csrt/cpu.hpp"
#include "csrt/sim_env.hpp"
#include "fault/fault_types.hpp"
#include "fault/scenarios.hpp"
#include "net/lan.hpp"
#include "sim/simulator.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::fault {
namespace {

util::shared_bytes payload_of(std::size_t n) {
  util::buffer_writer w;
  w.put_padding(n);
  return w.take();
}

/// A medium that swallows every datagram: the envs under test only arm
/// timers.
class null_medium final : public net::medium {
 public:
  explicit null_medium(sim::simulator& s) : medium(s, 100e6, util::rng(0)) {}
  void send(node_id, node_id, util::shared_bytes) override {}
  void multicast(node_id, util::shared_bytes) override {}
  unsigned multicast_fanout(node_id) const override { return 1; }
};

/// N per-site env bridges over one simulator (and optionally a LAN whose
/// host ids line up with the site indexes) — the unit-test analogue of the
/// cluster's injection points.
struct site_rig {
  sim::simulator s;
  null_medium null_net{s};
  std::unique_ptr<net::lan> lan;
  std::vector<std::unique_ptr<csrt::cpu_pool>> cpus;
  std::vector<std::unique_ptr<csrt::sim_env>> envs;
  std::vector<std::vector<sim_time>> arrivals;

  explicit site_rig(unsigned n, bool with_lan = false) {
    if (with_lan) {
      lan = std::make_unique<net::lan>(s, net::lan_config{}, util::rng(1));
      arrivals.resize(n);
    }
    for (unsigned i = 0; i < n; ++i) {
      if (lan) {
        EXPECT_EQ(lan->add_host(), i);
        lan->set_receiver(i, [this, i](node_id, util::shared_bytes) {
          arrivals[i].push_back(s.now());
        });
      }
      cpus.push_back(std::make_unique<csrt::cpu_pool>(s, 1));
      csrt::sim_env::config cfg;
      cfg.self = null_net.add_host();
      envs.push_back(std::make_unique<csrt::sim_env>(
          s, *cpus.back(), null_net, cfg, util::rng(i + 1)));
    }
  }

  injection_points points() {
    injection_points pts;
    pts.net = lan.get();
    for (auto& e : envs) pts.envs.push_back(e.get());
    return pts;
  }

  /// Arms a 100ms timer on every env; returns the recorded fire times.
  std::vector<sim_time> timer_fires() {
    const sim_time base = s.now();
    std::vector<sim_time> fires(envs.size(), 0);
    for (std::size_t i = 0; i < envs.size(); ++i) {
      envs[i]->set_timer(milliseconds(100),
                         [this, &fires, i, base] { fires[i] = s.now() - base; });
    }
    s.run();
    return fires;
  }
};

// --- target selection -----------------------------------------------

TEST(fault_targeting, drift_hits_exactly_the_target_set) {
  // Regression for the hardwired odd-site clock drift: an explicit target
  // set drifts exactly those sites, no matter their parity.
  site_rig rig(4);
  auto pts = rig.points();
  const event drift = clock_drift_fault(0.5, site_selector{site_set{0, 3}});
  fault::arm(drift, pts);

  const auto fires = rig.timer_fires();
  EXPECT_EQ(fires[0], milliseconds(150));  // drifted: postponed by 1.5x
  EXPECT_EQ(fires[1], milliseconds(100));
  EXPECT_EQ(fires[2], milliseconds(100));
  EXPECT_EQ(fires[3], milliseconds(150));

  // Disarm restores nominal timing on the same sites.
  fault::disarm(drift, pts);
  const auto after = rig.timer_fires();
  for (sim_time t : after) EXPECT_EQ(t, milliseconds(100));
}

TEST(fault_targeting, clock_drift_scenario_keeps_the_papers_odd_site_drift) {
  site_rig rig(4);
  scenarios::clock_drift().install(rig.s, rig.points());

  const auto fires = rig.timer_fires();
  EXPECT_EQ(fires[0], milliseconds(100));
  EXPECT_EQ(fires[1], milliseconds(110));
  EXPECT_EQ(fires[2], milliseconds(100));
  EXPECT_EQ(fires[3], milliseconds(110));
}

TEST(fault_targeting, selector_resolution) {
  EXPECT_EQ(site_selector::all().resolve(4), (site_set{0, 1, 2, 3}));
  EXPECT_EQ(site_selector::odd().resolve(5), (site_set{1, 3}));
  EXPECT_EQ(site_selector::even().resolve(5), (site_set{0, 2, 4}));
  EXPECT_EQ((site_selector{site_set{2, 0}}).resolve(3), (site_set{2, 0}));
}

// --- fault windows ----------------------------------------------------

TEST(fault_windows, loss_applies_only_inside_the_window) {
  site_rig rig(2, /*with_lan=*/true);
  scenario s("windowed_loss");
  s.add(loss_fault::random(1.0, site_selector{site_set{1}}),
        milliseconds(10), milliseconds(20));
  s.install(rig.s, rig.points());

  for (sim_time at : {milliseconds(1), milliseconds(12), milliseconds(25)}) {
    rig.s.schedule_at(at, [&rig] { rig.lan->send(0, 1, payload_of(100)); });
  }
  rig.s.run();

  ASSERT_EQ(rig.arrivals[1].size(), 2u);  // the in-window send was dropped
  EXPECT_EQ(rig.lan->injected_losses(1), 1u);
  EXPECT_LT(rig.arrivals[1][0], milliseconds(10));
  EXPECT_GT(rig.arrivals[1][1], milliseconds(25));
}

TEST(fault_windows, zero_width_window_is_a_no_op) {
  // [t, t) arms nothing — shrunk fuzzer timelines produce such windows
  // when halving, and they must not perturb the run they are replayed in.
  site_rig rig(2, /*with_lan=*/true);
  scenario s("zero_width");
  s.add(loss_fault::random(1.0, site_selector{site_set{1}}),
        milliseconds(10), milliseconds(10));
  s.install(rig.s, rig.points());

  for (sim_time at : {milliseconds(1), milliseconds(10), milliseconds(25)}) {
    rig.s.schedule_at(at, [&rig] { rig.lan->send(0, 1, payload_of(100)); });
  }
  rig.s.run();

  EXPECT_EQ(rig.arrivals[1].size(), 3u);  // nothing dropped, ever
  EXPECT_EQ(rig.lan->injected_losses(1), 0u);
}

TEST(fault_windows, sched_latency_window_disarms) {
  site_rig rig(2);
  auto pts = rig.points();
  const event jitter =
      sched_latency_fault(milliseconds(5), site_selector{site_set{1}});
  fault::arm(jitter, pts);
  auto fires = rig.timer_fires();
  EXPECT_EQ(fires[0], milliseconds(100));
  EXPECT_GE(fires[1], milliseconds(100));
  EXPECT_LE(fires[1], milliseconds(105));

  fault::disarm(jitter, pts);
  fires = rig.timer_fires();
  EXPECT_EQ(fires[1], milliseconds(100));
}

// --- partition / link delay ------------------------------------------

TEST(partition, cut_and_heal) {
  site_rig rig(3, /*with_lan=*/true);
  auto pts = rig.points();
  const event part = partition_fault::two_way(site_set{2});  // {2} vs {0, 1}

  fault::arm(part, pts);
  rig.lan->send(0, 2, payload_of(100));  // crosses the cut: dropped
  rig.lan->send(0, 1, payload_of(100));  // same side: delivered
  rig.lan->multicast(2, payload_of(100));  // cut from both 0 and 1
  rig.s.run();
  EXPECT_TRUE(rig.arrivals[2].empty());
  EXPECT_EQ(rig.arrivals[1].size(), 1u);
  EXPECT_TRUE(rig.arrivals[0].empty());
  EXPECT_EQ(rig.lan->link_cut_drops(2), 1u);
  EXPECT_EQ(rig.lan->link_cut_drops(0), 1u);
  EXPECT_EQ(rig.lan->link_cut_drops(1), 1u);

  fault::disarm(part, pts);
  rig.lan->send(0, 2, payload_of(100));
  rig.s.run();
  EXPECT_EQ(rig.arrivals[2].size(), 1u);
}

TEST(partition, cut_kills_in_flight_datagrams) {
  site_rig rig(2, /*with_lan=*/true);
  rig.lan->send(0, 1, payload_of(1000));
  // The cut lands before the datagram's reception event fires.
  rig.lan->set_link_cut(0, 1, true);
  rig.s.run();
  EXPECT_TRUE(rig.arrivals[1].empty());
  EXPECT_EQ(rig.lan->link_cut_drops(1), 1u);
}

TEST(link_delay, shifts_arrival_by_the_extra_delay) {
  site_rig rig(2, /*with_lan=*/true);
  rig.lan->send(0, 1, payload_of(100));
  rig.s.run();
  ASSERT_EQ(rig.arrivals[1].size(), 1u);
  const sim_duration nominal = rig.arrivals[1][0];

  auto pts = rig.points();
  const event slow = link_delay_fault::two_way(milliseconds(5), site_set{0});
  fault::arm(slow, pts);
  const sim_time sent_at = rig.s.now();
  rig.lan->send(0, 1, payload_of(100));
  rig.s.run();
  ASSERT_EQ(rig.arrivals[1].size(), 2u);
  EXPECT_EQ(rig.arrivals[1][1] - sent_at, nominal + milliseconds(5));

  fault::disarm(slow, pts);
  const sim_time sent_again = rig.s.now();
  rig.lan->send(0, 1, payload_of(100));
  rig.s.run();
  ASSERT_EQ(rig.arrivals[1].size(), 3u);
  EXPECT_EQ(rig.arrivals[1][2] - sent_again, nominal);
}

// --- asymmetric link faults ------------------------------------------

TEST(asymmetric_faults, one_way_cut_drops_only_one_direction) {
  site_rig rig(2, /*with_lan=*/true);
  auto pts = rig.points();
  auto cut = partition_fault::one_way(site_set{0}, site_set{1});

  fault::arm(cut, pts);
  rig.lan->send(0, 1, payload_of(100));  // 0 -> 1 crosses the cut: dropped
  rig.lan->send(1, 0, payload_of(100));  // 1 -> 0 flows
  rig.s.run();
  EXPECT_TRUE(rig.arrivals[1].empty());
  EXPECT_EQ(rig.arrivals[0].size(), 1u);
  EXPECT_EQ(rig.lan->link_cut_drops(1), 1u);
  EXPECT_EQ(rig.lan->link_cut_drops(0), 0u);

  // Heal: symmetric delivery is restored.
  fault::disarm(cut, pts);
  rig.lan->send(0, 1, payload_of(100));
  rig.lan->send(1, 0, payload_of(100));
  rig.s.run();
  EXPECT_EQ(rig.arrivals[1].size(), 1u);
  EXPECT_EQ(rig.arrivals[0].size(), 2u);
}

TEST(asymmetric_faults, one_way_delay_shifts_only_one_direction) {
  site_rig rig(2, /*with_lan=*/true);
  rig.lan->send(0, 1, payload_of(100));
  rig.s.run();
  ASSERT_EQ(rig.arrivals[1].size(), 1u);
  const sim_duration nominal = rig.arrivals[1][0];

  auto pts = rig.points();
  auto slow = link_delay_fault::one_way(milliseconds(5), site_set{0},
                                        site_set{1});
  fault::arm(slow, pts);
  sim_time sent_at = rig.s.now();
  rig.lan->send(0, 1, payload_of(100));  // delayed direction
  rig.s.run();
  ASSERT_EQ(rig.arrivals[1].size(), 2u);
  EXPECT_EQ(rig.arrivals[1][1] - sent_at, nominal + milliseconds(5));

  sent_at = rig.s.now();
  rig.lan->send(1, 0, payload_of(100));  // reverse direction: nominal
  rig.s.run();
  ASSERT_EQ(rig.arrivals[0].size(), 1u);
  EXPECT_EQ(rig.arrivals[0][0] - sent_at, nominal);
}

TEST(asymmetric_faults, one_way_cut_suspicion_only_on_non_receiving_side) {
  // Suspicion follows the direction of the cut, not the link: only the
  // side that stops *receiving* liveness proofs suspects.
  core::experiment_config base;
  base.sites = 3;
  base.clients = 24;
  base.target_responses = 250;
  base.max_sim_time = seconds(400);
  base.seed = 31337;

  // Outbound cut ({2} -> {0, 1}): sites 0 and 1 stop hearing site 2 and
  // exclude it; site 2 hears everyone, suspects nobody, sees the view
  // that excludes it, and stalls its sends instead of split-braining —
  // while still mirroring the majority's delivered sequence as a silent
  // listener.
  {
    auto cfg = base;
    scenario s("one_way_out_cut");
    s.add(partition_fault::one_way(site_set{2}), seconds(10), seconds(14));
    cfg.faults = s;
    const auto r = core::run_experiment(cfg);
    EXPECT_TRUE(r.safety.ok) << r.safety.detail;
    EXPECT_GE(r.view_changes, 1u);  // the hearing side excluded site 2
    EXPECT_GT(r.stats.total_committed(), 50u);
  }

  // Inbound cut ({0, 1} -> {2}): only site 2 stops hearing. It suspects
  // the others, finds itself a minority, and withholds any proposal; the
  // majority keeps hearing site 2's heartbeats and never suspects it —
  // no view change at all. The heal restores symmetric delivery and NAK
  // recovery catches site 2 back up.
  {
    auto cfg = base;
    scenario s("one_way_in_cut");
    s.add(partition_fault::one_way(site_set{0, 1}, site_set{2}),
          seconds(10), seconds(14));
    cfg.faults = s;
    const auto r = core::run_experiment(cfg);
    EXPECT_TRUE(r.safety.ok) << r.safety.detail;
    EXPECT_EQ(r.view_changes, 0u);  // nobody excluded anybody
    EXPECT_GT(r.stats.total_committed(), 50u);
  }
}

// --- failure-detector hysteresis under delay --------------------------

TEST(fault_windows, delay_only_scenario_causes_no_suspicion) {
  // A pure-delay fault shifts every datagram but loses none: heartbeats
  // keep arriving (late), so the miss-count hysteresis in the failure
  // detector must keep every site trusted — no suspicion, no view change.
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 24;
  cfg.target_responses = 250;
  cfg.max_sim_time = seconds(400);
  cfg.seed = 1717;
  scenario s("delay_only");
  s.add(link_delay_fault::two_way(milliseconds(150), site_set{0, 1, 2}),
        seconds(5), seconds(25));
  cfg.faults = s;

  const auto r = core::run_experiment(cfg);
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_EQ(r.view_changes, 0u);
  EXPECT_GT(r.stats.total_committed(), 50u);
}

// --- scenario catalog -------------------------------------------------

TEST(scenario_catalog, finds_and_builds_every_entry) {
  scenarios::params prm;
  prm.sites = 5;
  std::vector<std::string_view> needs_recovery;
  for (const auto& e : scenarios::catalog()) {
    EXPECT_EQ(scenarios::find(e.name), &e);
    const scenario s = e.make(prm);
    EXPECT_EQ(s.name(), e.name);
    if (std::string_view(e.name) != "no_faults") {
      EXPECT_FALSE(s.empty());
    }
    if (s.needs_recovery()) needs_recovery.push_back(e.name);
  }
  EXPECT_EQ(scenarios::find("does_not_exist"), nullptr);
  // Derived from the recover events: exactly the rejoin scenarios.
  EXPECT_EQ(needs_recovery, (std::vector<std::string_view>{
                                "partition_cut_heal_rejoin", "crash_restart",
                                "rolling_restarts", "partial_k2_crash_rejoin",
                                "rejoin_stale_reads"}));
}

TEST(scenario_catalog, partition_minority_heals_after_exclusion) {
  scenarios::params prm;
  const scenario s = scenarios::partition_minority(prm);
  ASSERT_EQ(s.events().size(), 1u);
  EXPECT_EQ(s.events()[0].start, prm.onset);
  EXPECT_EQ(s.events()[0].stop, prm.onset + 4 * prm.exclusion_timeout);
}

// --- determinism ------------------------------------------------------

TEST(fault_determinism, same_seed_same_scenario_same_committed_sequence) {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 24;
  cfg.target_responses = 200;
  cfg.max_sim_time = seconds(400);
  cfg.seed = 4242;
  // A composed scenario exercising windows, a partition, and loss — the
  // scenario object is shared by both runs, so re-arming must not leak
  // state between them.
  scenario s("composed");
  s.add(loss_fault::random(0.10), seconds(5), seconds(12));
  s.add(partition_fault::two_way(site_set{2}), seconds(20),
        seconds(20) + milliseconds(150));
  cfg.faults = s;

  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);

  EXPECT_TRUE(a.safety.ok);
  EXPECT_EQ(a.stats.total_committed(), b.stats.total_committed());
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.duration, b.duration);
  ASSERT_EQ(a.commit_logs.size(), b.commit_logs.size());
  for (std::size_t i = 0; i < a.commit_logs.size(); ++i)
    EXPECT_EQ(a.commit_logs[i], b.commit_logs[i]) << "site " << i;
}

}  // namespace
}  // namespace dbsm::fault
