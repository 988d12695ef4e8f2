// §4.2 validation criteria as tests: the CSRT + network model must
// reproduce the analytic reference (Fig 3) and the model's latency
// distribution must be stable across seeds (Fig 4's Q-Q diagonal).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "csrt/sim_env.hpp"
#include "net/lan.hpp"

namespace dbsm {
namespace {

struct pair_rig {
  sim::simulator sim;
  net::lan lan{sim, net::lan_config{}, util::rng(3)};
  csrt::cpu_pool cpu0{sim, 1};
  csrt::cpu_pool cpu1{sim, 1};
  std::unique_ptr<csrt::sim_env> env0;
  std::unique_ptr<csrt::sim_env> env1;

  pair_rig() {
    lan.add_host();
    lan.add_host();
    csrt::sim_env::config c0, c1;
    c0.self = 0;
    c1.self = 1;
    c0.peers = c1.peers = {0, 1};
    env0 = std::make_unique<csrt::sim_env>(sim, cpu0, lan, c0,
                                           util::rng(10));
    env1 = std::make_unique<csrt::sim_env>(sim, cpu1, lan, c1,
                                           util::rng(11));
  }
};

util::shared_bytes payload_of(std::size_t n) {
  util::buffer_writer w;
  w.put_padding(n);
  return w.take();
}

class fig3_sizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(fig3_sizes, write_bandwidth_matches_cost_model) {
  const std::size_t size = GetParam();
  pair_rig r;
  auto msg = payload_of(size);
  sim_time done = 0;
  r.env0->post([&] {
    for (int i = 0; i < 200; ++i) r.env0->send(1, msg);
    done = r.env0->now();
  });
  r.sim.run();
  const csrt::net_cost_model costs;
  const double expect_bps =
      size * 8.0 / (static_cast<double>(costs.send_cost(size)) / 1e9);
  const double got_bps = size * 200 * 8.0 / to_seconds(done);
  EXPECT_NEAR(got_bps / expect_bps, 1.0, 0.02) << "size " << size;
}

TEST_P(fig3_sizes, receive_goodput_capped_by_wire) {
  const std::size_t size = GetParam();
  pair_rig r;
  auto msg = payload_of(size);
  std::uint64_t bytes = 0;
  sim_time last = 0;
  r.env1->set_handler([&](node_id, util::shared_bytes m) {
    bytes += m->size();
    last = r.sim.now();
  });
  r.env0->post([&] {
    for (int i = 0; i < 300; ++i) r.env0->send(1, msg);
  });
  r.sim.run();
  ASSERT_GT(last, 0);
  const double goodput = static_cast<double>(bytes) * 8.0 /
                         to_seconds(last);
  EXPECT_LT(goodput, 100e6);  // never exceeds the wire
}

INSTANTIATE_TEST_SUITE_P(sizes, fig3_sizes,
                         ::testing::Values(64, 512, 1472, 4096));

TEST(fig3, rtt_scales_linearly_with_size) {
  auto rtt_of = [](std::size_t size) {
    pair_rig r;
    auto msg = payload_of(size);
    sim_time sent = 0;
    double rtt_us = 0;
    int rounds = 20;
    r.env1->set_handler(
        [&](node_id from, util::shared_bytes m) { r.env1->send(from, m); });
    std::function<void()> ping = [&] {
      sent = r.env0->now();
      r.env0->send(1, msg);
    };
    r.env0->set_handler([&](node_id, util::shared_bytes) {
      rtt_us = to_micros(r.env0->now() - sent);
      if (--rounds > 0) ping();
    });
    r.env0->post(ping);
    r.sim.run();
    return rtt_us;
  };
  const double small = rtt_of(64);
  const double large = rtt_of(4096);
  EXPECT_GT(small, 50.0);
  EXPECT_LT(small, 500.0);   // paper: ~200 us
  EXPECT_GT(large, 1000.0);  // paper: ~1.4 ms
  EXPECT_LT(large, 3000.0);
  EXPECT_GT(large, small * 5);
}

TEST(fig4, latency_quantiles_stable_across_seeds) {
  // The Q-Q validation criterion: two independent runs of the 20-client
  // configuration produce near-identical latency quantiles.
  auto run = [](std::uint64_t seed) {
    core::experiment_config cfg;
    cfg.sites = 1;
    cfg.clients = 20;
    cfg.target_responses = 2500;
    cfg.seed = seed;
    const auto r = core::run_experiment(cfg);
    return r.stats.pooled_latency_ms();
  };
  const auto a = run(42);
  const auto b = run(1042);
  for (const auto& [x, y] : util::qq_series(a, b, 10)) {
    if (x > 5.0 && x < 300.0) {
      EXPECT_NEAR(y / x, 1.0, 0.25) << "at quantile value " << x;
    }
  }
}

}  // namespace
}  // namespace dbsm
