// Tests of the native env bridge (§2.3): the same protocol code running on
// real UDP sockets and OS timers, on loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "csrt/native_env.hpp"
#include "gcs/group.hpp"

namespace dbsm::csrt {
namespace {

std::uint16_t test_port_base(int offset) {
  // Spread across test cases to avoid rebind races.
  return static_cast<std::uint16_t>(29000 + offset * 16);
}

TEST(native_env, timers_fire_in_order) {
  native_env::config cfg;
  cfg.self = 0;
  cfg.peers = {0};
  cfg.base_port = test_port_base(0);
  native_env env(cfg, util::rng(1));

  std::vector<int> order;
  env.post([&] {
    env.set_timer(milliseconds(30), [&] { order.push_back(2); });
    env.set_timer(milliseconds(10), [&] { order.push_back(1); });
    env.set_timer(milliseconds(60), [&] {
      order.push_back(3);
      env.stop();
    });
  });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(native_env, timer_cancel) {
  native_env::config cfg;
  cfg.self = 0;
  cfg.peers = {0};
  cfg.base_port = test_port_base(1);
  native_env env(cfg, util::rng(1));
  bool fired = false;
  env.post([&] {
    const timer_id id = env.set_timer(milliseconds(20), [&] { fired = true; });
    EXPECT_TRUE(env.cancel_timer(id));
    env.set_timer(milliseconds(50), [&] { env.stop(); });
  });
  env.run();
  EXPECT_FALSE(fired);
}

TEST(native_env, loopback_datagram_between_two_nodes) {
  native_env::config c0, c1;
  c0.self = 0;
  c1.self = 1;
  c0.peers = c1.peers = {0, 1};
  c0.base_port = c1.base_port = test_port_base(2);

  native_env e0(c0, util::rng(1));
  native_env e1(c1, util::rng(2));

  std::atomic<int> got{0};
  e1.set_handler([&](node_id from, util::shared_bytes msg) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(msg->size(), 5u);
    got.fetch_add(1);
    e1.stop();
  });
  std::thread t1([&] { e1.run(); });

  e0.post([&] {
    util::buffer_writer w;
    w.put_padding(5);
    e0.send(1, w.take());
    e0.set_timer(milliseconds(400), [&] { e0.stop(); });
  });
  e0.run();
  t1.join();
  EXPECT_EQ(got.load(), 1);
}

TEST(native_env, now_is_monotonic) {
  native_env::config cfg;
  cfg.self = 0;
  cfg.peers = {0};
  cfg.base_port = test_port_base(3);
  native_env env(cfg, util::rng(1));
  const sim_time a = env.now();
  const sim_time b = env.now();
  EXPECT_GE(b, a);
}

// The flagship §2.3 property: the identical group-communication stack runs
// over the native bridge, unchanged.
TEST(native_env, group_total_order_over_real_sockets) {
  constexpr unsigned n = 3;
  const std::uint16_t base = test_port_base(4);

  std::vector<std::unique_ptr<native_env>> envs;
  std::vector<std::unique_ptr<gcs::group>> groups;
  std::vector<std::vector<std::string>> delivered(n);
  std::atomic<unsigned> total_delivered{0};

  for (unsigned i = 0; i < n; ++i) {
    native_env::config cfg;
    cfg.self = i;
    cfg.peers = {0, 1, 2};
    cfg.base_port = base;
    envs.push_back(std::make_unique<native_env>(cfg, util::rng(50 + i)));
    gcs::group_config gcfg;
    gcfg.members = {0, 1, 2};
    groups.push_back(std::make_unique<gcs::group>(*envs[i], gcfg));
    groups[i]->set_deliver([&, i](std::vector<gcs::delivery>&& run) {
      for (const gcs::delivery& d : run) {
        const util::bytes text = d.payload->written_out();
        delivered[i].emplace_back(text.begin(), text.end());
        total_delivered.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      groups[i]->start();
      envs[i]->run();
    });
  }

  constexpr unsigned msgs_per_node = 5;
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned k = 0; k < msgs_per_node; ++k) {
      const std::string text =
          "n" + std::to_string(i) + "m" + std::to_string(k);
      auto payload = std::make_shared<const util::byte_buffer>(
          util::bytes(text.begin(), text.end()));
      groups[i]->submit(payload);
    }
  }

  // Wait (bounded) for all deliveries everywhere.
  for (int spin = 0; spin < 400; ++spin) {
    if (total_delivered.load() >= n * n * msgs_per_node) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& e : envs) e->stop();
  for (auto& t : threads) t.join();

  ASSERT_EQ(delivered[0].size(), n * msgs_per_node);
  for (unsigned i = 1; i < n; ++i) {
    EXPECT_EQ(delivered[i], delivered[0]) << "total order differs at node "
                                          << i;
  }
}

}  // namespace
}  // namespace dbsm::csrt
