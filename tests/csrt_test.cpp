// Tests of the centralized simulation runtime: CPU pool semantics (Fig 1),
// real-job priority and preemption, profiler, and the sim_env bridge
// (clock-stop technique, send/timer offsets from real code).
#include <gtest/gtest.h>

#include <vector>

#include "csrt/cpu.hpp"
#include "csrt/profiler.hpp"
#include "csrt/sim_env.hpp"
#include "sim/simulator.hpp"

namespace dbsm::csrt {
namespace {

TEST(cpu_pool, simulated_jobs_serialize_on_one_cpu) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  std::vector<sim_time> done;
  cpu.submit_simulated(100, [&] { done.push_back(s.now()); });
  cpu.submit_simulated(50, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100);
  EXPECT_EQ(done[1], 150);
}

TEST(cpu_pool, parallel_cpus_overlap) {
  sim::simulator s;
  cpu_pool cpu(s, 2);
  std::vector<sim_time> done;
  cpu.submit_simulated(100, [&] { done.push_back(s.now()); });
  cpu.submit_simulated(100, [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 100);
  EXPECT_EQ(done[1], 100);
}

TEST(cpu_pool, real_job_charges_returned_duration) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  sim_time finished = -1;
  bool work_ran = false;
  cpu.submit_real(
      [&]() -> sim_duration {
        work_ran = true;
        EXPECT_EQ(s.now(), 0);  // runs immediately in zero simulated time
        return 250;
      },
      [&] { finished = s.now(); });
  s.run();
  EXPECT_TRUE(work_ran);
  EXPECT_EQ(finished, 250);
}

TEST(cpu_pool, real_jobs_have_priority_over_queued_simulated) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  std::vector<int> order;
  cpu.submit_simulated(100, [&] { order.push_back(0); });  // occupies CPU
  s.schedule_at(10, [&] {
    cpu.submit_simulated(100, [&] { order.push_back(1); });
    cpu.submit_real([&]() -> sim_duration {
      order.push_back(2);
      return 10;
    });
  });
  s.run();
  // The real job preempts the running simulated job at t=10, so it runs
  // before either simulated completion.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
}

TEST(cpu_pool, preempted_simulated_job_resumes_and_totals_right) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  sim_time sim_done = 0;
  cpu.submit_simulated(100, [&] { sim_done = s.now(); });
  s.schedule_at(40, [&] {
    cpu.submit_real([]() -> sim_duration { return 30; });
  });
  s.run();
  // 40 executed + 30 preemption + 60 remaining = done at 130.
  EXPECT_EQ(sim_done, 130);
}

TEST(cpu_pool, cancel_simulated_queued_and_running) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  bool a_done = false, b_done = false;
  const job_id a = cpu.submit_simulated(100, [&] { a_done = true; });
  const job_id b = cpu.submit_simulated(100, [&] { b_done = true; });
  EXPECT_TRUE(cpu.cancel_simulated(b));  // queued
  EXPECT_TRUE(cpu.cancel_simulated(a));  // running
  s.run();
  EXPECT_FALSE(a_done);
  EXPECT_FALSE(b_done);
  EXPECT_FALSE(cpu.cancel_simulated(a));  // unknown now
}

TEST(cpu_pool, utilization_accounts_real_and_simulated) {
  sim::simulator s;
  cpu_pool cpu(s, 1);
  cpu.submit_simulated(500, {});
  cpu.submit_real([]() -> sim_duration { return 500; });
  s.run();
  s.run_until(2000);
  // 1000 busy of 2000 total.
  EXPECT_NEAR(cpu.utilization(), 0.5, 1e-9);
  EXPECT_NEAR(cpu.real_utilization(), 0.25, 1e-9);
}

TEST(profiler, measures_thread_cpu_and_pauses) {
  thread_cpu_profiler p;
  p.start();
  volatile double x = 1.0;
  // Spin until measurable CPU time accumulates (clock granularity varies
  // across kernels/containers).
  for (int i = 0; i < 2000 && p.elapsed() == 0; ++i) {
    for (int k = 0; k < 100000; ++k) x = x * 1.0000001 + 0.5;
  }
  p.pause();
  const sim_duration at_pause = p.elapsed();
  ASSERT_GT(at_pause, 0);
  // Work done while paused must not be charged (clock-stop, Fig 1b).
  for (int k = 0; k < 2000000; ++k) x = x * 1.0000001 + 0.5;
  EXPECT_EQ(p.elapsed(), at_pause);
  p.resume();
  const sim_duration total = p.stop();
  EXPECT_GE(total, at_pause);
}

// --- sim_env bridge ---

/// Logs every datagram the env hands to the medium (four hosts).
class fake_medium : public net::medium {
 public:
  struct sent_msg {
    node_id to;  // invalid_node for multicast
    std::size_t bytes;
    sim_time at;
  };
  explicit fake_medium(sim::simulator& s)
      : medium(s, 100e6, util::rng(0)), sim_(s) {
    for (int i = 0; i < 4; ++i) add_host();
  }
  void send(node_id, node_id to, util::shared_bytes payload) override {
    log.push_back({to, payload->size(), sim_.now()});
  }
  void multicast(node_id, util::shared_bytes payload) override {
    log.push_back({invalid_node, payload->size(), sim_.now()});
  }
  unsigned multicast_fanout(node_id) const override { return 1; }
  std::vector<sent_msg> log;

 private:
  sim::simulator& sim_;
};

struct env_fixture {
  sim::simulator s;
  cpu_pool cpu{s, 1};
  fake_medium net{s};
  sim_env env;

  explicit env_fixture(net_cost_model costs = {}) : env(make(costs)) {}
  sim_env make(net_cost_model costs) {
    sim_env::config cfg;
    cfg.self = 0;
    cfg.peers = {0, 1, 2};
    cfg.costs = costs;
    return sim_env(s, cpu, net, cfg, util::rng(1));
  }
};

TEST(sim_env, send_charges_cost_and_offsets_injection) {
  net_cost_model costs;
  costs.send_fixed = 1000;
  costs.send_per_byte_ns = 0;
  costs.recv_fixed = 0;
  costs.recv_per_byte_ns = 0;
  env_fixture f(costs);

  f.env.post([&] {
    util::buffer_writer w;
    w.put_padding(100);
    f.env.send(1, w.take());
    f.env.send(2, w.take());  // note: w was consumed; empty payload
  });
  f.s.run();
  ASSERT_EQ(f.net.log.size(), 2u);
  // First send leaves after its own cost; second after both costs.
  EXPECT_EQ(f.net.log[0].at, 1000);
  EXPECT_EQ(f.net.log[1].at, 2000);
}

TEST(sim_env, delivery_runs_handler_as_charged_job) {
  net_cost_model costs;
  costs.recv_fixed = 500;
  costs.recv_per_byte_ns = 10;
  costs.send_fixed = 0;
  costs.send_per_byte_ns = 0;
  env_fixture f(costs);

  sim_time handled_at = -1;
  f.env.set_handler([&](node_id from, util::shared_bytes msg) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(msg->size(), 100u);
    handled_at = f.s.now();
  });
  util::buffer_writer w;
  w.put_padding(100);
  auto payload = w.take();
  f.s.schedule_at(0, [&] { f.env.deliver_datagram(1, payload); });
  f.s.run();
  // Handler itself runs at job start (zero sim time); the CPU then stays
  // busy for recv cost: 500 + 10*100 = 1500.
  EXPECT_EQ(handled_at, 0);
  EXPECT_NEAR(f.cpu.busy_integral(), 1500.0, 1e-9);
}

TEST(sim_env, timer_from_real_code_fires_after_elapsed_offset) {
  env_fixture f;
  std::vector<sim_time> fired;
  f.env.post([&] {
    f.env.charge(1000);            // elapsed-so-far Δ1
    f.env.set_timer(500, [&] {     // must fire at 1000 + 500 (Fig 1b)
      fired.push_back(f.s.now());
    });
  });
  f.s.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1500);
}

TEST(sim_env, timer_handler_waits_for_busy_cpu) {
  env_fixture f;
  std::vector<sim_time> fired;
  f.env.post([&] {
    f.env.charge(1000);
    f.env.set_timer(500, [&] { fired.push_back(f.s.now()); });
    f.env.charge(2000);  // job holds the CPU until t=3000
  });
  f.s.run();
  // The timer event is due at 1500, but its handler is a real-code job
  // and must wait for the CPU, like a process waiting to be scheduled.
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3000);
}

TEST(sim_env, now_advances_with_charges_inside_job) {
  env_fixture f;
  std::vector<sim_time> seen;
  f.env.post([&] {
    seen.push_back(f.env.now());
    f.env.charge(700);
    seen.push_back(f.env.now());
  });
  f.s.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 700);
}

TEST(sim_env, timer_cancel) {
  env_fixture f;
  bool fired = false;
  f.env.post([&] {
    const timer_id id = f.env.set_timer(100, [&] { fired = true; });
    EXPECT_TRUE(f.env.cancel_timer(id));
    EXPECT_FALSE(f.env.cancel_timer(id));
  });
  f.s.run();
  EXPECT_FALSE(fired);
}

TEST(sim_env, multicast_fanout_multiplies_cost) {
  class fanout_medium final : public fake_medium {
   public:
    using fake_medium::fake_medium;
    unsigned multicast_fanout(node_id) const override { return 3; }
  };
  net_cost_model costs;
  costs.send_fixed = 100;
  costs.send_per_byte_ns = 0;
  sim::simulator s;
  cpu_pool cpu(s, 1);
  fanout_medium net(s);
  sim_env::config cfg;
  cfg.self = 0;
  cfg.peers = {0, 1, 2, 3};
  cfg.costs = costs;
  sim_env env(s, cpu, net, cfg, util::rng(1));

  env.post([&] {
    util::buffer_writer w;
    w.put_padding(10);
    env.multicast(w.take());
  });
  s.run();
  ASSERT_EQ(net.log.size(), 1u);
  EXPECT_EQ(net.log[0].at, 300);  // 3 unicast transmissions charged
}

TEST(sim_env, clock_drift_scales_timers_and_charges) {
  env_fixture f;
  f.env.set_clock_drift(1.0);  // everything twice as slow
  sim_time fired = 0;
  f.env.post([&] {
    f.env.charge(1000);  // charged as 500 (durations shrink)
    f.env.set_timer(1000, [&] { fired = f.s.now(); });  // postponed to 2000
  });
  f.s.run();
  EXPECT_EQ(fired, 500 + 2000);
}

}  // namespace
}  // namespace dbsm::csrt
