// env bridge into the simulation: SSF kernel + network model + simulated
// CPU (§2.2/2.3). Implements the semantics of Fig 1:
//   * a real-code job executes in zero simulated time, its duration Δ is
//     measured (or charged by the deterministic cost model) and the CPU is
//     held busy for Δ;
//   * events scheduled and messages sent *from inside* real code are
//     timestamped job_start + elapsed-so-far, and the profiling clock stops
//     while bridge code runs (Fig 1b).
#ifndef DBSM_CSRT_SIM_ENV_HPP
#define DBSM_CSRT_SIM_ENV_HPP

#include <unordered_set>
#include <utility>
#include <vector>

#include "csrt/cpu.hpp"
#include "csrt/env.hpp"
#include "csrt/profiler.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace dbsm::csrt {

class sim_env final : public env {
 public:
  struct config {
    node_id self = 0;
    std::vector<node_id> peers;    // network-level peer set, incl. self
    net_cost_model costs;
    /// If true, time real code with the thread CPU clock (one host ns is
    /// one simulated ns); if false, rely purely on charge() costs
    /// (deterministic).
    bool measure_real_time = false;
  };

  /// Registers this env as the receiver of host `cfg.self` of `net` and
  /// sends from that host.
  sim_env(sim::simulator& sim, cpu_pool& cpu, net::medium& net, config cfg,
          util::rng rng);

  /// The medium holds `this` as the host's receiver.
  sim_env(const sim_env&) = delete;
  sim_env& operator=(const sim_env&) = delete;

  // --- env interface ---
  node_id self() const override { return cfg_.self; }
  const std::vector<node_id>& peers() const override { return cfg_.peers; }
  sim_time now() override;
  timer_id set_timer(sim_duration d, std::function<void()> fn) override;
  bool cancel_timer(timer_id id) override;
  void send(node_id to, util::shared_bytes msg) override;
  void multicast(util::shared_bytes msg) override;
  void charge(sim_duration cost) override;
  void set_handler(msg_handler h) override;
  void post(std::function<void()> fn) override;
  util::rng& random() override { return rng_; }
  std::size_t max_datagram() const override {
    return net::max_datagram_payload;
  }

  // --- simulation-side interface ---

  /// Called by the medium when a datagram arrives at this node; enqueues
  /// a real-code job that charges the receive cost and runs the
  /// registered handler.
  void deliver_datagram(node_id from, util::shared_bytes payload);

  /// Runs `fn` at the current effective time as plain simulation code (used
  /// to hand results from real code back to simulated components without
  /// charging protocol CPU).
  void call_out(std::function<void()> fn);

  /// Runs `fn` now with the profiling clock stopped: code that rides
  /// inside a real-code job but is not protocol work (the check/
  /// observers) is never charged as protocol CPU.
  template <class F> void off_clock(F&& fn) {
    clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
    std::forward<F>(fn)();
  }

  /// Cancels every timer currently armed through this env (site teardown:
  /// a restarting site's protocol stack is destroyed mid-run, and no
  /// pending timer callback may outlive it).
  void cancel_all_timers();

  // --- fault injection knobs (§5.3) ---

  /// Clock drift: timers armed while the drift is active are postponed by
  /// (1 + rate) and measured/charged durations scaled down by its inverse.
  /// Idempotent and reversible — set_clock_drift(0.0) restores nominal
  /// timing (already-armed timers keep their postponed deadlines), so drift
  /// can be confined to a fault window.
  void set_clock_drift(double rate);

  /// Scheduling latency: a uniform random delay in [0, max] added to every
  /// timer armed by real code while the fault is active; 0 disarms.
  void set_timer_jitter(sim_duration max) { timer_jitter_max_ = max; }

 private:
  /// RAII clock-stop: pauses the profiling clock while bridge (simulation
  /// runtime) code executes inside a measured real-code job (Fig 1b).
  class clock_stop {
   public:
    clock_stop(thread_cpu_profiler& prof, bool active)
        : prof_(prof), active_(active && prof.running()) {
      if (active_) prof_.pause();
    }
    ~clock_stop() {
      if (active_) prof_.resume();
    }
    clock_stop(const clock_stop&) = delete;
    clock_stop& operator=(const clock_stop&) = delete;

   private:
    thread_cpu_profiler& prof_;
    bool active_;
  };

  /// Submits a real-code job with an initial charged cost.
  void post_job(sim_duration pre_charge, std::function<void()> fn);

  /// Effective current time inside/outside jobs.
  sim_time effective_now();

  sim::simulator& sim_;
  cpu_pool& cpu_;
  net::medium& net_;
  config cfg_;
  util::rng rng_;
  msg_handler handler_;

  thread_cpu_profiler profiler_;
  bool in_job_ = false;
  sim_time job_start_ = 0;
  sim_duration job_elapsed_ = 0;

  timer_id next_timer_ = 1;
  std::unordered_map<timer_id, sim::event_id> timers_;

  double timer_scale_ = 1.0;      // clock drift: postpone factor
  double charge_scale_ = 1.0;     // clock drift: duration shrink factor
  sim_duration timer_jitter_max_ = 0;  // scheduling latency fault
};

}  // namespace dbsm::csrt

#endif  // DBSM_CSRT_SIM_ENV_HPP
