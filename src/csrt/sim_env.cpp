#include "csrt/sim_env.hpp"

#include <utility>

namespace dbsm::csrt {

sim_env::sim_env(sim::simulator& sim, cpu_pool& cpu, net::medium& net,
                 config cfg, util::rng rng)
    : sim_(sim), cpu_(cpu), net_(net), cfg_(std::move(cfg)), rng_(rng) {
  net_.set_receiver(cfg_.self, [this](node_id from, util::shared_bytes msg) {
    deliver_datagram(from, std::move(msg));
  });
}

sim_time sim_env::effective_now() {
  if (!in_job_) return sim_.now();
  sim_duration measured = 0;
  if (cfg_.measure_real_time) {
    measured = static_cast<sim_duration>(
        static_cast<double>(profiler_.elapsed()) * charge_scale_);
  }
  return job_start_ + job_elapsed_ + measured;
}

sim_time sim_env::now() {
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  return effective_now();
}

void sim_env::post_job(sim_duration pre_charge, std::function<void()> fn) {
  cpu_.submit_real([this, pre_charge, fn = std::move(fn)]() -> sim_duration {
    DBSM_CHECK_MSG(!in_job_, "real-code jobs cannot nest");
    in_job_ = true;
    job_start_ = sim_.now();
    job_elapsed_ = pre_charge;
    if (cfg_.measure_real_time) profiler_.start();
    fn();
    if (cfg_.measure_real_time) {
      job_elapsed_ += static_cast<sim_duration>(
          static_cast<double>(profiler_.stop()) * charge_scale_);
    }
    in_job_ = false;
    return job_elapsed_;
  });
}

void sim_env::post(std::function<void()> fn) {
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  post_job(0, std::move(fn));
}

void sim_env::set_clock_drift(double rate) {
  DBSM_CHECK(rate > -1.0);
  // "Scheduled events are scaled up (i.e. postponed) and elapsed durations
  // measured are scaled down by the specified rate" (§5.3). Measured
  // durations are scaled at use (effective_now / post_job), so re-arming
  // or clearing the drift never compounds.
  timer_scale_ = 1.0 + rate;
  charge_scale_ = 1.0 / (1.0 + rate);
}

timer_id sim_env::set_timer(sim_duration d, std::function<void()> fn) {
  DBSM_CHECK(d >= 0);
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  sim_duration effective = d;
  if (timer_scale_ != 1.0)
    effective = static_cast<sim_duration>(static_cast<double>(d) *
                                          timer_scale_);
  if (timer_jitter_max_ > 0)
    effective += rng_.uniform_int(0, timer_jitter_max_);
  const sim_time fire_at = effective_now() + effective;
  const timer_id id = next_timer_++;
  // The simulation event hands the callback to the CPU as a real job; the
  // timer can therefore still be delayed by CPU contention, like a real
  // signal handler waiting for the process to be scheduled.
  const sim::event_id ev = sim_.schedule_at(fire_at, [this, id, fn] {
    timers_.erase(id);
    post_job(0, fn);
  });
  timers_.emplace(id, ev);
  return id;
}

void sim_env::cancel_all_timers() {
  for (const auto& [id, ev] : timers_) sim_.cancel(ev);
  timers_.clear();
}

bool sim_env::cancel_timer(timer_id id) {
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  sim_.cancel(it->second);
  timers_.erase(it);
  return true;
}

void sim_env::send(node_id to, util::shared_bytes msg) {
  DBSM_CHECK(msg != nullptr);
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  DBSM_CHECK_MSG(in_job_, "send() outside a real-code job");
  DBSM_CHECK_MSG(msg->size() <= max_datagram(),
                 "datagram too large: " << msg->size());
  job_elapsed_ += cfg_.costs.send_cost(msg->size());
  const sim_time when = job_start_ + job_elapsed_;
  sim_.schedule_at(when, [this, to, msg] { net_.send(cfg_.self, to, msg); });
}

void sim_env::multicast(util::shared_bytes msg) {
  DBSM_CHECK(msg != nullptr);
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  DBSM_CHECK_MSG(in_job_, "multicast() outside a real-code job");
  DBSM_CHECK_MSG(msg->size() <= max_datagram(),
                 "datagram too large: " << msg->size());
  const unsigned fanout = net_.multicast_fanout(cfg_.self);
  job_elapsed_ += cfg_.costs.send_cost(msg->size()) *
                  static_cast<sim_duration>(fanout);
  const sim_time when = job_start_ + job_elapsed_;
  sim_.schedule_at(when, [this, msg] { net_.multicast(cfg_.self, msg); });
}

void sim_env::charge(sim_duration cost) {
  DBSM_CHECK(cost >= 0);
  DBSM_CHECK_MSG(in_job_, "charge() outside a real-code job");
  if (cfg_.measure_real_time) return;  // measurement already covers it
  job_elapsed_ += charge_scale_ == 1.0
                      ? cost
                      : static_cast<sim_duration>(
                            static_cast<double>(cost) * charge_scale_);
}

void sim_env::set_handler(msg_handler h) { handler_ = std::move(h); }

void sim_env::deliver_datagram(node_id from, util::shared_bytes payload) {
  DBSM_CHECK(payload != nullptr);
  const sim_duration recv_cost = cfg_.costs.recv_cost(payload->size());
  post_job(recv_cost, [this, from, payload] {
    if (handler_) handler_(from, payload);
  });
}

void sim_env::call_out(std::function<void()> fn) {
  clock_stop guard(profiler_, cfg_.measure_real_time && in_job_);
  sim_.schedule_at(effective_now(), std::move(fn));
}

}  // namespace dbsm::csrt
