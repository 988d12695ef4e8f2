#include "sim/simulator.hpp"

#include <utility>

namespace dbsm::sim {

event_id simulator::schedule_at(sim_time t, event_fn fn) {
  DBSM_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                           << " now=" << now_);
  DBSM_CHECK(fn != nullptr);
  std::uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    DBSM_CHECK_MSG(slots_.size() <= slot_mask, "too many pending events");
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[i].fn = std::move(fn);
  slots_[i].seq = seq;
  heap_.push(entry{t, seq, i});
  return (seq << slot_bits) | i;
}

event_id simulator::schedule_after(sim_duration d, event_fn fn) {
  DBSM_CHECK_MSG(d >= 0, "negative delay: " << d);
  return schedule_at(now_ + d, std::move(fn));
}

bool simulator::cancel(event_id id) {
  const std::uint64_t seq = id >> slot_bits;
  const std::uint64_t i = id & slot_mask;
  if (seq == 0 || i >= slots_.size() || slots_[i].seq != seq) return false;
  release(static_cast<std::uint32_t>(i));
  return true;
}

void simulator::release(std::uint32_t i) {
  slots_[i].fn = nullptr;
  slots_[i].seq = 0;
  free_.push_back(i);
}

bool simulator::skip_cancelled() {
  while (!heap_.empty()) {
    const entry& e = heap_.top();
    if (slots_[e.slot].seq == e.seq) return true;
    heap_.pop();
  }
  return false;
}

bool simulator::pop_and_run() {
  if (!skip_cancelled()) return false;
  const entry e = heap_.top();
  heap_.pop();
  event_fn fn = std::move(slots_[e.slot].fn);
  release(e.slot);
  DBSM_CHECK_MSG(e.t >= now_, "event queue went backwards");
  now_ = e.t;
  ++executed_;
  fn();
  return true;
}

std::size_t simulator::run() {
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && pop_and_run()) ++n;
  return n;
}

std::size_t simulator::run_until(sim_time limit) {
  DBSM_CHECK(limit >= now_);
  stop_requested_ = false;
  std::size_t n = 0;
  while (!stop_requested_ && skip_cancelled() && heap_.top().t <= limit) {
    pop_and_run();
    ++n;
  }
  if (!stop_requested_ && now_ < limit) now_ = limit;
  return n;
}

std::size_t simulator::run_events(std::size_t n) {
  stop_requested_ = false;
  std::size_t done = 0;
  while (done < n && !stop_requested_ && pop_and_run()) ++done;
  return done;
}

bool simulator::step() { return pop_and_run(); }

}  // namespace dbsm::sim
