// Discrete-event simulation kernel (the SSF substitute, §2.1).
//
// A single event queue ordered by (time, insertion sequence) gives a
// deterministic total order of events: two runs with the same seed execute
// the exact same event sequence. All model components share one simulator.
//
// The queue is a binary heap of plain {time, sequence, slot} entries; the
// callbacks live in a slot array recycled through a free list. An event_id
// packs the slot with the event's sequence number, so cancel() is O(1)
// and an id whose event already fired or was cancelled stays dead even
// after its slot is reused. A cancelled event leaves its heap entry
// behind; the entry is dropped when it reaches the top.
#ifndef DBSM_SIM_SIMULATOR_HPP
#define DBSM_SIM_SIMULATOR_HPP

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace dbsm::sim {

/// Callback executed when an event fires.
using event_fn = std::function<void()>;

/// Handle for cancelling a scheduled event: the event's sequence number
/// (from 1) above its slot index. 0 is never a valid id.
using event_id = std::uint64_t;

/// Deterministic discrete-event scheduler.
class simulator {
 public:
  simulator() = default;
  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  /// Current simulated time.
  sim_time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Events scheduled for the
  /// same instant fire in scheduling order.
  event_id schedule_at(sim_time t, event_fn fn);

  /// Schedules `fn` after `d` nanoseconds (>= 0).
  event_id schedule_after(sim_duration d, event_fn fn);

  /// Cancels a pending event. Returns true if it had not yet fired and was
  /// not cancelled before; false for any other id, 0 included.
  bool cancel(event_id id);

  /// Runs until the queue is empty or stop() is called.
  /// Returns the number of events executed.
  std::size_t run();

  /// Runs all events with time <= `limit`, then advances now to `limit`.
  std::size_t run_until(sim_time limit);

  /// Executes at most `n` events.
  std::size_t run_events(std::size_t n);

  /// Executes a single event; returns false if the queue was empty.
  bool step();

  /// Requests the current run()/run_until() loop to return after the
  /// current event finishes.
  void stop() { stop_requested_ = true; }

  std::size_t pending() const { return slots_.size() - free_.size(); }
  std::size_t executed() const { return executed_; }

 private:
  static constexpr int slot_bits = 24;
  static constexpr std::uint64_t slot_mask = (1ull << slot_bits) - 1;

  struct entry {
    sim_time t;
    std::uint64_t seq;
    std::uint32_t slot;
    // Heap is a max-heap by default; invert for earliest-first.
    bool operator<(const entry& other) const {
      if (t != other.t) return t > other.t;
      return seq > other.seq;
    }
  };

  struct slot {
    event_fn fn;
    std::uint64_t seq = 0;  // sequence of the event held; 0 when free
  };

  /// Drops heap entries of cancelled events until the top is live.
  /// Returns false if the queue is empty.
  bool skip_cancelled();

  /// Frees slot `i` for reuse.
  void release(std::uint32_t i);

  /// Pops the next non-cancelled event and runs it. Returns false if the
  /// queue held no live event.
  bool pop_and_run();

  sim_time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  bool stop_requested_ = false;
  std::priority_queue<entry> heap_;
  std::vector<slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace dbsm::sim

#endif  // DBSM_SIM_SIMULATOR_HPP
