// Unit tests for the discrete-event kernel: ordering, determinism,
// cancellation, run modes, slot reuse, and a randomized differential
// against the original priority-queue + hash-map kernel.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dbsm::sim {
namespace {

TEST(simulator, executes_in_time_order) {
  simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(simulator, fifo_within_same_instant) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(simulator, events_can_schedule_events) {
  simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    s.schedule_after(5, [&] {
      ++fired;
      EXPECT_EQ(s.now(), 6);
    });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(simulator, cancel_prevents_execution) {
  simulator s;
  bool ran = false;
  const event_id id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double-cancel reports failure
  s.run();
  EXPECT_FALSE(ran);
}

TEST(simulator, cancel_after_fire_returns_false) {
  simulator s;
  const event_id id = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(simulator, run_until_advances_to_limit) {
  simulator s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(100, [&] { ++fired; });
  const std::size_t n = s.run_until(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  s.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(simulator, run_until_executes_events_at_limit) {
  simulator s;
  bool ran = false;
  s.schedule_at(50, [&] { ran = true; });
  s.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(simulator, stop_interrupts_run) {
  simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(simulator, run_events_bounded) {
  simulator s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(s.run_events(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(simulator, scheduling_into_past_throws) {
  simulator s;
  s.schedule_at(10, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, [] {}), invariant_violation);
  EXPECT_THROW(s.schedule_after(-1, [] {}), invariant_violation);
}

TEST(simulator, pending_counts_live_events) {
  simulator s;
  const event_id a = s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(simulator, heavy_interleaving_is_deterministic) {
  auto run_once = [] {
    simulator s;
    std::vector<std::int64_t> log;
    for (int i = 0; i < 50; ++i) {
      s.schedule_at(i % 7, [&s, &log, i] {
        log.push_back(s.now() * 1000 + i);
        if (i % 3 == 0) {
          s.schedule_after(i, [&s, &log] { log.push_back(s.now()); });
        }
      });
    }
    s.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(simulator, stale_id_does_not_cancel_the_slot_reuser) {
  simulator s;
  const event_id first = s.schedule_at(1, [] {});
  EXPECT_TRUE(s.cancel(first));
  // The freed slot is reused by the next event; the old id stays dead.
  bool ran = false;
  const event_id second = s.schedule_at(2, [&] { ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(ran);

  // Same after the first event fired instead of being cancelled.
  const event_id fired = s.schedule_at(3, [] {});
  s.run();
  bool ran_again = false;
  s.schedule_at(4, [&] { ran_again = true; });
  EXPECT_FALSE(s.cancel(fired));
  s.run();
  EXPECT_TRUE(ran_again);
  EXPECT_FALSE(s.cancel(0));
}

TEST(simulator, callback_cancels_later_event_at_same_instant) {
  simulator s;
  std::vector<int> order;
  event_id victim = 0;
  s.schedule_at(5, [&] {
    order.push_back(1);
    EXPECT_TRUE(s.cancel(victim));
  });
  victim = s.schedule_at(5, [&] { order.push_back(2); });
  s.schedule_at(5, [&] { order.push_back(3); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(simulator, callback_cannot_cancel_itself) {
  simulator s;
  event_id self = 0;
  bool cancelled = true;
  self = s.schedule_at(1, [&] { cancelled = s.cancel(self); });
  s.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(simulator, pending_and_executed_after_slot_reuse) {
  simulator s;
  std::vector<event_id> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s.schedule_at(10 + i, [] {}));
  for (int i = 0; i < 8; i += 2) EXPECT_TRUE(s.cancel(ids[i]));
  EXPECT_EQ(s.pending(), 4u);
  // Four new events land in the four freed slots.
  for (int i = 0; i < 4; ++i) s.schedule_at(5, [] {});
  EXPECT_EQ(s.pending(), 8u);
  EXPECT_EQ(s.run_until(9), 4u);
  EXPECT_EQ(s.pending(), 4u);
  EXPECT_EQ(s.executed(), 4u);
  for (int i = 0; i < 8; i += 2) EXPECT_FALSE(s.cancel(ids[i]));
  EXPECT_TRUE(s.cancel(ids[1]));
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 7u);
  EXPECT_EQ(s.now(), 17);
}

// ---------- randomized differential against the original kernel ----------

/// The kernel as it was before the slot array: a priority queue of
/// (time, sequence, id) with callbacks in a hash map and cancelled ids in
/// a hash set. Kept verbatim as the reference model.
class reference_kernel {
 public:
  sim_time now() const { return now_; }

  event_id schedule_at(sim_time t, std::function<void()> fn) {
    const event_id id = next_seq_++;
    heap_.push(entry{t, id, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  bool cancel(event_id id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  std::size_t run_events(std::size_t n) {
    std::size_t done = 0;
    while (done < n && pop_and_run()) ++done;
    return done;
  }

  std::size_t run_until(sim_time limit) {
    std::size_t n = 0;
    while (true) {
      bool found = false;
      sim_time next_t = 0;
      while (!heap_.empty()) {
        const entry& e = heap_.top();
        if (cancelled_.count(e.id)) {
          cancelled_.erase(e.id);
          heap_.pop();
          continue;
        }
        next_t = e.t;
        found = true;
        break;
      }
      if (!found || next_t > limit) break;
      pop_and_run();
      ++n;
    }
    if (now_ < limit) now_ = limit;
    return n;
  }

  std::size_t pending() const { return heap_.size() - cancelled_.size(); }
  std::size_t executed() const { return executed_; }

 private:
  struct entry {
    sim_time t;
    std::uint64_t seq;
    event_id id;
    bool operator<(const entry& other) const {
      if (t != other.t) return t > other.t;
      return seq > other.seq;
    }
  };

  bool pop_and_run() {
    while (!heap_.empty()) {
      const entry e = heap_.top();
      heap_.pop();
      auto cit = cancelled_.find(e.id);
      if (cit != cancelled_.end()) {
        cancelled_.erase(cit);
        continue;
      }
      auto it = callbacks_.find(e.id);
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      now_ = e.t;
      ++executed_;
      fn();
      return true;
    }
    return false;
  }

  sim_time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::priority_queue<entry> heap_;
  std::unordered_map<event_id, std::function<void()>> callbacks_;
  std::unordered_set<event_id> cancelled_;
};

/// Drives `kernel` through `ops` random schedule / cancel / run_events /
/// run_until operations and returns everything observable: which event
/// fired at which time, every cancel() result, run counts, now() and
/// pending() after each operation. Callbacks schedule and cancel too,
/// often at their own instant. Events are named by their scheduling
/// index, so the two kernels' ids never need to agree.
template <typename Kernel>
std::vector<std::int64_t> drive(std::uint64_t seed, int ops) {
  Kernel k;
  util::rng g(seed);
  std::vector<event_id> ids;
  std::vector<std::int64_t> log;

  std::function<void()> schedule;  // schedules one event named ids.size()
  auto cancel_one = [&] {
    if (ids.empty() || g.bernoulli(0.05)) {
      log.push_back(k.cancel(0) ? 1 : 0);
      return;
    }
    const auto name = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    log.push_back(k.cancel(ids[name]) ? 1 : 0);
  };
  schedule = [&] {
    const std::int64_t name = static_cast<std::int64_t>(ids.size());
    const sim_time at = k.now() + g.uniform_int(0, 3) * g.uniform_int(0, 40);
    ids.push_back(k.schedule_at(at, [&, name] {
      log.push_back(-name - 1);
      log.push_back(k.now());
      if (g.bernoulli(0.3)) schedule();
      if (g.bernoulli(0.2)) cancel_one();
    }));
  };

  for (int i = 0; i < ops; ++i) {
    const double op = g.uniform();
    if (op < 0.55) {
      schedule();
    } else if (op < 0.8) {
      cancel_one();
    } else if (op < 0.95) {
      log.push_back(static_cast<std::int64_t>(
          k.run_events(static_cast<std::size_t>(g.uniform_int(0, 6)))));
    } else {
      log.push_back(static_cast<std::int64_t>(
          k.run_until(k.now() + g.uniform_int(0, 60))));
    }
    log.push_back(k.now());
    log.push_back(static_cast<std::int64_t>(k.pending()));
  }
  log.push_back(static_cast<std::int64_t>(k.run_until(k.now() + 1000000)));
  log.push_back(static_cast<std::int64_t>(k.executed()));
  return log;
}

TEST(simulator, randomized_differential_against_reference_kernel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<std::int64_t> expected =
        drive<reference_kernel>(seed, 25000);
    const std::vector<std::int64_t> actual = drive<simulator>(seed, 25000);
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << " entry " << i;
  }
}

}  // namespace
}  // namespace dbsm::sim
