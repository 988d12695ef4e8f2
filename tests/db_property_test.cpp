// Property-based tests: the lock table against a reference model under
// randomized operation sequences, storage bandwidth under parameterized
// concurrency, and certifier determinism under shuffled-but-identical
// delivery (the DBSM safety core).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "cert/reference_certifier.hpp"
#include "cert/rwset.hpp"
#include "cert/sharded_certifier.hpp"
#include "db/lock_table.hpp"
#include "db/storage.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dbsm::db {
namespace {

// ---------- lock table vs. reference model ----------

struct txn_probe {
  std::vector<item_id> items;
  bool certified = false;
  bool granted = false;
  bool aborted = false;
};

class lock_table_random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(lock_table_random, invariants_hold_under_random_schedules) {
  util::rng g(GetParam());
  lock_table lt;
  std::map<std::uint64_t, txn_probe> txns;
  std::uint64_t next_id = 1;

  for (int step = 0; step < 4000; ++step) {
    const double action = g.uniform();
    if (action < 0.5) {
      // New acquisition of 1..4 random items out of a small hot set.
      const std::uint64_t id = next_id++;
      txn_probe& p = txns[id];
      const int n = static_cast<int>(g.uniform_int(1, 4));
      std::set<item_id> set;
      for (int k = 0; k < n; ++k)
        set.insert(static_cast<item_id>(g.uniform_int(0, 15)) << 1);
      p.items.assign(set.begin(), set.end());
      p.certified = g.bernoulli(0.2);
      lt.acquire(
          id, p.items, p.certified, [&p] { p.granted = true; },
          [&p](lock_abort_cause) { p.aborted = true; });
    } else {
      // Terminate a random live holding transaction.
      std::vector<std::uint64_t> holders;
      for (auto& [id, p] : txns)
        if (p.granted && !p.aborted && lt.holds(id)) holders.push_back(id);
      if (holders.empty()) continue;
      const std::uint64_t victim = holders[static_cast<std::size_t>(
          g.uniform_int(0, static_cast<std::int64_t>(holders.size()) - 1))];
      if (g.bernoulli(0.7)) {
        lt.release_commit(victim);
      } else {
        lt.release_abort(victim);
      }
      txns.erase(victim);
    }
    lt.check_invariants();

    // Model checks:
    for (auto& [id, p] : txns) {
      // A certified transaction is never aborted by the lock table.
      if (p.certified) {
        EXPECT_FALSE(p.aborted) << "txn " << id;
      }
      // granted and aborted are mutually exclusive terminal states here
      // (holders can still be preempted, which flips granted->aborted,
      // but then the table must no longer know them).
      if (p.aborted) {
        EXPECT_FALSE(lt.holds(id));
      }
    }
    // No item has two holders (check_invariants covers structure; this
    // asserts the external view).
  }
  // Drain: everything still holding commits; waiters abort or inherit.
  std::vector<std::uint64_t> live;
  for (auto& [id, p] : txns)
    if (lt.holds(id)) live.push_back(id);
  for (std::uint64_t id : live) lt.release_commit(id);
  lt.check_invariants();
}

// ---------- lock table: the callback order, pinned ----------

std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

/// A random schedule that also marks holders certified, withdraws waiting
/// transactions with release_abort, and calls back into the table from
/// inside callbacks: a granted holder may release itself at once or start
/// another transaction, and an aborted one may retry as a new transaction.
/// Only callbacks that no other callback encloses call back, and they
/// never terminate a transaction other than their own, as the server
/// does. Every callback is logged in the order it fires.
struct reentrant_schedule {
  util::rng g;
  lock_table lt;
  std::map<std::uint64_t, txn_probe> live;  // acquired, not yet terminated
  std::vector<std::uint64_t> log;           // txn << 2 | 0 grant, 1, 2 abort
  std::uint64_t next_id = 1;
  int depth = 0;  // callbacks running
  int nested = 0, marked = 0, withdrawn = 0, preempted = 0, lost = 0;

  explicit reentrant_schedule(std::uint64_t seed) : g(seed) {}

  void acquire(bool certified) {
    const std::uint64_t id = next_id++;
    txn_probe& p = live[id];
    const int n = static_cast<int>(g.uniform_int(1, 4));
    std::set<item_id> set;
    for (int k = 0; k < n; ++k)
      set.insert(static_cast<item_id>(g.uniform_int(0, 15)) << 1);
    p.items.assign(set.begin(), set.end());
    p.certified = certified;
    // The closures only forward: they may be destroyed while they run.
    lt.acquire(
        id, p.items, certified, [this, id] { on_granted(id); },
        [this, id](lock_abort_cause c) { on_aborted(id, c); });
  }

  void on_granted(std::uint64_t id) {
    log.push_back(id << 2);
    live.at(id).granted = true;
    if (depth > 0) return;
    ++depth;
    const double x = g.uniform();
    if (x < 0.15) {
      ++nested;
      lt.release_commit(id);
      live.erase(id);
    } else if (x < 0.25) {
      ++nested;
      lt.release_abort(id);
      live.erase(id);
    } else if (x < 0.4) {
      ++nested;
      acquire(false);
    }
    --depth;
  }

  void on_aborted(std::uint64_t id, lock_abort_cause c) {
    const bool by_commit = c == lock_abort_cause::holder_committed;
    log.push_back(id << 2 | (by_commit ? 1 : 2));
    (by_commit ? lost : preempted) += 1;
    auto it = live.find(id);
    EXPECT_NE(it, live.end()) << "txn " << id << " aborted twice";
    if (it == live.end()) return;
    EXPECT_FALSE(it->second.certified) << "certified txn " << id << " aborted";
    live.erase(it);
    if (depth > 0) return;
    ++depth;
    if (g.bernoulli(0.3)) {
      ++nested;
      acquire(false);
    }
    --depth;
  }

  /// A random live transaction `pick` selects, or 0.
  template <typename Pred>
  std::uint64_t pick(Pred&& pred) {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, p] : live)
      if (pred(p)) ids.push_back(id);
    if (ids.empty()) return 0;
    return ids[static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  }

  /// The table's view of every live transaction matches the callbacks.
  void check() {
    lt.check_invariants();
    for (const auto& [id, p] : live) {
      ASSERT_EQ(lt.holds(id), p.granted) << "txn " << id;
      ASSERT_EQ(lt.waiting(id), !p.granted) << "txn " << id;
    }
  }

  void step() {
    const double x = g.uniform();
    if (x < 0.4) {
      acquire(g.bernoulli(0.2));
    } else if (x < 0.5) {
      const std::uint64_t id =
          pick([](const txn_probe& p) { return p.granted && !p.certified; });
      if (id == 0) return;
      ++marked;
      lt.mark_certified(id);
      live.at(id).certified = true;
    } else if (x < 0.8) {
      const std::uint64_t id =
          pick([](const txn_probe& p) { return p.granted; });
      if (id == 0) return;
      lt.release_commit(id);
      live.erase(id);
    } else {
      const std::uint64_t id = pick([](const txn_probe&) { return true; });
      if (id == 0) return;
      if (!live.at(id).granted) ++withdrawn;
      lt.release_abort(id);
      live.erase(id);
    }
  }
};

TEST_P(lock_table_random, callback_order_is_pinned) {
  // FNV-1a of the callback log per seed, taken from the node-map lock
  // table this test was written against.
  const std::map<std::uint64_t, std::uint64_t> pinned = {
      {1, 16867842042583940373ull},     {2, 5765956579328568554ull},
      {3, 9561450965299259182ull},     {17, 8567054381922925049ull},
      {99, 16595292781133484284ull},   {12345, 14269141924192698015ull},
  };
  reentrant_schedule s(GetParam());
  for (int i = 0; i < 4000; ++i) {
    s.step();
    s.check();
    if (HasFatalFailure()) return;
  }
  // Drain: commit every holder; uncertified waiters lose to the
  // committers, certified ones inherit and commit in turn.
  for (;;) {
    const std::uint64_t id =
        s.pick([](const txn_probe& p) { return p.granted; });
    if (id == 0) break;
    s.lt.release_commit(id);
    s.live.erase(id);
    s.check();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(s.live.empty());
  EXPECT_EQ(s.lt.held_items(), 0u);
  EXPECT_GT(s.nested, 0);
  EXPECT_GT(s.marked, 0);
  EXPECT_GT(s.withdrawn, 0);
  EXPECT_GT(s.preempted, 0);
  EXPECT_GT(s.lost, 0);
  EXPECT_EQ(fnv1a(s.log), pinned.at(GetParam()))
      << "seed " << GetParam() << ": " << s.log.size() << " callbacks";
}

INSTANTIATE_TEST_SUITE_P(seeds, lock_table_random,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

// ---------- storage properties ----------

class storage_concurrency : public ::testing::TestWithParam<unsigned> {};

TEST_P(storage_concurrency, throughput_scales_with_parallelism) {
  const unsigned lanes = GetParam();
  sim::simulator s;
  storage_config cfg;
  cfg.max_concurrent = lanes;
  storage disk(s, cfg, util::rng(1));
  int done = 0;
  for (int i = 0; i < 120; ++i) disk.write(4096, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 120);
  // 120 sectors at `lanes` concurrency: ceil(120/lanes) waves.
  const double waves = std::ceil(120.0 / lanes);
  EXPECT_NEAR(static_cast<double>(s.now()),
              waves * static_cast<double>(cfg.request_latency),
              static_cast<double>(cfg.request_latency));
}

INSTANTIATE_TEST_SUITE_P(lanes, storage_concurrency,
                         ::testing::Values(1, 2, 4, 8));

TEST(storage_property, partial_cache_scales_read_cost) {
  // With hit ratio h, roughly (1-h) of sectors touch storage.
  sim::simulator s;
  storage_config cfg;
  cfg.cache_hit_ratio = 0.75;
  storage disk(s, cfg, util::rng(7));
  int done = 0;
  for (int i = 0; i < 400; ++i) disk.read(4096, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 400);
  EXPECT_NEAR(static_cast<double>(disk.sectors_read()), 100.0, 25.0);
}

// ---------- certifier determinism under identical sequences ----------

TEST(certifier_property, replicas_agree_for_any_seed) {
  for (std::uint64_t seed : {7u, 21u, 404u}) {
    util::rng g(seed);
    // Two replicas plus the reference scan certifier as the oracle.
    cert::sharded_certifier a, b;
    cert::reference_certifier c;
    for (int i = 0; i < 3000; ++i) {
      const auto begin = static_cast<std::uint64_t>(
          g.uniform_int(std::max<std::int64_t>(
                            0, static_cast<std::int64_t>(a.position()) - 40),
                        a.position()));
      std::vector<item_id> rs, ws;
      const int nr = static_cast<int>(g.uniform_int(0, 6));
      for (int k = 0; k < nr; ++k) {
        item_id id = static_cast<item_id>(g.uniform_int(0, 300)) << 1;
        if (g.bernoulli(0.1)) id |= 1;  // occasional granule read
        rs.push_back(id);
      }
      const int nw = static_cast<int>(g.uniform_int(1, 5));
      for (int k = 0; k < nw; ++k) {
        const item_id id = static_cast<item_id>(g.uniform_int(0, 300)) << 1;
        ws.push_back(id);
        if (g.bernoulli(0.3)) ws.push_back(id | 1);  // advertise granule
      }
      cert::normalize(rs);
      cert::normalize(ws);
      const bool da = a.certify_update(begin, rs, ws);
      const bool db_ = b.certify_update(begin, rs, ws);
      const bool dc = c.certify_update(begin, rs, ws);
      ASSERT_EQ(da, db_) << "seed " << seed << " step " << i;
      ASSERT_EQ(da, dc) << "seed " << seed << " step " << i;
    }
    EXPECT_EQ(a.commits(), b.commits());
    EXPECT_EQ(a.position(), c.position());
  }
}

TEST(certifier_property, commit_implies_no_overlap_with_window) {
  // Soundness spot-check: after a commit decision, re-verify by hand that
  // no committed write set in the window overlapped.
  util::rng g(5);
  cert::sharded_certifier c;
  std::vector<std::pair<std::uint64_t, std::vector<item_id>>> committed;
  for (int i = 0; i < 1500; ++i) {
    const auto begin = static_cast<std::uint64_t>(
        g.uniform_int(std::max<std::int64_t>(
                          0, static_cast<std::int64_t>(c.position()) - 20),
                      c.position()));
    std::vector<item_id> ws{static_cast<item_id>(g.uniform_int(0, 50)) << 1};
    const bool decision = c.certify_update(begin, {}, ws);
    const std::uint64_t pos = c.position();
    if (decision) {
      for (const auto& [cpos, cws] : committed) {
        if (cpos > begin) {
          ASSERT_FALSE(cert::write_write_conflicts(cws, ws))
              << "at position " << pos;
        }
      }
      committed.emplace_back(pos, ws);
    }
  }
}

}  // namespace
}  // namespace dbsm::db
