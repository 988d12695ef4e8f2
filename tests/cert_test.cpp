// Tests of the certification prototype (§3.3): set operations, granule
// escalation semantics, determinism, snapshot windows, and the codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/rwset.hpp"
#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "counting_new.hpp"
#include "db/item.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dbsm::cert {
namespace {

using db::item_id;
using db::make_granule;
using db::make_item;

TEST(item_codec, field_round_trip) {
  const item_id id = make_item(8, 123456, 9, 54321);
  EXPECT_EQ(db::item_table(id), 8u);
  EXPECT_EQ(db::item_warehouse(id), 123456u);
  EXPECT_EQ(db::item_district(id), 9u);
  EXPECT_EQ(db::item_row(id), 54321u);
  EXPECT_FALSE(db::is_granule(id));

  const item_id g = make_granule(8, 123456, 9);
  EXPECT_TRUE(db::is_granule(g));
  EXPECT_EQ(db::item_table(g), 8u);
  EXPECT_EQ(db::item_warehouse(g), 123456u);
}

TEST(item_codec, table_in_highest_bits_orders_by_table) {
  // §3.3: "including the table identifier as the highest order bits".
  EXPECT_LT(make_item(1, 0xffffff, 255, 100000),
            make_item(2, 0, 0, 0));
}

TEST(rwset, normalize_sorts_and_dedups) {
  std::vector<item_id> v{5, 3, 5, 1, 3};
  normalize(v);
  EXPECT_EQ(v, (std::vector<item_id>{1, 3, 5}));
}

TEST(rwset, intersects_sorted_sets) {
  EXPECT_TRUE(intersects({1, 3, 5}, {5, 9}));
  EXPECT_FALSE(intersects({1, 3, 5}, {2, 4, 6}));
  EXPECT_FALSE(intersects({}, {1}));
}

TEST(rwset, write_write_ignores_granule_matches) {
  const item_id g = make_granule(2, 7, 0);
  const item_id t1 = make_item(2, 7, 1, 100);
  const item_id t2 = make_item(2, 7, 1, 200);
  // Both wrote different tuples of the same granule: no tuple conflict.
  std::vector<item_id> a{t1, g}, b{t2, g};
  normalize(a);
  normalize(b);
  EXPECT_FALSE(write_write_conflicts(a, b));
  // Same tuple: conflict.
  std::vector<item_id> c{t1, g};
  normalize(c);
  EXPECT_TRUE(write_write_conflicts(a, c));
  // But an escalated READ against the granule does intersect.
  EXPECT_TRUE(intersects(std::vector<item_id>{g}, a));
}

TEST(rwset, append_scan_escalates_beyond_threshold) {
  const item_id g = make_granule(2, 7, 0);
  std::vector<item_id> small{1, 2, 3};
  std::vector<item_id> out;
  append_scan(out, small, g, 4);
  EXPECT_EQ(out.size(), 3u);  // kept tuple-level
  out.clear();
  std::vector<item_id> big{1, 2, 3, 4, 5};
  append_scan(out, big, g, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], g);
}

// ---------- certifier ----------

// Handy ids: tuples are even (bit 0 clear), granules odd.
constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

TEST(certifier, no_conflict_commits) {
  sharded_certifier c;
  EXPECT_TRUE(c.certify_update(0, {tup(1), tup(2)}, {tup(3)}));
  EXPECT_TRUE(c.certify_update(0, {tup(4)}, {tup(5)}));
  EXPECT_EQ(c.commits(), 2u);
  EXPECT_EQ(c.position(), 2u);
}

TEST(certifier, point_reads_are_snapshot_served) {
  // Multi-version engine: a tuple-level read of a concurrently committed
  // write is served from the snapshot — no abort.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  EXPECT_TRUE(c.certify_update(0, {tup(10)}, {tup(99)}));
}

TEST(certifier, granule_read_conflicts_with_concurrent_write) {
  // Escalated scans cannot be versioned: a granule read aborts on any
  // concurrent committed write advertising that granule.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(7), tup(10)}));
  EXPECT_FALSE(c.certify_update(0, {gran(7)}, {tup(99)}));
  EXPECT_TRUE(c.certify_update(1, {gran(7)}, {tup(99)}));  // after: fine
}

TEST(certifier, write_write_conflict_aborts) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  EXPECT_FALSE(c.certify_update(0, {}, {tup(10), tup(11)}));
}

TEST(certifier, granule_granule_writes_do_not_conflict) {
  // Two writers inside the same granule (different tuples) commit both.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(7), tup(10)}));
  EXPECT_TRUE(c.certify_update(0, {}, {gran(7), tup(11)}));
}

TEST(certifier, aborted_transactions_leave_no_trace) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  ASSERT_FALSE(c.certify_update(0, {}, {tup(10)}));  // aborts (pos 2)
  // Conflicts come only from *committed* write sets — the aborted one at
  // position 2 is invisible to later transactions.
  EXPECT_TRUE(c.certify_update(1, {}, {tup(10)}));
}

TEST(certifier, snapshot_window_bounds_conflicts) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(1), gran(1)}));  // pos 1
  ASSERT_TRUE(c.certify_update(1, {}, {tup(2), gran(2)}));  // pos 2
  ASSERT_TRUE(c.certify_update(2, {}, {tup(3), gran(3)}));  // pos 3
  // Snapshot at pos 2: only the granule-3 write is concurrent.
  EXPECT_TRUE(c.certify_update(2, {gran(1), gran(2)}, {tup(40)}));
  EXPECT_FALSE(c.certify_update(2, {gran(3)}, {tup(41)}));
}

TEST(certifier, read_only_certification_is_positionless) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(4), tup(10)}));
  const auto pos = c.position();
  EXPECT_FALSE(c.certify_read_only(0, {gran(4)}));
  EXPECT_TRUE(c.certify_read_only(pos, {gran(4)}));
  EXPECT_TRUE(c.certify_read_only(0, {gran(5)}));
  EXPECT_TRUE(c.certify_read_only(0, {tup(10)}));  // snapshot-served
  EXPECT_EQ(c.position(), pos);  // unchanged
}

TEST(certifier, identical_sequences_identical_decisions) {
  // The safety core: two replicas fed the same sequence decide alike.
  sharded_certifier a, b;
  util::rng g(17);
  for (int i = 0; i < 2000; ++i) {
    const auto begin =
        static_cast<std::uint64_t>(g.uniform_int(0, a.position()));
    std::vector<item_id> rs, ws;
    for (int k = 0; k < 4; ++k)
      rs.push_back(static_cast<item_id>(g.uniform_int(0, 200)) << 1);
    for (int k = 0; k < 2; ++k)
      ws.push_back(static_cast<item_id>(g.uniform_int(0, 200)) << 1);
    normalize(rs);
    normalize(ws);
    EXPECT_EQ(a.certify_update(begin, rs, ws),
              b.certify_update(begin, rs, ws));
  }
  EXPECT_EQ(a.commits(), b.commits());
}

TEST(certifier, history_window_gc_conservative_abort) {
  cert_config cfg;
  cfg.history_window = 10;
  sharded_certifier c(cfg);
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(1000 + i)}));
  // Snapshot far behind the retained window: conservative abort even
  // without any real conflict.
  EXPECT_FALSE(c.certify_update(0, {tup(2)}, {tup(4)}));
  EXPECT_EQ(c.history_size(), 10u);
}

TEST(certifier, purge_bounds_the_index_to_the_recent_commits) {
  // Stale index entries leave in bulk: once the window is full, every
  // `window` commits each shard drops the entries that are no longer
  // inside the window. The index therefore never holds more than the ids
  // of the last 2 × window commits; without the purge it would keep every
  // id ever written. Decisions are the oracle's.
  constexpr std::size_t window = 10;
  constexpr std::size_t recent_commits = 2 * window;
  cert_config cfg;
  cfg.history_window = window;
  sharded_certifier c(cfg);
  reference_certifier oracle(cfg);
  util::rng g(5);
  std::deque<std::size_t> recent;  // write-set sizes, newest last
  std::uint64_t next_id = 1;
  while (c.commits() < 1000) {
    std::vector<item_id> ws;
    const int n = static_cast<int>(g.uniform_int(1, 4));
    for (int k = 0; k < n; ++k) ws.push_back(tup(next_id++));
    const std::uint64_t pos = c.position();
    const std::uint64_t begin =
        pos - std::min<std::uint64_t>(
                  pos, static_cast<std::uint64_t>(g.uniform_int(0, 12)));
    const bool committed = c.certify_update(begin, {}, ws);
    ASSERT_EQ(committed, oracle.certify_update(begin, {}, ws))
        << "position " << c.position();
    if (committed) {
      recent.push_back(ws.size());
      if (recent.size() > recent_commits) recent.pop_front();
    }
    std::size_t bound = 0;
    for (const std::size_t n_ids : recent) bound += n_ids;
    ASSERT_LE(c.index_size(), bound) << "after " << c.commits() << " commits";
  }
  EXPECT_GT(c.aborts(), 0u);  // the pre-window rule fired too
  EXPECT_EQ(c.history_size(), window);
}

TEST(certifier, cost_model_is_window_independent_and_set_linear) {
  // Indexed certification probes each element of the transaction's own
  // sets once: the modeled cost depends only on the set sizes, never on
  // how much history the snapshot spans.
  sharded_certifier c;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(i)}));
  c.certify_update(c.position(), {gran(9999)}, {tup(8888)});
  const auto small_window = c.last_cost();
  c.certify_update(0, {gran(9999)}, {tup(8887)});
  const auto big_window = c.last_cost();
  EXPECT_EQ(big_window, small_window);

  cert_config cfg;
  sharded_certifier d(cfg);
  d.certify_update(0, {tup(1)}, {tup(2)});
  const auto two_elems = d.last_cost();
  d.certify_update(0, {tup(3), tup(4)}, {tup(5), tup(6)});
  const auto four_elems = d.last_cost();
  EXPECT_EQ(four_elems - two_elems, 2 * cost_per_element);
  EXPECT_EQ(two_elems, cost_fixed + 2 * cost_per_element);
}

TEST(certifier, modeled_cost_tracks_real_cost_order) {
  // Calibration pin for the cost model: the modeled charge of a warm
  // certification must stay the same order of magnitude as the real
  // wall-clock of the identical work on the host. The band is wide —
  // a factor of 16 either way — because CI hosts vary enormously, but
  // it still catches a units slip (ns-vs-us would be x1000) or a model
  // that silently stops tracking the probe loop. Measured on the
  // calibration host by the certification shard sweep at one shard
  // (bench/BENCH_cert_shards.json, deleted with the fork-join): real
  // ~27.7 us vs modeled ~33.0 us at a 256-element set, ratio 0.84.
  cert_config cfg;
  cfg.history_window = 1000;
  sharded_certifier c(cfg);
  util::rng g(2026);
  auto make_set = [&](std::size_t n) {
    std::vector<item_id> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      s.push_back(tup(static_cast<std::uint64_t>(g.uniform_int(1, 1 << 20))));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  // Warm the history window so probes hit a populated index, as in the
  // bench's steady state.
  for (int i = 0; i < 600; ++i) c.certify_update(c.position(), {}, make_set(256));

  // Time in short chunks and keep the fastest one: a chunk that runs
  // inside a single scheduler quantum measures the unloaded cost, so the
  // minimum is robust to the rest of the (possibly parallel) test run
  // preempting this process — on a loaded 1-core CI host the mean can be
  // inflated by an order of magnitude, the min cannot.
  constexpr int kChunks = 20;
  constexpr int kItersPerChunk = 15;
  std::vector<std::vector<item_id>> sets;
  sets.reserve(kChunks * kItersPerChunk);
  for (int i = 0; i < kChunks * kItersPerChunk; ++i)
    sets.push_back(make_set(256));

  sim_duration modeled = 0;
  double best_chunk_us = 0;
  std::size_t next = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kItersPerChunk; ++i) {
      c.certify_update(c.position(), {}, sets[next]);
      modeled += c.last_cost();
      ++next;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            t1 - t0)
            .count();
    if (chunk == 0 || us < best_chunk_us) best_chunk_us = us;
  }
  const double real_us = best_chunk_us / kItersPerChunk;
  const double modeled_us =
      to_micros(modeled) / static_cast<double>(kChunks * kItersPerChunk);
  ASSERT_GT(real_us, 0.0);
  const double ratio = modeled_us / real_us;
  EXPECT_GT(ratio, 1.0 / 16.0) << "modeled " << modeled_us << " us vs real "
                               << real_us << " us per certification";
  EXPECT_LT(ratio, 16.0) << "modeled " << modeled_us << " us vs real "
                         << real_us << " us per certification";
}

TEST(reference_certifier, cost_model_scales_with_window) {
  // The reference scan keeps the historical window-proportional model.
  reference_certifier c;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(i)}));
  c.certify_update(c.position(), {gran(9999)}, {tup(8888)});
  const auto small_window = c.last_cost();
  c.certify_update(0, {gran(9999)}, {tup(8887)});
  const auto big_window = c.last_cost();
  EXPECT_GT(big_window, small_window);
}

TEST(reference_certifier, seeded_stream_output_is_pinned) {
  // Seeded streams through a 64-entry window, each with its five figures
  // pinned: evictions, snapshots that predate the window (conservative
  // aborts), escalated granule reads, point reads and a read-only
  // certification every seventh call. Any implementation of the scan
  // must reproduce them.
  //   * sparse: 1-4 written tuples from 3,001 rows, 364 pre-window
  //     snapshots, granule reads in 2190 read sets. Its figures come from
  //     the deque-of-vectors history this oracle kept before its flat
  //     layout.
  //   * dense: 16-64 written tuples from 200,001 rows, each with its
  //     granule marker, granule reads from 8,192 granules in most read
  //     sets and 420 pre-window snapshots. A scan meets ~1,700 stored ids
  //     per call and nearly all are in none of the transaction's sets, so
  //     nearly every hit in the scan's query filter is false and its
  //     confirm must refuse it; 455 calls conflict on a granule read only,
  //     315 on a written tuple only.
  struct shape {
    const char* name;
    std::uint64_t seed;
    int calls;
    std::int64_t max_lag;
    std::int64_t max_reads;
    double granule_read_p;
    std::int64_t read_granules;  // granule reads from [0, read_granules]
    std::int64_t min_writes, max_writes;
    std::int64_t rows;       // tuples (read and written) from [0, rows]
    std::uint64_t granules;  // row r falls into granule r % granules
    std::uint64_t commits, aborts, history, oldest;
    sim_duration cost_sum;
  };
  const shape shapes[] = {
      {"sparse", 2005, 5000, 120, 6, 0.2, 40, 1, 4, 3000, 41,  //
       2498, 1788, 64, 4172, 108518840},
      {"dense", 2025, 3000, 140, 8, 0.5, 8191, 16, 64, 200000, 8192,  //
       1403, 1169, 64, 2454, 717302280},
  };
  for (const shape& s : shapes) {
    SCOPED_TRACE(s.name);
    cert_config cfg;
    cfg.history_window = 64;
    reference_certifier c(cfg);
    util::rng g(s.seed);
    sim_duration cost_sum = 0;
    for (int i = 0; i < s.calls; ++i) {
      const auto lag = static_cast<std::uint64_t>(g.uniform_int(0, s.max_lag));
      const std::uint64_t begin = c.position() > lag ? c.position() - lag : 0;
      std::vector<item_id> rs, ws;
      for (std::int64_t k = g.uniform_int(0, s.max_reads); k > 0; --k) {
        if (g.bernoulli(s.granule_read_p)) {
          rs.push_back(gran(
              static_cast<std::uint64_t>(g.uniform_int(0, s.read_granules))));
        } else {
          rs.push_back(
              tup(static_cast<std::uint64_t>(g.uniform_int(0, s.rows))));
        }
      }
      for (std::int64_t k = g.uniform_int(s.min_writes, s.max_writes); k > 0;
           --k) {
        const auto row = static_cast<std::uint64_t>(g.uniform_int(0, s.rows));
        ws.push_back(tup(row));
        ws.push_back(gran(row % s.granules));  // the tuple's granule
      }
      normalize(rs);
      normalize(ws);
      if (i % 7 == 6) {
        c.certify_read_only(begin, rs);
      } else {
        c.certify_update(begin, rs, ws);
      }
      cost_sum += c.last_cost();
    }
    EXPECT_EQ(c.commits(), s.commits);
    EXPECT_EQ(c.aborts(), s.aborts);
    EXPECT_EQ(c.history_size(), s.history);
    EXPECT_EQ(c.oldest_retained(), s.oldest);
    EXPECT_EQ(cost_sum, s.cost_sum);
  }
}

// rollback(p) against a fresh certifier fed only the kept prefix. Random
// streams run through windows of 4-16, so commits evict; each is settled
// at random points and rolled back to random positions past the settled
// prefix, often further back than the window. Every other stream also
// forgets through random bounds at or below the settled prefix and draws
// its snapshots at or above the bound from then on. After each rollback
// the counters must be the fresh, never-forgetting certifier's, and so
// must max(oldest_retained(), bound + 1) and, before any forgetting, the
// live window; on a random continuation both must decide alike at the
// same modeled cost.
TEST(reference_certifier, rollback_matches_a_certifier_fed_the_kept_prefix) {
  struct txn {
    bool read_only = false;
    std::uint64_t begin = 0;
    std::vector<item_id> rs, ws;
  };
  util::rng g(21);
  const auto uniform = [&g](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint64_t>(g.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  // A snapshot up to 24 positions back, but not below `floor`.
  const auto random_txn = [&](std::uint64_t position, std::uint64_t floor) {
    txn t;
    t.read_only = g.bernoulli(0.1);
    const std::uint64_t lag = uniform(0, 24);
    t.begin = std::max(position > lag ? position - lag : 0, floor);
    for (std::uint64_t k = uniform(0, 3); k > 0; --k)
      t.rs.push_back(g.bernoulli(0.3) ? gran(uniform(0, 15))
                                      : tup(uniform(0, 200)));
    for (std::uint64_t k = uniform(1, 3); k > 0; --k) {
      const std::uint64_t row = uniform(0, 60);
      t.ws.push_back(tup(row));
      t.ws.push_back(gran(row % 16));
    }
    normalize(t.rs);
    normalize(t.ws);
    return t;
  };
  const auto feed = [](reference_certifier& c, const txn& t) {
    return t.read_only ? c.certify_read_only(t.begin, t.rs)
                       : c.certify_update(t.begin, t.rs, t.ws);
  };
  std::uint64_t restored = 0;  // rollbacks that brought evicted sets back
  std::uint64_t forgot = 0;    // rollbacks leaving fewer live write sets
  for (int stream = 0; stream < 60; ++stream) {
    const bool forgets = stream % 2 == 1;
    cert_config cfg;
    cfg.history_window = uniform(4, 16);
    reference_certifier c(cfg);
    c.settle(0);
    std::vector<txn> kept;  // the updates c has certified, by position
    for (int round = 0; round < 6; ++round) {
      for (std::uint64_t i = uniform(0, 80); i > 0; --i) {
        const txn t = random_txn(c.position(), c.forgotten());
        feed(c, t);
        if (!t.read_only) kept.push_back(t);
        if (g.bernoulli(0.05)) c.settle(uniform(c.settled(), c.position()));
        if (forgets && g.bernoulli(0.1))
          c.forget_through(uniform(c.forgotten(), c.settled()));
      }
      const std::uint64_t oldest = c.oldest_retained();
      const std::uint64_t p = uniform(c.settled() + 1, c.position() + 1);
      c.rollback(p);
      kept.resize(p - 1);
      reference_certifier fresh(cfg);
      for (const txn& t : kept) feed(fresh, t);
      const std::uint64_t b = c.forgotten();
      ASSERT_EQ(c.position(), fresh.position());
      ASSERT_EQ(std::max(c.oldest_retained(), b + 1),
                std::max(fresh.oldest_retained(), b + 1));
      ASSERT_EQ(c.commits(), fresh.commits());
      ASSERT_EQ(c.aborts(), fresh.aborts());
      if (b == 0) {
        ASSERT_EQ(c.history_size(), fresh.history_size());
      } else {
        ASSERT_LE(c.history_size(), fresh.history_size());
        if (c.history_size() < fresh.history_size()) ++forgot;
      }
      if (c.oldest_retained() < oldest) ++restored;
      for (int i = 0; i < 30; ++i) {
        const txn t = random_txn(c.position(), b);
        ASSERT_EQ(feed(c, t), feed(fresh, t))
            << "stream " << stream << " round " << round << " txn " << i;
        ASSERT_EQ(c.last_cost(), fresh.last_cost());
        if (!t.read_only) kept.push_back(t);
      }
    }
  }
  EXPECT_GT(restored, 60u);
  EXPECT_GT(forgot, 30u);
}

TEST(reference_certifier, rollback_refuses_what_it_cannot_restore) {
  cert_config cfg;
  cfg.history_window = 4;
  // Never settled, the certifier compacts whenever the evicted prefix is
  // as long as the rest: after 38 commits it stores positions 33-38.
  reference_certifier never_settled(cfg);
  for (std::uint64_t i = 0; i < 38; ++i)
    ASSERT_TRUE(never_settled.certify_update(i, {}, {tup(i)}));
  ASSERT_EQ(never_settled.stored_size(), 6u);
  // A rollback to 2 would need the write sets compaction freed ...
  EXPECT_THROW(never_settled.rollback(2), invariant_violation);
  // ... one to 38 needs only the window before it and the entry before
  // that, positions 33-37.
  never_settled.rollback(38);
  EXPECT_EQ(never_settled.position(), 37u);
  EXPECT_EQ(never_settled.oldest_retained(), 34u);
  EXPECT_EQ(never_settled.history_size(), 4u);

  reference_certifier settled(cfg);
  settled.settle(0);
  ASSERT_TRUE(settled.certify_update(0, {}, {tup(1)}));
  settled.settle(1);
  EXPECT_THROW(settled.rollback(1), invariant_violation);  // settled
  EXPECT_THROW(settled.rollback(3), invariant_violation);  // the future
  EXPECT_THROW(settled.settle(2), invariant_violation);
  // Forgetting is bounded by the settled prefix, and no snapshot may
  // then fall below the bound.
  EXPECT_THROW(settled.forget_through(2), invariant_violation);
  settled.forget_through(1);
  EXPECT_THROW(settled.certify_update(0, {}, {tup(2)}), invariant_violation);
  EXPECT_THROW(settled.certify_read_only(0, {gran(1)}), invariant_violation);
  EXPECT_EQ(settled.position(), 1u);

  // A rollback over a compacted prefix that lies wholly at or below the
  // bound: positions 1-8 are forgotten, 1-7 freed and 8-10 stored.
  reference_certifier forgetting(cfg);
  forgetting.settle(0);
  for (std::uint64_t i = 0; i < 10; ++i)
    ASSERT_TRUE(forgetting.certify_update(i, {}, {tup(i)}));
  forgetting.settle(8);
  forgetting.forget_through(8);
  ASSERT_EQ(forgetting.stored_size(), 3u);
  forgetting.rollback(9);
  EXPECT_EQ(forgetting.position(), 8u);
  EXPECT_EQ(forgetting.commits(), 8u);
  EXPECT_EQ(forgetting.history_size(), 0u);
  EXPECT_EQ(forgetting.oldest_retained(), 9u);
  EXPECT_TRUE(forgetting.certify_update(8, {}, {tup(7)}));
}

// ---------- codec ----------

TEST(txn_codec, round_trip) {
  txn_payload p;
  p.id = db::make_txn_id(2, 0x3456789abcull);
  p.cls = 3;
  p.origin = 2;
  p.begin_pos = 777;
  p.low_water = 700;
  p.read_set = {make_item(1, 2, 3, 4), make_granule(2, 7, 0)};
  p.write_set = {make_item(4, 5, 6, 7)};
  p.update_bytes = 321;

  const auto raw = encode_txn(p);
  EXPECT_EQ(raw->size(), encoded_size(p));
  const txn_payload q = decode_txn(raw);
  EXPECT_EQ(q.id, p.id);
  EXPECT_EQ(q.cls, p.cls);
  EXPECT_EQ(q.origin, p.origin);
  EXPECT_EQ(q.begin_pos, p.begin_pos);
  EXPECT_EQ(q.low_water, p.low_water);
  EXPECT_EQ(q.read_set, p.read_set);
  EXPECT_EQ(q.write_set, p.write_set);
  EXPECT_EQ(q.update_bytes, p.update_bytes);
}

TEST(txn_codec, oversized_set_count_is_rejected_before_allocation) {
  txn_payload p;
  p.read_set = {make_item(1, 2, 3, 4)};
  util::bytes b = encode_txn(p)->written_out();
  // The read-set count follows id (8), class (2), the low-water lag (4)
  // and the snapshot position (8).
  for (int i = 0; i < 4; ++i) b[22 + i] = 0xff;
  EXPECT_THROW(decode_txn(std::make_shared<const util::byte_buffer>(b)),
               invariant_violation);
}

// Random payloads (tuples, granules, value padding, low waters) survive
// encode -> decode -> encode byte for byte. Each encoding is then mutated
// — every byte flipped, every truncation, 1-8 appended bytes, each set
// count set to all ones, the low-water lag set to the snapshot and one
// past it — and each mutant either decodes to a payload whose encoding is
// the mutant with its value padding zeroed, or throws invariant_violation.
// Any other exception (std::bad_alloc, std::length_error) fails the test.
TEST(txn_codec, every_mutant_decodes_exactly_or_throws) {
  util::rng g(22);
  const auto exact_or_rejected = [](util::bytes b) {
    try {
      const txn_payload p =
          decode_txn(std::make_shared<const util::byte_buffer>(b));
      std::fill(b.end() - p.update_bytes, b.end(), std::uint8_t{0});
      EXPECT_EQ(encode_txn(p)->written_out(), b);
    } catch (const invariant_violation&) {
    }
  };
  const auto random_set = [&g] {
    std::vector<item_id> set;
    for (std::int64_t k = g.uniform_int(0, 5); k > 0; --k) {
      const auto w = static_cast<std::uint32_t>(g.uniform_int(0, 9));
      set.push_back(g.bernoulli(0.3)
                        ? make_granule(3, w, 2)
                        : make_item(3, w, 2,
                                    static_cast<std::uint32_t>(
                                        g.uniform_int(0, 99999))));
    }
    normalize(set);
    return set;
  };
  for (int rep = 0; rep < 40; ++rep) {
    txn_payload p;
    p.origin = static_cast<node_id>(g.uniform_int(0, 4));
    p.id = db::make_txn_id(p.origin, g.next_u64() >> 24);
    p.cls = static_cast<db::txn_class>(g.uniform_int(0, 4));
    // Half the snapshots are small enough for a lag to overrun them.
    p.begin_pos = rep % 2 == 0
                      ? g.next_u64()
                      : static_cast<std::uint64_t>(g.uniform_int(0, 5000));
    p.low_water =
        p.begin_pos - std::min<std::uint64_t>(p.begin_pos, g.next_u64() >> 32);
    p.read_set = random_set();
    p.write_set = random_set();
    p.update_bytes = static_cast<std::uint32_t>(g.uniform_int(0, 48));
    p.disk_sectors = static_cast<std::uint16_t>(g.uniform_int(0, 8));
    const util::shared_bytes raw = encode_txn(p);
    const util::bytes b = raw->written_out();
    ASSERT_EQ(encode_txn(decode_txn(raw))->written_out(), b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      util::bytes m = b;
      m[i] ^= static_cast<std::uint8_t>(g.uniform_int(1, 255));
      exact_or_rejected(m);
    }
    for (std::size_t len = 0; len < b.size(); ++len)
      exact_or_rejected(util::bytes(b.begin(), b.begin() + len));
    util::bytes longer = b;
    for (int extra = 1; extra <= 8; ++extra) {
      longer.push_back(static_cast<std::uint8_t>(g.next_u64()));
      exact_or_rejected(longer);
    }
    // The read-set count follows id (8), class (2), the low-water lag (4)
    // and the snapshot position (8); the write-set count follows the read
    // set.
    for (const std::size_t at : {std::size_t{22}, 26 + 8 * p.read_set.size()}) {
      util::bytes m = b;
      std::fill(m.begin() + static_cast<std::ptrdiff_t>(at),
                m.begin() + static_cast<std::ptrdiff_t>(at + 4),
                std::uint8_t{0xff});
      exact_or_rejected(m);
    }
    // The lag at byte 10: the whole snapshot decodes to a low water of 0,
    // one more is rejected.
    if (p.begin_pos < std::numeric_limits<std::uint32_t>::max()) {
      const auto with_lag = [&b](std::uint64_t lag) {
        util::bytes m = b;
        for (int k = 0; k < 4; ++k)
          m[10 + k] = static_cast<std::uint8_t>(lag >> (8 * k));
        return std::make_shared<const util::byte_buffer>(m);
      };
      EXPECT_EQ(decode_txn(with_lag(p.begin_pos)).low_water, 0u);
      EXPECT_THROW(decode_txn(with_lag(p.begin_pos + 1)),
                   invariant_violation);
    }
  }
}

TEST(txn_codec, encode_rejects_what_decode_could_not_restore) {
  txn_payload p;
  p.id = db::make_txn_id(1, 9);
  p.origin = 1;
  p.begin_pos = 5000000000ull;
  p.low_water = p.begin_pos - 10;
  EXPECT_EQ(decode_txn(encode_txn(p)).low_water, p.low_water);
  // The origin travels in the id: another one cannot be encoded.
  txn_payload foreign = p;
  foreign.origin = 2;
  EXPECT_THROW(encode_txn(foreign), invariant_violation);
  // A low water above the snapshot, or 2^32 or more below it, has no lag.
  txn_payload above = p;
  above.low_water = p.begin_pos + 1;
  EXPECT_THROW(encode_txn(above), invariant_violation);
  txn_payload far = p;
  far.low_water = p.begin_pos - (1ull << 32);
  EXPECT_THROW(encode_txn(far), invariant_violation);
  far.low_water += 1;
  EXPECT_EQ(decode_txn(encode_txn(far)).low_water, far.low_water);
}

TEST(txn_codec, value_padding_is_not_allocated) {
  // The written values are a count of zeros: a payload carrying 1 MiB of
  // them allocates its ids and sets, not the MiB.
  txn_payload p;
  p.read_set = {make_item(1, 2, 3, 4), make_granule(2, 7, 0)};
  p.write_set = {make_item(4, 5, 6, 7)};
  p.update_bytes = 1u << 20;
  const std::size_t before = counting_new::allocated_bytes;
  const util::shared_bytes raw = encode_txn(p);
  EXPECT_LT(counting_new::allocated_bytes - before, 4096u);
  EXPECT_EQ(raw->size(), encoded_size(p));
  EXPECT_EQ(decode_txn(raw).update_bytes, p.update_bytes);
}

TEST(txn_codec, payload_size_includes_value_padding) {
  txn_payload small, big;
  small.update_bytes = 10;
  big.update_bytes = 4000;
  EXPECT_EQ(encode_txn(big)->size() - encode_txn(small)->size(), 3990u);
}

}  // namespace
}  // namespace dbsm::cert
