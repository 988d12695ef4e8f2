// Differential testing of the indexed certifier against the reference
// merge-scan certifier: both must reach the same commit/abort decision for
// every transaction of every randomized workload — including granule
// escalation, history-window expiry (conservative aborts), and the
// read-only path. The off-line safety checker and cross-replica
// determinism both rest on this equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cert/cert_index.hpp"
#include "cert/index_shard.hpp"
#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "db/item.hpp"
#include "tpcc/workload.hpp"
#include "util/open_table.hpp"
#include "util/rng.hpp"

namespace dbsm::cert {
namespace {

using db::item_id;

constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

// ---------- last_writer_index unit tests ----------

TEST(last_writer_index, remembers_most_recent_writer_per_id) {
  last_writer_index idx;
  idx.note_commit({tup(1), tup(2), gran(9)}, 5);
  idx.note_commit({tup(2)}, 8);
  EXPECT_EQ(idx.last_writer(tup(1)), 5u);
  EXPECT_EQ(idx.last_writer(tup(2)), 8u);
  EXPECT_EQ(idx.last_writer(gran(9)), 5u);
  EXPECT_EQ(idx.last_writer(tup(3)), 0u);  // never written
  EXPECT_EQ(idx.size(), 3u);
}

TEST(last_writer_index, tuple_and_granule_ids_never_alias) {
  // A tuple id and a granule id are distinct keys even when their upper
  // bits agree: they differ in the granule bit.
  last_writer_index idx;
  idx.note_commit({tup(7)}, 3);
  EXPECT_EQ(idx.last_writer(gran(7)), 0u);
  idx.note_commit({gran(7)}, 4);
  EXPECT_EQ(idx.last_writer(tup(7)), 3u);
  EXPECT_EQ(idx.last_writer(gran(7)), 4u);
}

TEST(last_writer_index, forget_drops_only_unsuperseded_entries) {
  last_writer_index idx;
  idx.note_commit({tup(1), tup(2)}, 5);
  idx.note_commit({tup(2)}, 8);
  idx.forget_commit({tup(1), tup(2)}, 5);  // entry at 5 leaves the window
  EXPECT_EQ(idx.last_writer(tup(1)), 0u);  // last writer was 5: dropped
  EXPECT_EQ(idx.last_writer(tup(2)), 8u);  // superseded: kept
  EXPECT_EQ(idx.size(), 1u);
}

TEST(last_writer_index, tuple_and_granule_ids_share_one_table) {
  last_writer_index idx;
  idx.note_commit({tup(7), gran(7), tup(8)}, 1);
  EXPECT_EQ(idx.size(), 3u);
  idx.forget_commit({gran(7)}, 1);
  EXPECT_EQ(idx.last_writer(tup(7)), 1u);
  EXPECT_EQ(idx.last_writer(gran(7)), 0u);
  EXPECT_EQ(idx.size(), 2u);
}

/// `count` random ids (tuples and granules mixed) whose home slot is `top`
/// in a table of 2^`bits` slots. A key's home at fewer bits is a prefix of
/// its home at more, so these ids share a home at every smaller size too,
/// and keep colliding while the table grows.
std::vector<item_id> colliding_ids(std::uint64_t top, unsigned bits,
                                   std::size_t count, util::rng& g) {
  std::vector<item_id> out;
  while (out.size() < count) {
    const item_id id = g.next_u64() & ~(1ull << 63);
    if (util::open_table_home(id, bits) == top) out.push_back(id);
  }
  return out;
}

TEST(last_writer_index, randomized_differential_against_hash_map) {
  // Three clusters on the highest home slot (runs wrap around to slot 0)
  // and the two lowest ones, plus scattered ids: backward-shift deletion
  // must move entries across the wrap-around without losing any, at every
  // capacity the table grows through.
  constexpr unsigned bits = 12;
  util::rng g(4242);
  std::vector<item_id> ids = colliding_ids((1u << bits) - 1, bits, 120, g);
  for (const std::uint64_t top : {0u, 1u}) {
    const std::vector<item_id> more = colliding_ids(top, bits, 60, g);
    ids.insert(ids.end(), more.begin(), more.end());
  }
  for (int i = 0; i < 2000; ++i) ids.push_back(g.next_u64() >> 1);

  last_writer_index idx;
  std::unordered_map<item_id, std::uint64_t> model;
  std::deque<cert_entry> live;  // committed, not yet forgotten
  std::uint64_t pos = 0;
  for (int step = 0; step < 60000; ++step) {
    // Phases alternate growth and shrinkage so the table keeps rehashing
    // and emptying its clusters.
    const bool growing = (step / 5000) % 2 == 0;
    if (live.empty() || g.bernoulli(growing ? 0.7 : 0.3)) {
      cert_entry e{++pos, {}};
      const int n = static_cast<int>(g.uniform_int(1, 8));
      for (int k = 0; k < n; ++k) {
        const auto pick = static_cast<std::size_t>(g.uniform_int(
            0, static_cast<std::int64_t>(ids.size()) - 1));
        e.write_set.push_back(ids[pick]);
      }
      idx.note_commit(e.write_set, e.pos);
      for (const item_id id : e.write_set) model[id] = e.pos;
      live.push_back(std::move(e));
    } else {
      // Mostly the oldest entry (window eviction), sometimes any entry.
      std::size_t at = 0;
      if (g.bernoulli(0.2))
        at = static_cast<std::size_t>(
            g.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const cert_entry& e = live[at];
      idx.forget_commit(e.write_set, e.pos);
      for (const item_id id : e.write_set) {
        const auto it = model.find(id);
        if (it != model.end() && it->second == e.pos) model.erase(it);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    ASSERT_EQ(idx.size(), model.size()) << "step " << step;
    if (step % 97 == 0) {
      for (const item_id id : ids) {
        const auto it = model.find(id);
        ASSERT_EQ(idx.last_writer(id), it == model.end() ? 0 : it->second)
            << "step " << step << " id " << id;
      }
    }
  }
  for (const item_id id : ids) {
    const auto it = model.find(id);
    EXPECT_EQ(idx.last_writer(id), it == model.end() ? 0 : it->second);
  }
}

// ---------- randomized differential property ----------

struct diff_stats {
  std::uint64_t updates = 0;
  std::uint64_t read_onlys = 0;
  std::uint64_t commits = 0;
  std::uint64_t pre_window_aborts = 0;
};

/// Drives both certifiers through `steps` random transactions and asserts
/// decision-for-decision agreement (void return: ASSERT_* requirement;
/// outcomes land in `st`). Mix knobs: size of the id space (conflict
/// probability), granule read/write rates, snapshot age spread, and the
/// history window (expiry / conservative aborts).
void run_differential(std::uint64_t seed, int steps, std::uint64_t id_space,
                      double granule_read_p, double granule_write_p,
                      std::uint64_t max_age, std::size_t window,
                      diff_stats& st) {
  cert_config cfg;
  cfg.history_window = window;
  sharded_certifier indexed(cfg);
  reference_certifier reference(cfg);
  util::rng g(seed);

  for (int i = 0; i < steps; ++i) {
    const std::uint64_t pos = indexed.position();
    const std::uint64_t lo = pos > max_age ? pos - max_age : 0;
    const auto begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(pos)));

    std::vector<item_id> rs;
    const int nr = static_cast<int>(g.uniform_int(0, 6));
    for (int k = 0; k < nr; ++k) {
      const auto n = static_cast<std::uint64_t>(
          g.uniform_int(0, static_cast<std::int64_t>(id_space)));
      rs.push_back(g.bernoulli(granule_read_p) ? gran(n >> 4) : tup(n));
    }
    normalize(rs);

    if (g.bernoulli(0.25)) {
      // Read-only path: positionless, repeated against both.
      ++st.read_onlys;
      const bool a = indexed.certify_read_only(begin, rs);
      const bool b = reference.certify_read_only(begin, rs);
      ASSERT_EQ(a, b) << "read-only seed " << seed << " step " << i;
      EXPECT_EQ(indexed.last_cost() >= cfg.cost_fixed, true);
      continue;
    }

    std::vector<item_id> ws;
    const int nw = static_cast<int>(g.uniform_int(1, 5));
    for (int k = 0; k < nw; ++k) {
      const auto n = static_cast<std::uint64_t>(
          g.uniform_int(0, static_cast<std::int64_t>(id_space)));
      ws.push_back(tup(n));
      // Advertise the granule the tuple falls into (escalation target) —
      // and occasionally a bare granule write.
      if (g.bernoulli(granule_write_p)) ws.push_back(gran(n >> 4));
    }
    normalize(ws);

    ++st.updates;
    if (begin + 1 < indexed.oldest_retained()) ++st.pre_window_aborts;
    const bool a = indexed.certify_update(begin, rs, ws);
    const bool b = reference.certify_update(begin, rs, ws);
    ASSERT_EQ(a, b) << "update seed " << seed << " step " << i
                    << " begin " << begin << " pos " << pos;
    if (a) ++st.commits;

    ASSERT_EQ(indexed.position(), reference.position());
    ASSERT_EQ(indexed.commits(), reference.commits());
    ASSERT_EQ(indexed.aborts(), reference.aborts());
    ASSERT_EQ(indexed.history_size(), reference.history_size());
    ASSERT_EQ(indexed.oldest_retained(), reference.oldest_retained());
  }
}

TEST(cert_differential, high_conflict_small_id_space) {
  diff_stats st;
  run_differential(/*seed=*/11, /*steps=*/4000, /*id_space=*/300,
                   /*granule_read_p=*/0.2, /*granule_write_p=*/0.4,
                   /*max_age=*/60, /*window=*/50000, st);
  // Sanity: the mix actually exercised both outcomes.
  EXPECT_GT(st.commits, 100u);
  EXPECT_GT(st.updates - st.commits, 100u);
}

TEST(cert_differential, window_expiry_and_conservative_aborts) {
  // Tiny window + old snapshots: many transactions fall behind
  // oldest_retained and must abort conservatively — identically.
  diff_stats st;
  run_differential(/*seed=*/23, /*steps=*/4000, /*id_space=*/5000,
                   /*granule_read_p=*/0.1, /*granule_write_p=*/0.3,
                   /*max_age=*/200, /*window=*/64, st);
  EXPECT_GT(st.pre_window_aborts, 100u);
  EXPECT_GT(st.commits, 100u);
}

TEST(cert_differential, granule_heavy_escalation_mix) {
  diff_stats st;
  run_differential(/*seed=*/37, /*steps=*/4000, /*id_space=*/20000,
                   /*granule_read_p=*/0.6, /*granule_write_p=*/0.9,
                   /*max_age=*/500, /*window=*/1000, st);
  EXPECT_GT(st.commits, 100u);
  EXPECT_GT(st.read_onlys, 500u);
}

TEST(cert_differential, low_conflict_large_id_space) {
  diff_stats st;
  run_differential(/*seed=*/53, /*steps=*/4000, /*id_space=*/1 << 22,
                   /*granule_read_p=*/0.05, /*granule_write_p=*/0.2,
                   /*max_age=*/2000, /*window=*/4096, st);
  EXPECT_GT(st.commits, 2000u);
}

TEST(cert_differential, tpcc_shaped_workload_agrees) {
  // Realistic sets: TPC-C requests with escalated customer scans and
  // advertised write granules, snapshots lagging a few dozen deliveries.
  cert_config cfg;
  cfg.history_window = 512;
  sharded_certifier indexed(cfg);
  reference_certifier reference(cfg);
  tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 10,
                      util::rng(71));
  util::rng g(72);

  for (int i = 0; i < 6000; ++i) {
    const auto req = load.next(static_cast<std::uint32_t>(i % 10),
                               static_cast<std::uint32_t>(i % 10));
    const std::uint64_t pos = indexed.position();
    const std::uint64_t lo = pos > 700 ? pos - 700 : 0;
    const auto begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(pos)));
    if (req.read_only()) {
      ASSERT_EQ(indexed.certify_read_only(begin, req.read_set),
                reference.certify_read_only(begin, req.read_set))
          << "step " << i;
    } else {
      ASSERT_EQ(indexed.certify_update(begin, req.read_set, req.write_set),
                reference.certify_update(begin, req.read_set, req.write_set))
          << "step " << i;
    }
  }
  EXPECT_EQ(indexed.commits(), reference.commits());
  EXPECT_GT(indexed.commits(), 1000u);
}

TEST(cert_index_memory, index_stays_bounded_by_window) {
  // The lazy eviction ring must actually reclaim index entries: with a
  // small window and an ever-growing id space, the index cannot grow
  // linearly with the number of deliveries.
  cert_config cfg;
  cfg.history_window = 100;
  sharded_certifier c(cfg);
  util::rng g(91);
  for (int i = 0; i < 20000; ++i) {
    std::vector<item_id> ws;
    for (int k = 0; k < 4; ++k)
      ws.push_back(tup(static_cast<std::uint64_t>(i) * 4 + k));
    normalize(ws);
    c.certify_update(c.position(), {}, ws);
  }
  // 100 retained entries × 4 distinct tuples, plus a bounded drain lag.
  EXPECT_LE(c.index_size(), 100u * 4u + 16u);
  EXPECT_EQ(c.history_size(), 100u);
}

}  // namespace
}  // namespace dbsm::cert
