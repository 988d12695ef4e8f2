// Differential testing of the indexed certifier against the reference
// scan certifier: both must reach the same commit/abort decision for
// every transaction of every randomized workload — including granule
// escalation, history-window expiry (conservative aborts), and the
// read-only path. The off-line safety checker and cross-replica
// determinism both rest on this equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cert/cert_index.hpp"
#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "counting_new.hpp"
#include "db/item.hpp"
#include "tpcc/workload.hpp"
#include "util/byte_buffer.hpp"
#include "util/check.hpp"
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

TEST(last_writer_index, purge_drops_only_entries_before_the_window) {
  last_writer_index idx;
  idx.note_commit({tup(1), tup(2)}, 5);
  idx.note_commit({tup(2)}, 8);
  idx.purge_before(6);  // the commit at 5 has left the window
  EXPECT_EQ(idx.last_writer(tup(1)), 0u);  // last writer was 5: dropped
  EXPECT_EQ(idx.last_writer(tup(2)), 8u);  // superseded at 8: kept
  EXPECT_EQ(idx.size(), 1u);
  idx.purge_before(8);  // an entry at the boundary stays
  EXPECT_EQ(idx.last_writer(tup(2)), 8u);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(last_writer_index, tuple_and_granule_ids_share_one_table) {
  last_writer_index idx;
  idx.note_commit({tup(7), gran(7), tup(8)}, 1);
  EXPECT_EQ(idx.size(), 3u);
  idx.note_commit({tup(7), tup(8)}, 2);
  idx.purge_before(2);
  EXPECT_EQ(idx.last_writer(tup(7)), 2u);
  EXPECT_EQ(idx.last_writer(gran(7)), 0u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(last_writer_index, positions_past_32_bits_are_rejected) {
  // A slot keeps a 32-bit position: the largest is stored exactly, and
  // the next one throws rather than wrap, whichever way it enters.
  last_writer_index idx;
  const item_id high = db::make_item(63, 0xffffff, 0xff, 7);
  idx.note_commit({high}, (1ull << 32) - 1);
  EXPECT_EQ(idx.last_writer(high), (1ull << 32) - 1);
  EXPECT_THROW(idx.note_commit({tup(1)}, 1ull << 32), invariant_violation);
  EXPECT_THROW(idx.set_last_writer(tup(2), 1ull << 32), invariant_violation);
  EXPECT_EQ(idx.size(), 1u);
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
  // and the two lowest ones, plus scattered ids: every purge compacts the
  // table in place and must move the live entries across the wrap-around
  // without losing any, at every capacity the table grows through.
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
  std::uint64_t pos = 0;
  std::size_t purges = 0;
  for (int step = 0; step < 60000; ++step) {
    // Phases alternate a long window and a short one, so purges
    // alternately keep most entries and empty the clusters.
    const std::uint64_t window = (step / 5000) % 2 == 0 ? 4000 : 20;
    if (g.bernoulli(0.95)) {
      std::vector<item_id> ws;
      const int n = static_cast<int>(g.uniform_int(1, 8));
      for (int k = 0; k < n; ++k) {
        const auto pick = static_cast<std::size_t>(g.uniform_int(
            0, static_cast<std::int64_t>(ids.size()) - 1));
        ws.push_back(ids[pick]);
      }
      idx.note_commit(ws, ++pos);
      for (const item_id id : ws) model[id] = pos;
    } else {
      const std::uint64_t oldest = pos > window ? pos - window : 0;
      idx.purge_before(oldest);
      ++purges;
      for (auto it = model.begin(); it != model.end();) {
        it = it->second < oldest ? model.erase(it) : std::next(it);
      }
      std::size_t visited = 0, wrong = 0;
      idx.for_each([&](item_id id, std::uint64_t p) {
        ++visited;
        const auto it = model.find(id);
        if (it == model.end() || it->second != p) ++wrong;
      });
      ASSERT_EQ(visited, model.size()) << "step " << step;
      ASSERT_EQ(wrong, 0u) << "step " << step;
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
  EXPECT_GT(purges, 2000u);
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
      EXPECT_EQ(indexed.last_cost() >= cost_fixed, true);
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
  // The purge must actually reclaim index entries: with a small window
  // and an ever-growing id space, the index cannot grow linearly with the
  // number of deliveries.
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
  // 100 retained commits × 4 distinct tuples (the last commit purges).
  EXPECT_LE(c.index_size(), 100u * 4u + 16u);
  EXPECT_EQ(c.history_size(), 100u);
}

TEST(cert_index_memory, slots_take_12_bytes) {
  // 150,000 distinct ids grow the table to 2^18 slots, the first power of
  // two they fill at most 3/4. Only that final table stays allocated.
  std::vector<item_id> ws(100);
  const std::size_t before = counting_new::live_bytes;
  last_writer_index idx;
  for (std::uint64_t pos = 1; pos <= 1500; ++pos) {
    for (std::size_t k = 0; k < ws.size(); ++k)
      ws[k] = db::make_item(static_cast<unsigned>(pos % 9),
                            static_cast<std::uint32_t>(pos), 3,
                            static_cast<std::uint32_t>(k));
    idx.note_commit(ws, pos);
  }
  const std::size_t live = counting_new::live_bytes - before;
  EXPECT_EQ(idx.size(), 150000u);
  EXPECT_GE(live, 12u * 150000u);
  EXPECT_LE(live, 12u << 18);
}


// ---------- the low-water bound ----------

/// One delivered payload, or one read-only transaction certified locally
/// at its origin, of a stream whose origins keep the low-water promise.
struct origin_step {
  bool local_read = false;
  node_id origin = 0;
  std::uint64_t low_water = 0;  // delivered payloads only
  std::uint64_t begin = 0;
  std::vector<item_id> rs, ws;  // ws empty: read-only
};

/// Generates what a replica does: each origin submits transactions at the
/// current position, keeps them pending, broadcasts them in any order
/// with the smallest snapshot it has pending (the payload's own included)
/// as the low water, and finishes each when it is delivered — or, for a
/// read-only one, when it certifies locally. Broadcasts queue per origin
/// and deliveries interleave the queues, so the total order keeps each
/// origin's broadcast order. Most ids are fresh, from a large space, so
/// without the bound the index would keep most ids ever written; a hot
/// set of 301 makes conflicts.
class promise_keeping_stream {
 public:
  promise_keeping_stream(std::size_t origins, std::uint64_t seed)
      : pending_(origins), sent_(origins), g_(seed) {}

  origin_step next() {
    for (;;) {
      const auto o = static_cast<node_id>(
          g_.uniform_int(0, static_cast<std::int64_t>(pending_.size()) - 1));
      std::deque<txn>& pend = pending_[o];
      switch (g_.uniform_int(0, 3)) {
        case 0:  // submit
          if (pend.size() < 12) pend.push_back(make_txn(o));
          break;
        case 1: {  // broadcast a random unsent one
          std::vector<txn*> unsent;
          for (txn& t : pend)
            if (!t.sent) unsent.push_back(&t);
          if (unsent.empty()) break;
          txn& t = *unsent[static_cast<std::size_t>(g_.uniform_int(
              0, static_cast<std::int64_t>(unsent.size()) - 1))];
          t.sent = true;
          origin_step st = t.step;
          st.low_water = pend.front().step.begin;  // oldest pending
          sent_[o].emplace_back(t.id, std::move(st));
          break;
        }
        case 2: {  // deliver the origin's oldest broadcast
          if (sent_[o].empty()) break;
          auto [id, st] = std::move(sent_[o].front());
          sent_[o].pop_front();
          finish(o, id);
          if (!st.ws.empty()) ++position_;
          return st;
        }
        default: {  // certify an unsent read-only one locally
          const auto it = std::find_if(pend.begin(), pend.end(),
                                       [](const txn& t) {
                                         return !t.sent && t.step.ws.empty();
                                       });
          if (it == pend.end()) break;
          origin_step st = it->step;
          st.local_read = true;
          finish(o, it->id);
          return st;
        }
      }
    }
  }

 private:
  struct txn {
    std::uint64_t id = 0;
    bool sent = false;
    origin_step step;
  };

  txn make_txn(node_id origin) {
    txn t;
    t.id = ++next_id_;
    t.step.origin = origin;
    t.step.begin = position_;
    const auto draw = [this] {
      return static_cast<std::uint64_t>(
          g_.bernoulli(0.3) ? g_.uniform_int(0, 300)
                            : g_.uniform_int(0, 1 << 24));
    };
    for (int k = static_cast<int>(g_.uniform_int(0, 4)); k > 0; --k) {
      const std::uint64_t n = draw();
      t.step.rs.push_back(g_.bernoulli(0.3) ? gran(n >> 4) : tup(n));
    }
    if (!g_.bernoulli(0.2)) {
      for (int k = static_cast<int>(g_.uniform_int(1, 6)); k > 0; --k) {
        const std::uint64_t n = draw();
        t.step.ws.push_back(tup(n));
        if (g_.bernoulli(0.5)) t.step.ws.push_back(gran(n >> 4));
      }
    }
    normalize(t.step.rs);
    normalize(t.step.ws);
    return t;
  }

  void finish(node_id o, std::uint64_t id) {
    std::deque<txn>& pend = pending_[o];
    pend.erase(std::find_if(pend.begin(), pend.end(),
                            [id](const txn& t) { return t.id == id; }));
  }

  std::vector<std::deque<txn>> pending_;  // per origin, in submit order
  /// Per origin, in broadcast order: (transaction id, payload).
  std::vector<std::deque<std::pair<std::uint64_t, origin_step>>> sent_;
  std::uint64_t position_ = 0;
  std::uint64_t next_id_ = 0;
  util::rng g_;
};

/// Feeds one step to `c` as a replica does (low water first); returns the
/// verdict.
bool certify_step(sharded_certifier& c, const origin_step& st) {
  if (!st.local_read) c.note_low_water(st.origin, st.low_water);
  return st.ws.empty() ? c.certify_read_only(st.begin, st.rs)
                       : c.certify_update(st.begin, st.rs, st.ws);
}

TEST(cert_low_water, promise_keeping_stream_agrees_with_the_reference) {
  // The bound purges nearly every id, yet every decision is the window
  // scan's, at one shard and at eight. The index stays under the purge
  // trigger: below max(1024, twice the ids committed above the bound). A
  // certifier told no low water keeps every id, as the window alone did.
  constexpr std::size_t origins = 3;
  cert_config cfg;
  cert_config eight = cfg;
  eight.shards = 8;
  sharded_certifier one_shard(cfg, origins), sharded(eight, origins);
  sharded_certifier window_only(cfg);
  reference_certifier reference(cfg);
  std::unordered_set<item_id> committed_ids;
  promise_keeping_stream stream(origins, 404);
  std::deque<std::pair<std::uint64_t, std::size_t>> above;  // (pos, ids)
  std::size_t ids_above = 0, most_above = 0, ids_written = 0;
  std::uint64_t local_reads = 0;
  for (int i = 0; i < 40000; ++i) {
    const origin_step st = stream.next();
    const bool want = st.ws.empty()
                          ? reference.certify_read_only(st.begin, st.rs)
                          : reference.certify_update(st.begin, st.rs, st.ws);
    ASSERT_EQ(certify_step(one_shard, st), want) << "step " << i;
    ASSERT_EQ(certify_step(sharded, st), want) << "step " << i;
    ASSERT_EQ(sharded.index_size(), one_shard.index_size()) << "step " << i;
    local_reads += st.local_read ? 1 : 0;
    if (st.ws.empty()) {
      ASSERT_EQ(window_only.certify_read_only(st.begin, st.rs), want);
      continue;
    }
    ASSERT_EQ(window_only.certify_update(st.begin, st.rs, st.ws), want);
    if (want) {
      committed_ids.insert(st.ws.begin(), st.ws.end());
      above.emplace_back(one_shard.position(), st.ws.size());
      ids_above += st.ws.size();
      ids_written += st.ws.size();
    }
    while (!above.empty() &&
           above.front().first <= one_shard.low_water_bound()) {
      ids_above -= above.front().second;
      above.pop_front();
    }
    most_above = std::max(most_above, ids_above);
    ASSERT_LT(one_shard.index_size(),
              std::max<std::size_t>(sharded_certifier::min_purge_at,
                                    2 * most_above))
        << "step " << i;
  }
  EXPECT_EQ(one_shard.commits(), reference.commits());
  EXPECT_GT(reference.aborts(), 100u);
  EXPECT_GT(local_reads, 1000u);
  // The window never slid: only the bound purged.
  EXPECT_EQ(one_shard.history_size(), one_shard.commits());
  EXPECT_GT(ids_written, 20 * one_shard.index_size());
  EXPECT_EQ(window_only.index_size(), committed_ids.size());
}

TEST(cert_low_water, a_broken_promise_throws) {
  cert_config cfg;
  cfg.history_window = 4;
  sharded_certifier c(cfg, 2);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(100 + i)}));
  c.note_low_water(0, 5);
  EXPECT_EQ(c.low_water_bound(), 0u);  // origin 1 still at 0
  c.note_low_water(1, 4);
  EXPECT_EQ(c.low_water_bound(), 4u);
  // Below the bound and inside the window: a promise was broken.
  EXPECT_THROW(c.certify_update(3, {}, {tup(1)}), invariant_violation);
  EXPECT_THROW(c.certify_read_only(3, {gran(1)}), invariant_violation);
  EXPECT_EQ(c.position(), 6u);  // the throw consumed no position
  EXPECT_TRUE(c.certify_update(4, {}, {tup(1)}));
  EXPECT_TRUE(c.certify_read_only(4, {gran(1)}));
  // Below the bound but behind the window: the pre-window rule aborts.
  EXPECT_EQ(c.oldest_retained(), 4u);
  EXPECT_FALSE(c.certify_update(1, {}, {tup(2)}));
  EXPECT_FALSE(c.certify_read_only(1, {gran(1)}));
  // A low water never falls, and the table holds the initial view only.
  EXPECT_THROW(c.note_low_water(0, 4), invariant_violation);
  c.note_low_water(0, 5);  // the same value is no fall
  EXPECT_THROW(c.note_low_water(2, 7), invariant_violation);
  sharded_certifier none(cfg);
  EXPECT_THROW(none.note_low_water(0, 0), invariant_violation);
  EXPECT_EQ(none.low_water_bound(), 0u);
}

TEST(cert_low_water, snapshot_round_trips_the_low_waters_and_trigger) {
  // A donor past several size-triggered purges restores into a fresh
  // certifier that serializes the same bytes, and a joiner restored
  // mid-stream holds the donor's index after 3,000 more commits.
  constexpr std::size_t origins = 3;
  cert_config cfg;
  sharded_certifier donor(cfg, origins);
  promise_keeping_stream stream(origins, 505);
  while (donor.commits() < 2000) certify_step(donor, stream.next());
  ASSERT_GT(donor.low_water_bound(), 1000u);
  util::buffer_writer w;
  donor.snapshot(w);
  const util::shared_bytes blob = w.take();
  sharded_certifier joiner(cfg, origins);
  {
    util::buffer_reader r(blob);
    joiner.restore(r);
    ASSERT_TRUE(r.done());
  }
  util::buffer_writer again;
  joiner.snapshot(again);
  ASSERT_EQ(again.take()->written_out(), blob->written_out());
  EXPECT_EQ(joiner.low_water_bound(), donor.low_water_bound());

  const std::uint64_t restored_at = donor.commits();
  while (donor.commits() < restored_at + 3000) {
    const origin_step st = stream.next();
    ASSERT_EQ(certify_step(joiner, st), certify_step(donor, st));
    ASSERT_EQ(joiner.index_size(), donor.index_size());
  }
  util::buffer_writer a, b;
  donor.snapshot(a);
  joiner.snapshot(b);
  EXPECT_EQ(a.take()->written_out(), b.take()->written_out());
  // A joiner sized for another view refuses the blob.
  sharded_certifier other(cfg, origins + 1);
  util::buffer_reader r(blob);
  EXPECT_THROW(other.restore(r), invariant_violation);
}

}  // namespace
}  // namespace dbsm::cert
