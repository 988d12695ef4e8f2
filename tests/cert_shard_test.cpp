// Shard-count invariance of the sharded certifier: at every
// (shards, certify_threads) combination the decisions must match
// cert::reference_certifier, the merge-scan oracle, transaction for
// transaction — the index-vs-scan differential of tests/cert_index_test.cpp
// extended over the partitioned parallel path. Covers randomized mixes,
// TPC-C-shaped sets, KV scan-escalation sets, the read-only path, window
// expiry, and the canonical snapshot format (the same bytes at any shard
// count).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "db/item.hpp"
#include "tpcc/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/kv.hpp"

namespace dbsm::cert {
namespace {

using db::item_id;

constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

struct grid_point {
  std::size_t shards;
  unsigned threads;
};

const std::vector<grid_point>& grid() {
  static const std::vector<grid_point> g = {
      {1, 1}, {1, 4}, {2, 1}, {2, 4}, {8, 1}, {8, 4}};
  return g;
}

cert_config with_sharding(cert_config cfg, const grid_point& p) {
  cfg.shards = p.shards;
  cfg.certify_threads = p.threads;
  return cfg;
}

/// Drives the oracle and one sharded instance through the same randomized
/// transaction stream and asserts decision-for-decision agreement. A
/// single-shard instance rides along as the index-size baseline.
void run_differential(const grid_point& p, std::uint64_t seed, int steps,
                      std::uint64_t id_space, double granule_read_p,
                      double granule_write_p, std::uint64_t max_age,
                      std::size_t window) {
  cert_config cfg;
  cfg.history_window = window;
  reference_certifier oracle(cfg);
  sharded_certifier single(cfg);
  sharded_certifier sharded(with_sharding(cfg, p));
  util::rng g(seed);

  for (int i = 0; i < steps; ++i) {
    const std::uint64_t pos = oracle.position();
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
      ASSERT_EQ(sharded.certify_read_only(begin, rs),
                oracle.certify_read_only(begin, rs))
          << "read-only: shards " << p.shards << " threads " << p.threads
          << " seed " << seed << " step " << i;
      continue;
    }

    std::vector<item_id> ws;
    const int nw = static_cast<int>(g.uniform_int(1, 5));
    for (int k = 0; k < nw; ++k) {
      const auto n = static_cast<std::uint64_t>(
          g.uniform_int(0, static_cast<std::int64_t>(id_space)));
      ws.push_back(tup(n));
      if (g.bernoulli(granule_write_p)) ws.push_back(gran(n >> 4));
    }
    normalize(ws);

    ASSERT_EQ(sharded.certify_update(begin, rs, ws),
              oracle.certify_update(begin, rs, ws))
        << "update: shards " << p.shards << " threads " << p.threads
        << " seed " << seed << " step " << i << " begin " << begin;
    single.certify_update(begin, rs, ws);

    ASSERT_EQ(sharded.position(), oracle.position());
    ASSERT_EQ(sharded.commits(), oracle.commits());
    ASSERT_EQ(sharded.aborts(), oracle.aborts());
    ASSERT_EQ(sharded.history_size(), oracle.history_size());
    ASSERT_EQ(sharded.oldest_retained(), oracle.oldest_retained());
    // Per-shard rings drain their own fronts, so the sharded instance can
    // only be *ahead* of the single index on stale-entry cleanup, never
    // behind on content the decisions see.
    ASSERT_LE(sharded.index_size(), single.index_size());
  }
  EXPECT_GT(oracle.commits(), 100u);
  EXPECT_GT(oracle.aborts(), 0u);
}

TEST(cert_shard_differential, high_conflict_small_id_space) {
  for (const grid_point& p : grid())
    run_differential(p, /*seed=*/311, /*steps=*/2500, /*id_space=*/300,
                     /*granule_read_p=*/0.2, /*granule_write_p=*/0.4,
                     /*max_age=*/60, /*window=*/50000);
}

TEST(cert_shard_differential, window_expiry_and_conservative_aborts) {
  // Tiny window + old snapshots: the global pre-window rule must fire
  // before any shard probe, identically at every fork width.
  for (const grid_point& p : grid())
    run_differential(p, /*seed=*/323, /*steps=*/2500, /*id_space=*/5000,
                     /*granule_read_p=*/0.1, /*granule_write_p=*/0.3,
                     /*max_age=*/200, /*window=*/64);
}

TEST(cert_shard_differential, tpcc_shaped_workload_agrees) {
  // Realistic TPC-C sets: escalated customer scans, advertised write
  // granules, snapshots lagging a few dozen deliveries.
  for (const grid_point& p : grid()) {
    cert_config cfg;
    cfg.history_window = 512;
    reference_certifier oracle(cfg);
    sharded_certifier sharded(with_sharding(cfg, p));
    tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 10,
                        util::rng(71));
    util::rng g(72);

    for (int i = 0; i < 3000; ++i) {
      const auto req = load.next(static_cast<std::uint32_t>(i % 10),
                                 static_cast<std::uint32_t>(i % 10));
      const std::uint64_t pos = oracle.position();
      const std::uint64_t lo = pos > 700 ? pos - 700 : 0;
      const auto begin = static_cast<std::uint64_t>(
          g.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(pos)));
      if (req.read_only()) {
        ASSERT_EQ(sharded.certify_read_only(begin, req.read_set),
                  oracle.certify_read_only(begin, req.read_set))
            << "shards " << p.shards << " threads " << p.threads
            << " step " << i;
      } else {
        ASSERT_EQ(
            sharded.certify_update(begin, req.read_set, req.write_set),
            oracle.certify_update(begin, req.read_set, req.write_set))
            << "shards " << p.shards << " threads " << p.threads
            << " step " << i;
      }
    }
    EXPECT_EQ(sharded.commits(), oracle.commits());
    EXPECT_GT(oracle.commits(), 500u);
  }
}

TEST(cert_shard_differential, kv_scan_escalation_agrees) {
  // KV sets are the pure certification-conflict channel: escalated
  // range-scan reads (granule ids) race hot-granule writes. Hash
  // partitioning must keep every granule probe on the shard that also
  // receives the matching advertised write granules.
  for (const grid_point& p : grid()) {
    cert_config cfg;
    cfg.history_window = 256;
    reference_certifier oracle(cfg);
    sharded_certifier sharded(with_sharding(cfg, p));

    kv::kv_config k;
    k.keys = 4000;
    k.keys_per_granule = 64;
    k.zipf_theta = 0.9;  // hot keys: real conflicts at a small window
    k.mix_read = 0.2;
    k.mix_update = 0.35;
    k.mix_scan = 0.3;
    kv::kv_workload wl(k);
    wl.prepare(1, 8, util::rng(81));
    auto src = wl.make_source({0, 0, 8}, util::rng(82));
    util::rng g(83);

    std::uint64_t scans = 0;
    for (int i = 0; i < 2500; ++i) {
      const auto req = src->next(0);
      for (const item_id id : req.read_set)
        if (db::is_granule(id)) ++scans;
      const std::uint64_t pos = oracle.position();
      const std::uint64_t lo = pos > 120 ? pos - 120 : 0;
      const auto begin = static_cast<std::uint64_t>(
          g.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(pos)));
      if (req.read_only()) {
        ASSERT_EQ(sharded.certify_read_only(begin, req.read_set),
                  oracle.certify_read_only(begin, req.read_set))
            << "shards " << p.shards << " threads " << p.threads
            << " step " << i;
      } else {
        ASSERT_EQ(
            sharded.certify_update(begin, req.read_set, req.write_set),
            oracle.certify_update(begin, req.read_set, req.write_set))
            << "shards " << p.shards << " threads " << p.threads
            << " step " << i;
      }
    }
    EXPECT_EQ(sharded.commits(), oracle.commits());
    EXPECT_EQ(sharded.aborts(), oracle.aborts());
    EXPECT_GT(scans, 100u);     // the mix actually escalated
    EXPECT_GT(oracle.aborts(), 0u);
  }
}

TEST(cert_shard_differential, default_config_snapshot_bytes_identical) {
  // The snapshot format is canonical: the default config's state, restored
  // at one shard and at eight, serializes back to the identical bytes — so
  // a recovery transfer means the same thing whatever shard count either
  // end runs.
  cert_config cfg;
  cfg.history_window = 48;
  reference_certifier oracle(cfg);
  sharded_certifier donor(cfg);
  util::rng g(99);
  for (int i = 0; i < 600; ++i) {
    std::vector<item_id> rs, ws;
    const auto n =
        static_cast<std::uint64_t>(g.uniform_int(0, 400));
    rs.push_back(g.bernoulli(0.3) ? gran(n >> 3) : tup(n));
    ws.push_back(tup(n + 1));
    if (g.bernoulli(0.5)) ws.push_back(gran((n + 1) >> 3));
    normalize(rs);
    normalize(ws);
    const std::uint64_t pos = oracle.position();
    const std::uint64_t begin =
        pos - std::min<std::uint64_t>(
                  pos, static_cast<std::uint64_t>(g.uniform_int(0, 60)));
    ASSERT_EQ(donor.certify_update(begin, rs, ws),
              oracle.certify_update(begin, rs, ws));
  }
  util::buffer_writer w;
  donor.snapshot(w);
  const auto blob = w.take();
  for (const grid_point& p : {grid_point{1, 1}, grid_point{8, 4}}) {
    sharded_certifier joiner(with_sharding(cfg, p));
    util::buffer_reader r(blob);
    joiner.restore(r);
    util::buffer_writer again;
    joiner.snapshot(again);
    ASSERT_EQ(*again.take(), *blob) << "shards " << p.shards;
  }
}

TEST(cert_shard_differential, modeled_cost_parallel_term_scales) {
  // The parallel term: with enough shards and threads, the critical path
  // charges roughly elements / workers, plus the fork overhead — and one
  // worker charges exactly the set-linear model.
  cert_config cfg;
  std::vector<item_id> ws;
  for (std::uint64_t i = 0; i < 512; ++i) ws.push_back(tup(i * 7 + 1));
  normalize(ws);
  const sim_duration set_linear =
      cfg.cost_fixed +
      cfg.cost_per_element * static_cast<sim_duration>(ws.size());

  sharded_certifier serial(cfg);
  serial.certify_update(0, {}, ws);
  EXPECT_EQ(serial.last_cost(), set_linear);

  cert_config par = cfg;
  par.shards = 16;
  par.certify_threads = 4;
  sharded_certifier forked(par);
  forked.certify_update(0, {}, ws);
  EXPECT_LT(forked.last_cost(), set_linear);
  // Critical path >= perfect split, and the fork overhead is charged.
  EXPECT_GE(forked.last_cost(),
            cfg.cost_fixed + par.cost_fork_join +
                cfg.cost_per_element *
                    static_cast<sim_duration>(ws.size() / 4));
}

TEST(cert_shard_differential, modeled_cost_tracks_real_cost_order) {
  // Calibration pin for the cost model (the PR 9 re-calibration of the
  // carried ROADMAP item): the modeled charge of a warm serial
  // certification must stay the same order of magnitude as the real
  // wall-clock of the identical work on the host. The band is wide —
  // a factor of 16 either way — because CI hosts vary enormously, but
  // it still catches a units slip (ns-vs-us would be x1000) or a model
  // that silently stops tracking the probe loop. Measured on the
  // calibration host: real ~27.7 us vs modeled ~33.0 us at a 256-element
  // set (bench/BENCH_cert_shards.json), ratio 0.84.
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

TEST(cert_shard_zero_sets, short_circuit_keeps_decisions_and_state) {
  // Zero-set transactions (an empty-read-set RO probe, or an empty
  // update payload occupying a total-order slot) skip the fork-join
  // entirely — the decision is the global pre-window rule alone. The
  // short-circuit must be invisible in decisions, counters and history,
  // must still drain the eviction rings, and must leave the serialized
  // state shard-count invariant; only the modeled cost drops (no fork
  // term). Interleave zero-set and real transactions against the oracle
  // and a single-shard instance at several grid points to prove it.
  for (const grid_point& p : grid()) {
    cert_config cfg;
    cfg.history_window = 32;
    reference_certifier oracle(cfg);
    sharded_certifier single(cfg);
    sharded_certifier sharded(with_sharding(cfg, p));
    util::rng g(4242);
    for (int i = 0; i < 800; ++i) {
      const std::uint64_t pos = oracle.position();
      const std::uint64_t begin =
          pos - std::min<std::uint64_t>(
                    pos, static_cast<std::uint64_t>(g.uniform_int(0, 50)));
      const int shape = static_cast<int>(g.uniform_int(0, 3));
      if (shape == 0) {
        // Empty read set on the read-only path.
        ASSERT_EQ(sharded.certify_read_only(begin, {}),
                  oracle.certify_read_only(begin, {}));
        ASSERT_EQ(sharded.last_cost(), cfg.cost_fixed);
      } else if (shape == 1) {
        // Both sets empty on the update path: consumes a position, can
        // only abort on the pre-window rule.
        ASSERT_EQ(sharded.certify_update(begin, {}, {}),
                  oracle.certify_update(begin, {}, {}));
        ASSERT_EQ(sharded.last_cost(), cfg.cost_fixed);
        single.certify_update(begin, {}, {});
      } else {
        std::vector<item_id> rs, ws;
        const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 120));
        rs.push_back(tup(n));
        ws.push_back(tup(n + 1));
        normalize(rs);
        normalize(ws);
        ASSERT_EQ(sharded.certify_update(begin, rs, ws),
                  oracle.certify_update(begin, rs, ws));
        single.certify_update(begin, rs, ws);
      }
      ASSERT_EQ(sharded.position(), oracle.position());
      ASSERT_EQ(sharded.commits(), oracle.commits());
      ASSERT_EQ(sharded.aborts(), oracle.aborts());
      ASSERT_EQ(sharded.history_size(), oracle.history_size());
      ASSERT_EQ(sharded.oldest_retained(), oracle.oldest_retained());
      // Every update drains first, so at most the last eviction's slices
      // are queued, one per shard.
      ASSERT_LE(sharded.evicted_backlog(), sharded.shards());
      ASSERT_EQ(sharded.index_size(), single.index_size());
    }
    EXPECT_GT(oracle.aborts(), 0u);  // pre-window aborts actually hit
    // The serialized state is the same bytes at every shard count,
    // through the short-circuit path too.
    util::buffer_writer wa, wb;
    single.snapshot(wa);
    sharded.snapshot(wb);
    ASSERT_EQ(*wa.take(), *wb.take()) << "shards " << p.shards;
  }
}

TEST(thread_pool, runs_every_task_exactly_once_across_runs) {
  util::thread_pool pool(4);
  EXPECT_EQ(pool.width(), 4u);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(97, 0);
    pool.run(97, [&](unsigned t) { ++hits[t]; });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
  // Width 1 degenerates to an inline loop (no workers to leak).
  util::thread_pool inline_pool(1);
  EXPECT_EQ(inline_pool.width(), 1u);
  int n = 0;
  inline_pool.run(5, [&](unsigned) { ++n; });
  EXPECT_EQ(n, 5);
}

}  // namespace
}  // namespace dbsm::cert
