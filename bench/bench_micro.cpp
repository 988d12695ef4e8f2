// Microbenchmarks of the core primitives (google-benchmark): event queue,
// certification, marshaling, stability gossip merging, lock table, the
// simulated LAN and the granule store — the hot paths of every experiment.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "db/lock_table.hpp"
#include "gcs/stability.hpp"
#include "net/lan.hpp"
#include "place/granule_store.hpp"
#include "sim/simulator.hpp"
#include "tpcc/workload.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

void BM_event_queue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::simulator s;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(static_cast<sim_time>((i * 2654435761u) % 1000000),
                    [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_event_queue)->Arg(1000)->Arg(10000)->Arg(100000);

// ---- certification: indexed (last-writer probes) vs reference scan ----
//
// Both run the same steady-state workload: a full history window of
// committed 20-tuple write sets, then certifications whose snapshot is the
// oldest still-valid position — the worst case, where the scan certifier
// must traverse the entire window while the indexed one performs
// O(|read_set| + |write_set|) hash probes. Measured write sets draw fresh
// ids from a region disjoint from the prefill (and never repeat), so every
// certification COMMITS: the scan cannot early-exit on a conflict and both
// certifiers exercise the history-admission path each iteration.
template <typename Certifier>
void run_certify_bench(benchmark::State& state, cert::cert_config cfg,
                       std::size_t set_elems) {
  const std::size_t window = cfg.history_window;
  Certifier c(cfg);
  util::rng g(1);
  // Prefill: `window` committed write sets of `set_elems` random tuples,
  // tagged with bit 40 to keep them disjoint from measured ids.
  {
    std::vector<db::item_id> ws;
    while (c.history_size() < window) {
      ws.clear();
      for (std::size_t k = 0; k < set_elems; ++k)
        ws.push_back((db::item_id(1) << 40) |
                     (static_cast<db::item_id>(g.uniform_int(0, 1 << 26))
                      << 1));
      cert::normalize(ws);
      c.certify_update(c.position(), {}, ws);
    }
  }
  // Fixed tuple-level read set (point reads are snapshot-served and never
  // conflict) and a fresh ascending write set per iteration.
  std::vector<db::item_id> rs(set_elems / 2), ws(set_elems);
  for (std::size_t k = 0; k < rs.size(); ++k)
    rs[k] = static_cast<db::item_id>((1000 + k) << 1);
  std::uint64_t fresh = 1;
  for (auto _ : state) {
    for (std::size_t k = 0; k < ws.size(); ++k)
      ws[k] = static_cast<db::item_id>(
          (fresh * 2 * set_elems + k) << 1);
    ++fresh;
    // Oldest snapshot that escapes the conservative pre-window abort:
    // every retained committed write set is concurrent with it.
    benchmark::DoNotOptimize(
        c.certify_update(c.oldest_retained() - 1, rs, ws));
  }
  if (c.commits() != c.position())
    state.SkipWithError("benchmark workload was expected to always commit");
  state.SetItemsProcessed(state.iterations());
}

template <typename Certifier>
void run_certify_window_bench(benchmark::State& state) {
  cert::cert_config cfg;
  cfg.history_window = static_cast<std::size_t>(state.range(0));
  run_certify_bench<Certifier>(state, cfg, 20);
}

void BM_certify_indexed(benchmark::State& state) {
  run_certify_window_bench<cert::sharded_certifier>(state);
}
BENCHMARK(BM_certify_indexed)->Arg(1000)->Arg(10000)->Arg(50000);

// Hash-sharded certification on large (256-element) write sets; the Arg
// is cert_config::shards. Every shard is certified on the calling thread,
// so more shards only add the partition.
void BM_certify_sharded(benchmark::State& state) {
  cert::cert_config cfg;
  cfg.history_window = 2000;
  cfg.shards = static_cast<std::size_t>(state.range(0));
  run_certify_bench<cert::sharded_certifier>(state, cfg, 256);
}
BENCHMARK(BM_certify_sharded)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

// Certification as a tpcc_paper site sees it: TPC-C requests from three
// origins, snapshots mostly under 32 positions old and never 128, each
// origin's low water max_age behind the position, so no later snapshot of
// that origin lies below it. 20,000 requests are drawn once and cycled.
class low_water_stream {
 public:
  static constexpr unsigned origins = 3;
  static constexpr std::uint64_t max_age = 127;

  struct step {
    const db::txn_request& req;
    node_id origin;
    std::uint64_t low_water;
    std::uint64_t begin;
  };

  low_water_stream() {
    tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 10,
                        util::rng(7));
    for (std::uint32_t i = 0; pool_.size() < 20000; ++i)
      pool_.push_back(load.next(i % 10, i % 10));
  }
  std::size_t size() const { return pool_.size(); }

  /// The next request, certified at a certifier whose position is `pos`.
  step next(std::uint64_t pos) {
    const db::txn_request& req = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    const auto age = static_cast<std::uint64_t>(
        g_.uniform_int(0, g_.bernoulli(1.0 / 16) ? max_age : 31));
    return {req, static_cast<node_id>(next_ % origins),
            pos - std::min(pos, max_age), pos - std::min(pos, age)};
  }

 private:
  std::vector<db::txn_request> pool_;
  util::rng g_{8};
  std::size_t next_ = 0;
};

// The indexed certifier on that stream, each low water fed before its
// payload, so the bound and the size trigger purge the index down to the
// ids no live snapshot can reach (the counter reports its final size).
// One pass runs before timing.
void BM_certify_low_water(benchmark::State& state) {
  low_water_stream stream;
  cert::sharded_certifier c({}, low_water_stream::origins);
  const auto certify_one = [&] {
    const auto s = stream.next(c.position());
    c.note_low_water(s.origin, s.low_water);
    return s.req.read_only()
               ? c.certify_read_only(s.begin, s.req.read_set)
               : c.certify_update(s.begin, s.req.read_set, s.req.write_set);
  };
  for (std::size_t i = 0; i < stream.size(); ++i) certify_one();
  for (auto _ : state) benchmark::DoNotOptimize(certify_one());
  state.SetItemsProcessed(state.iterations());
  state.counters["index_size"] = static_cast<double>(c.index_size());
}
BENCHMARK(BM_certify_low_water);

// The reference scan on the same stream, driven the way the online
// oracle (check::cert_oracle_monitor) drives it: only update payloads
// reach it, each position settles as soon as it is certified, its low
// water is folded into a per-origin table, and the scan forgets through
// the table's minimum. The counter reports the write sets it stores: at
// most about twice the commits above the bound, however long the run.
void BM_certify_scan_low_water(benchmark::State& state) {
  low_water_stream stream;
  cert::reference_certifier c;
  std::array<std::uint64_t, low_water_stream::origins> low_water{};
  const auto certify_one = [&] {
    const auto s = stream.next(c.position());
    if (s.req.read_only()) return c.certify_read_only(s.begin, s.req.read_set);
    const bool commit =
        c.certify_update(s.begin, s.req.read_set, s.req.write_set);
    low_water[s.origin] = s.low_water;
    c.settle(c.position());
    c.forget_through(*std::min_element(low_water.begin(), low_water.end()));
    return commit;
  };
  for (std::size_t i = 0; i < stream.size(); ++i) certify_one();
  for (auto _ : state) benchmark::DoNotOptimize(certify_one());
  state.SetItemsProcessed(state.iterations());
  state.counters["stored"] = static_cast<double>(c.stored_size());
}
BENCHMARK(BM_certify_scan_low_water);

void BM_certify_scan(benchmark::State& state) {
  run_certify_window_bench<cert::reference_certifier>(state);
}
BENCHMARK(BM_certify_scan)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

// The reference scan in the regime the online oracle meets on the
// ycsb_a_protocol workload, where BM_certify_scan's disjoint ascending
// ids are a merge's best case: 9-tuple write sets drawn at run time from
// 20,000 keys, so stored and written ids interleave, behind snapshots 130
// positions back in a full 50,000 window: ~90 concurrent write sets per
// scan. About three in ten certifications abort (commit_pct), each at
// its first conflicting write set.
void BM_certify_scan_random(benchmark::State& state) {
  cert::cert_config cfg;
  cfg.history_window = 50000;
  cert::reference_certifier c(cfg);
  util::rng g(1);
  std::vector<db::item_id> ws;
  const auto draw = [&] {
    ws.clear();
    for (int k = 0; k < 9; ++k)
      ws.push_back(static_cast<db::item_id>(g.uniform_int(0, 19999)) << 1);
    cert::normalize(ws);
  };
  while (c.history_size() < cfg.history_window) {
    draw();
    c.certify_update(c.position(), {}, ws);
  }
  const std::uint64_t prefilled = c.commits();
  for (auto _ : state) {
    draw();
    benchmark::DoNotOptimize(c.certify_update(c.position() - 130, {}, ws));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["commit_pct"] =
      100.0 * static_cast<double>(c.commits() - prefilled) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_certify_scan_random)->Unit(benchmark::kMicrosecond);

// Args: read-set size, write-set size, value padding (update_bytes).
void BM_txn_codec_round_trip(benchmark::State& state) {
  cert::txn_payload p;
  p.id = 42;
  p.begin_pos = 7;
  util::rng g(2);
  for (std::int64_t k = 0; k < state.range(0); ++k)
    p.read_set.push_back(static_cast<db::item_id>(g.next_u64()));
  for (std::int64_t k = 0; k < state.range(1); ++k)
    p.write_set.push_back(static_cast<db::item_id>(g.next_u64()));
  cert::normalize(p.read_set);
  cert::normalize(p.write_set);
  p.update_bytes = static_cast<std::uint32_t>(state.range(2));
  for (auto _ : state) {
    auto raw = cert::encode_txn(p);
    auto q = cert::decode_txn(raw);
    benchmark::DoNotOptimize(q.write_set.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cert::encoded_size(p)));
}
// The second case is TPC-C-shaped: a mean seed-42 `tpcc_paper` payload
// is 3,101 B, of which 2,758 B are value padding.
BENCHMARK(BM_txn_codec_round_trip)->Args({30, 25, 2000})->Args({24, 14, 2758});

void BM_stability_merge(benchmark::State& state) {
  const auto members = static_cast<unsigned>(state.range(0));
  std::vector<node_id> ids;
  for (unsigned i = 0; i < members; ++i) ids.push_back(i);
  gcs::stability_tracker mine(ids, 0);
  gcs::stability_tracker theirs(ids, 1 % members);
  std::vector<std::uint64_t> prefixes(members, 0);
  std::uint64_t tick = 0;
  for (auto _ : state) {
    ++tick;
    for (auto& p : prefixes) p = tick * 10;
    mine.set_local_prefixes(prefixes);
    theirs.set_local_prefixes(prefixes);
    benchmark::DoNotOptimize(mine.merge(theirs.make_gossip(1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_stability_merge)->Arg(3)->Arg(6)->Arg(16);

void BM_lock_table_cycle(benchmark::State& state) {
  db::lock_table lt;
  util::rng g(3);
  std::uint64_t id = 1;
  for (auto _ : state) {
    std::vector<db::item_id> items;
    for (int k = 0; k < 8; ++k)
      items.push_back(static_cast<db::item_id>(g.uniform_int(0, 1 << 16))
                      << 1);
    cert::normalize(items);
    bool granted = false;
    lt.acquire(id, items, false, [&] { granted = true; },
               [](db::lock_abort_cause) {});
    if (granted) {
      lt.release_commit(id);
    } else {
      lt.release_abort(id);
    }
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_lock_table_cycle);

// Many live transactions on a Zipf hot set. Each iteration starts one
// transaction on 4 items (one in ten certified: it preempts uncertified
// holders) and ends the one started `live` iterations before: a holder
// commits (aborting its uncertified waiters) or, one in four, aborts
// (handing its locks on); a waiter withdraws.
void BM_lock_table_contended(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  const kv::zipf_sampler zipf(4096, 0.99);
  util::rng g(5);
  db::lock_table lt;
  std::vector<std::uint64_t> ring(live, 0);
  std::vector<db::item_id> items;
  std::int64_t granted = 0, lost = 0, preempted = 0;
  const auto on_grant = [&granted] { ++granted; };
  const auto on_abort = [&lost, &preempted](db::lock_abort_cause c) {
    ++(c == db::lock_abort_cause::preempted ? preempted : lost);
  };
  std::uint64_t id = 0;
  for (auto _ : state) {
    std::uint64_t& slot = ring[id % live];
    if (lt.holds(slot)) {
      if (g.bernoulli(0.25)) {
        lt.release_abort(slot);
      } else {
        lt.release_commit(slot);
      }
    } else if (lt.waiting(slot)) {
      lt.release_abort(slot);
    }
    items.clear();
    for (int k = 0; k < 4; ++k) items.push_back(zipf.sample(g) << 1);
    cert::normalize(items);
    slot = ++id;
    lt.acquire(slot, items, g.bernoulli(0.1), on_grant, on_abort);
  }
  const auto n = static_cast<double>(id);
  state.counters["granted_pct"] = 100.0 * static_cast<double>(granted) / n;
  state.counters["lost_pct"] = 100.0 * static_cast<double>(lost) / n;
  state.counters["preempted_pct"] = 100.0 * static_cast<double>(preempted) / n;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_lock_table_contended)->Arg(16)->Arg(64);

void BM_lan_multicast(benchmark::State& state) {
  sim::simulator s;
  net::lan lan(s, net::lan_config{}, util::rng(4));
  for (int i = 0; i < 6; ++i) lan.add_host();
  std::uint64_t delivered = 0;
  for (int i = 0; i < 6; ++i)
    lan.set_receiver(i, [&](node_id, util::shared_bytes) { ++delivered; });
  util::buffer_writer w;
  w.put_padding(1024);
  auto payload = w.take();
  for (auto _ : state) {
    lan.multicast(0, payload);
    s.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_lan_multicast);

void BM_tpcc_generate(benchmark::State& state) {
  tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 50,
                      util::rng(5));
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto req = load.next(i % 50, i % 10);
    benchmark::DoNotOptimize(req.write_set.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_tpcc_generate);

// The granule store's apply on the Arg's TPC-C update write sets, drawn
// as BM_tpcc_generate draws them (the workload normalizes them, as they
// reach delivery). Each iteration applies them all to an empty store, so
// first writes of tuples, most of what a tpcc_paper site stores, grow
// its tables as they do in a run. The longer stream writes more than one
// row in 32 of each warehouse's stock, so its stock granules turn from
// arrays into bitmaps; a per-item time that grows with the stream shows
// here. The `rows` counter is the stored tuples.
void BM_granule_store_apply(benchmark::State& state) {
  tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 50,
                      util::rng(5));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<std::vector<db::item_id>, std::uint32_t>> updates;
  for (std::uint32_t i = 0; updates.size() < n; ++i) {
    auto req = load.next(i % 50, i % 10);
    if (!req.write_set.empty())
      updates.emplace_back(std::move(req.write_set), req.update_bytes);
  }
  std::uint64_t rows = 0;
  for (auto _ : state) {
    place::granule_store store;
    for (const auto& [write_set, bytes] : updates)
      store.apply(write_set, bytes);
    rows = store.durable_tuples();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_granule_store_apply)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

// ---- KV workload: request generation and the Zipf sampler ----

void BM_kv_generate(benchmark::State& state) {
  // Arg is zipf theta in percent (0 = uniform, 99 = YCSB default skew).
  kv::kv_config cfg;
  cfg.zipf_theta = static_cast<double>(state.range(0)) / 100.0;
  kv::kv_workload wl(cfg);
  wl.prepare(1, 100, util::rng(6));
  auto src = wl.make_source({0, 0, 100}, util::rng(7));
  for (auto _ : state) {
    auto req = src->next(0);
    benchmark::DoNotOptimize(req.ops.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_kv_generate)->Arg(0)->Arg(99);

void BM_zipf_sample(benchmark::State& state) {
  const kv::zipf_sampler zipf(100000,
                              static_cast<double>(state.range(0)) / 100.0);
  util::rng g(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(g));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_zipf_sample)->Arg(0)->Arg(99);

}  // namespace
}  // namespace dbsm

BENCHMARK_MAIN();
