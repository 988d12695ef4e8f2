// Microbenchmarks of the core primitives (google-benchmark): event queue,
// certification, marshaling, stability gossip merging, lock table, and
// the simulated LAN — the hot paths of every experiment.
#include <benchmark/benchmark.h>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "db/lock_table.hpp"
#include "gcs/stability.hpp"
#include "net/lan.hpp"
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

// Sharded parallel certification on large (256-element) write sets:
// Args are {shards, certify_threads}. Real thread scaling needs real
// cores; the modeled cost (what the figure benches charge) follows the
// fork-join critical path either way.
void BM_certify_sharded(benchmark::State& state) {
  cert::cert_config cfg;
  cfg.history_window = 2000;
  cfg.shards = static_cast<std::size_t>(state.range(0));
  cfg.certify_threads = static_cast<unsigned>(state.range(1));
  run_certify_bench<cert::sharded_certifier>(state, cfg, 256);
}
BENCHMARK(BM_certify_sharded)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_certify_scan(benchmark::State& state) {
  run_certify_window_bench<cert::reference_certifier>(state);
}
BENCHMARK(BM_certify_scan)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

void BM_txn_codec_round_trip(benchmark::State& state) {
  cert::txn_payload p;
  p.id = 42;
  p.begin_pos = 7;
  util::rng g(2);
  for (int k = 0; k < 30; ++k)
    p.read_set.push_back(static_cast<db::item_id>(g.next_u64()));
  for (int k = 0; k < 25; ++k)
    p.write_set.push_back(static_cast<db::item_id>(g.next_u64()));
  cert::normalize(p.read_set);
  cert::normalize(p.write_set);
  p.update_bytes = 2000;
  for (auto _ : state) {
    auto raw = cert::encode_txn(p);
    auto q = cert::decode_txn(raw);
    benchmark::DoNotOptimize(q.write_set.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cert::encoded_size(p)));
}
BENCHMARK(BM_txn_codec_round_trip);

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
