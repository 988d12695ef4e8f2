// The one commit path — batch assignment records, run delivery and the
// pipelined commit: the assignment record codec, the certify→install
// hand-off queue, and the differential batching-equivalence suite — the
// run/amortized certification path must produce byte-identical decisions
// and committed sequences to the one-at-a-time cert::reference_certifier
// oracle at every batch_max × shards × certify_threads grid point, on
// randomized, TPC-C-shaped, and KV streams. The default path is held to
// the seed-7 anchors; every batch size is held to the invariant monitors,
// the §5.3 safety check, and same-config rerun determinism, across the
// whole fault catalog (the batch-boundary crash scenario included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "fault/scenarios.hpp"
#include "gcs/sequencer.hpp"
#include "tpcc/workload.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

namespace dbsm {
namespace {

using db::item_id;

// ---------- gcs::assignment_batch codec (the one assignment record) -----

TEST(assignment_batch_codec, round_trips_exactly) {
  gcs::assignment_batch b;
  b.base = 4711;
  b.keys = {{2, 1}, {0, 9}, {2, 2}, {1, 0xffffffffffffffffull}};
  const auto raw = gcs::encode_assignment_batch(b);
  const gcs::assignment_batch back = gcs::decode_assignment_batch(raw);
  EXPECT_EQ(back.base, b.base);
  ASSERT_EQ(back.keys.size(), b.keys.size());
  for (std::size_t i = 0; i < b.keys.size(); ++i) {
    EXPECT_EQ(back.keys[i].first, b.keys[i].first) << i;
    EXPECT_EQ(back.keys[i].second, b.keys[i].second) << i;
  }
}

TEST(assignment_batch_codec, empty_batch_round_trips) {
  gcs::assignment_batch b;
  b.base = 1;
  const gcs::assignment_batch back =
      gcs::decode_assignment_batch(gcs::encode_assignment_batch(b));
  EXPECT_EQ(back.base, 1u);
  EXPECT_TRUE(back.keys.empty());
}

TEST(assignment_batch_codec, costs_twelve_bytes_per_key_plus_ten) {
  // The one assignment wire format: a u64 base and a u16 count, then a
  // (u32 sender, u64 app_seq) pair per key.
  gcs::assignment_batch b;
  b.base = 100;
  for (std::uint64_t i = 0; i < 64; ++i)
    b.keys.emplace_back(static_cast<node_id>(i % 5), i);
  EXPECT_EQ(gcs::encode_assignment_batch(b)->size(), 10u + 12u * 64u);
}

// ---------- core::commit_pipeline hand-off semantics ----------

cert::txn_payload payload_with_id(std::uint64_t id) {
  cert::txn_payload p;
  p.id = id;
  return p;
}

TEST(commit_pipeline, drains_in_fifo_delivery_order) {
  core::commit_pipeline q(/*capacity=*/16);
  for (std::uint64_t id = 1; id <= 5; ++id)
    ASSERT_TRUE(q.push({payload_with_id(id), id % 2 == 0, false}));
  EXPECT_EQ(q.size(), 5u);
  std::vector<std::uint64_t> ids;
  std::vector<bool> commits;
  const std::size_t n = q.drain([&](core::commit_pipeline::item& it) {
    ids.push_back(it.txn.id);
    commits.push_back(it.commit);
  });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(commits, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_TRUE(q.empty());
}

TEST(commit_pipeline, bounded_capacity_back_pressures) {
  core::commit_pipeline q(/*capacity=*/2);
  EXPECT_TRUE(q.push({payload_with_id(1), true, false}));
  EXPECT_FALSE(q.full());
  EXPECT_TRUE(q.push({payload_with_id(2), true, false}));
  EXPECT_TRUE(q.full());
  // A push at capacity is refused and NOT queued — the caller must drain.
  EXPECT_FALSE(q.push({payload_with_id(3), true, false}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.enqueued(), 2u);
  q.drain([](core::commit_pipeline::item&) {});
  EXPECT_FALSE(q.full());
  EXPECT_TRUE(q.push({payload_with_id(3), true, false}));
}

TEST(commit_pipeline, zero_capacity_never_back_pressures) {
  core::commit_pipeline q(/*capacity=*/0);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    ASSERT_FALSE(q.full());
    ASSERT_TRUE(q.push({payload_with_id(id), true, false}));
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(q.high_water(), 1000u);
}

TEST(commit_pipeline, drain_covers_items_pushed_by_the_sink) {
  // Stage 2 may trigger further deliveries (origin-side finish resubmits);
  // the drain loop re-reads the queue, so nothing is stranded.
  core::commit_pipeline q(/*capacity=*/8);
  ASSERT_TRUE(q.push({payload_with_id(1), true, false}));
  std::vector<std::uint64_t> seen;
  q.drain([&](core::commit_pipeline::item& it) {
    seen.push_back(it.txn.id);
    if (it.txn.id < 3) q.push({payload_with_id(it.txn.id + 1), true, false});
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.enqueued(), 3u);
  EXPECT_EQ(q.drained(), 3u);
}

TEST(commit_pipeline, probes_track_enqueued_drained_high_water) {
  core::commit_pipeline q(/*capacity=*/4);
  for (std::uint64_t id = 0; id < 3; ++id)
    q.push({payload_with_id(id), true, false});
  EXPECT_EQ(q.high_water(), 3u);
  q.drain([](core::commit_pipeline::item&) {});
  q.push({payload_with_id(9), false, true});  // read-only keeps its slot
  EXPECT_EQ(q.enqueued(), 4u);
  EXPECT_EQ(q.drained(), 3u);
  EXPECT_EQ(q.high_water(), 3u);  // peak, not current
  bool ro = false;
  q.drain([&](core::commit_pipeline::item& it) { ro = it.read_only; });
  EXPECT_TRUE(ro);
  EXPECT_EQ(q.drained(), 4u);
}

// ---------- differential batching equivalence ----------
//
// Run delivery differs from certifying one payload at a time in exactly
// two ways: certification runs through the sharded certifier with the
// fixed term amortized after a run's first probe, and installs drain
// through the commit_pipeline a stage behind. Neither may move a decision
// or a committed id. This harness feeds one recorded request stream
// through (a) the one-at-a-time cert::reference_certifier oracle and (b)
// the run pipeline at a (batch_max, shards, threads) grid point, and
// asserts the decision sequence, the stage-1 commit log, and the stage-2
// install sequence are byte-identical.

struct request {
  std::uint64_t id = 0;
  std::uint64_t begin = 0;
  bool read_only = false;
  std::vector<item_id> read_set;
  std::vector<item_id> write_set;
};

struct batch_grid_point {
  std::size_t batch_max;
  std::size_t shards;
  unsigned threads;
};

const std::vector<batch_grid_point>& batch_grid() {
  // batch_max {1, 4, 32, 256} x shards {1, 8} x threads {1, 4}.
  static const std::vector<batch_grid_point> g = [] {
    std::vector<batch_grid_point> v;
    for (const std::size_t b : {1, 4, 32, 256})
      for (const std::size_t s : {1, 8})
        for (const unsigned t : {1u, 4u}) v.push_back({b, s, t});
    return v;
  }();
  return g;
}

struct path_trace {
  std::vector<bool> decisions;          // every request, stream order
  std::vector<std::uint64_t> commit_log;  // committed update ids
  std::vector<std::uint64_t> installed;   // ids drained from the pipeline
};

/// The oracle: the merge-scan certifier, one payload at a time, installs
/// inline.
path_trace run_serial(const std::vector<request>& stream,
                      const cert::cert_config& cfg) {
  cert::reference_certifier oracle(cfg);
  path_trace t;
  for (const request& r : stream) {
    const bool ok =
        r.read_only
            ? oracle.certify_read_only(r.begin, r.read_set)
            : oracle.certify_update(r.begin, r.read_set, r.write_set);
    t.decisions.push_back(ok);
    if (!r.read_only && ok) {
      t.commit_log.push_back(r.id);
      t.installed.push_back(r.id);  // inline: install == decision order
    }
  }
  return t;
}

/// The delivery path: the stream arrives in runs of up to `batch_max`
/// payloads; stage 1 certifies back-to-back (fixed term amortized after
/// the run's first probe) and pushes certified updates into the bounded
/// hand-off queue; stage 2 drains installs after each run — exactly the
/// replica::on_deliver_batch contract.
path_trace run_batched(const std::vector<request>& stream,
                       cert::cert_config cfg, const batch_grid_point& p,
                       std::size_t pipeline_capacity) {
  cfg.shards = p.shards;
  cfg.certify_threads = p.threads;
  cert::sharded_certifier sharded(cfg);
  core::commit_pipeline pipe(pipeline_capacity);
  path_trace t;
  const auto install = [&t](core::commit_pipeline::item& it) {
    if (!it.read_only && it.commit) t.installed.push_back(it.txn.id);
  };
  for (std::size_t at = 0; at < stream.size(); at += p.batch_max) {
    const std::size_t end = std::min(at + p.batch_max, stream.size());
    bool first_cert = true;
    for (std::size_t i = at; i < end; ++i) {  // stage 1
      const request& r = stream[i];
      bool ok;
      if (r.read_only) {
        ok = sharded.certify_read_only(r.begin, r.read_set);
      } else {
        ok = sharded.certify_update(r.begin, r.read_set, r.write_set,
                                    /*amortized_fixed=*/!first_cert);
        first_cert = false;
      }
      t.decisions.push_back(ok);
      if (!r.read_only && ok) t.commit_log.push_back(r.id);
      if (pipe.full()) pipe.drain(install);  // deterministic back-pressure
      core::commit_pipeline::item it;
      it.txn.id = r.id;
      it.commit = ok;
      it.read_only = r.read_only;
      EXPECT_TRUE(pipe.push(std::move(it)));  // full() was drained above
    }
    pipe.drain(install);  // stage 2: the deferred install job
  }
  EXPECT_GT(pipe.high_water(), 0u);
  return t;
}

void expect_equivalent(const std::vector<request>& stream,
                       const cert::cert_config& cfg, const char* what) {
  const path_trace serial = run_serial(stream, cfg);
  for (const batch_grid_point& p : batch_grid()) {
    // A hand-off bound smaller than the batch forces mid-run synchronous
    // drains — the back-pressure path is exercised, decisions must not
    // notice.
    for (const std::size_t cap : {std::size_t{3}, std::size_t{1024}}) {
      const path_trace batched = run_batched(stream, cfg, p, cap);
      ASSERT_EQ(batched.decisions, serial.decisions)
          << what << ": batch " << p.batch_max << " shards " << p.shards
          << " threads " << p.threads << " cap " << cap;
      ASSERT_EQ(batched.commit_log, serial.commit_log)
          << what << ": batch " << p.batch_max << " shards " << p.shards
          << " threads " << p.threads << " cap " << cap;
      ASSERT_EQ(batched.installed, serial.installed)
          << what << ": batch " << p.batch_max << " shards " << p.shards
          << " threads " << p.threads << " cap " << cap;
    }
  }
  EXPECT_FALSE(serial.commit_log.empty()) << what;
  // The stream must carry real conflict pressure or the grid proves
  // nothing.
  EXPECT_LT(serial.commit_log.size(),
            serial.decisions.size())
      << what << ": no aborts — widen the conflict window";
}

constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

TEST(batching_differential, randomized_stream_agrees_at_every_point) {
  // High-conflict randomized mix over a small id space, snapshots lagging
  // up to 60 deliveries (same shape as the cert_shard differential).
  util::rng g(911);
  std::vector<request> stream;
  std::uint64_t position = 0;
  for (int i = 0; i < 1500; ++i) {
    request r;
    r.id = 1000 + static_cast<std::uint64_t>(i);
    const std::uint64_t lo = position > 60 ? position - 60 : 0;
    r.begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(position)));
    const int nr = static_cast<int>(g.uniform_int(0, 6));
    for (int k = 0; k < nr; ++k) {
      const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 300));
      r.read_set.push_back(g.bernoulli(0.2) ? gran(n >> 4) : tup(n));
    }
    cert::normalize(r.read_set);
    if (g.bernoulli(0.2)) {
      r.read_only = true;
    } else {
      const int nw = static_cast<int>(g.uniform_int(1, 5));
      for (int k = 0; k < nw; ++k) {
        const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 300));
        r.write_set.push_back(tup(n));
        if (g.bernoulli(0.4)) r.write_set.push_back(gran(n >> 4));
      }
      cert::normalize(r.write_set);
      ++position;  // updates consume a total-order position
    }
    stream.push_back(std::move(r));
  }
  cert::cert_config cfg;
  cfg.history_window = 50000;
  expect_equivalent(stream, cfg, "randomized");
}

TEST(batching_differential, tpcc_shaped_stream_agrees_at_every_point) {
  tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 10,
                      util::rng(71));
  util::rng g(72);
  std::vector<request> stream;
  std::uint64_t position = 0;
  for (int i = 0; i < 1200; ++i) {
    const auto req = load.next(static_cast<std::uint32_t>(i % 10),
                               static_cast<std::uint32_t>(i % 10));
    request r;
    r.id = 5000 + static_cast<std::uint64_t>(i);
    const std::uint64_t lo = position > 120 ? position - 120 : 0;
    r.begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(position)));
    r.read_only = req.read_only();
    r.read_set = req.read_set;
    r.write_set = req.write_set;
    if (!r.read_only) ++position;
    stream.push_back(std::move(r));
  }
  cert::cert_config cfg;
  cfg.history_window = 512;  // window expiry fires identically everywhere
  expect_equivalent(stream, cfg, "tpcc");
}

TEST(batching_differential, kv_scan_stream_agrees_at_every_point) {
  kv::kv_config k;
  k.keys = 4000;
  k.keys_per_granule = 64;
  k.zipf_theta = 0.9;
  k.mix_read = 0.2;
  k.mix_update = 0.35;
  k.mix_scan = 0.3;
  kv::kv_workload wl(k);
  wl.prepare(1, 8, util::rng(81));
  auto src = wl.make_source({0, 0, 8}, util::rng(82));
  util::rng g(83);
  std::vector<request> stream;
  std::uint64_t position = 0;
  for (int i = 0; i < 1200; ++i) {
    const auto req = src->next(0);
    request r;
    r.id = 9000 + static_cast<std::uint64_t>(i);
    const std::uint64_t lo = position > 120 ? position - 120 : 0;
    r.begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(position)));
    r.read_only = req.read_only();
    r.read_set = req.read_set;
    r.write_set = req.write_set;
    if (!r.read_only) ++position;
    stream.push_back(std::move(r));
  }
  cert::cert_config cfg;
  cfg.history_window = 256;
  expect_equivalent(stream, cfg, "kv");
}

TEST(batching_differential, amortization_changes_cost_never_decisions) {
  // The fixed-term switch is the one modeled-cost difference stage 1
  // introduces: amortized probes charge cost_batch_fixed, a run's first
  // charges cost_fixed — and nothing else moves.
  cert::cert_config cfg;
  cert::sharded_certifier a(cfg), b(cfg);
  std::vector<item_id> ws = {tup(1), tup(2)};
  cert::normalize(ws);
  EXPECT_EQ(a.certify_update(0, {}, ws, /*amortized_fixed=*/false),
            b.certify_update(0, {}, ws, /*amortized_fixed=*/true));
  EXPECT_EQ(a.last_cost() - b.last_cost(),
            cfg.cost_fixed - cfg.cost_batch_fixed);
  EXPECT_EQ(a.position(), b.position());
  EXPECT_EQ(a.commits(), b.commits());
}

// ---------- the default path is pinned to the seed-7 anchors ----------

std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

// Same anchors as tests/place_test.cpp and tests/read_path_test.cpp: the
// default TPC-C campaign must not move by a single commit, and its
// deliveries all go out as runs through the pipelined commit path.
TEST(batching_disabled, matches_pre_batching_anchors) {
  struct anchor {
    const char* scenario;
    std::uint64_t committed, responses, log0_len, log0_hash;
  };
  const anchor anchors[] = {
      {"no_faults", 399, 400, 369, 961761018588045584ull},
      {"crash", 398, 400, 365, 10089116188003370927ull},
      {"crash_restart", 395, 400, 365, 7733846660168087355ull},
  };
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    core::experiment_config cfg;
    cfg.sites = 3;
    cfg.clients = 60;
    cfg.target_responses = 400;
    cfg.max_sim_time = seconds(900);
    cfg.seed = 7;
    fault::scenarios::params prm;
    prm.sites = cfg.sites;
    cfg.faults = e->make(prm);
    cfg.enable_recovery = e->needs_recovery;
    const auto r = core::run_experiment(cfg);
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    EXPECT_EQ(r.responses, a.responses) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty());
    EXPECT_EQ(r.commit_logs[0].size(), a.log0_len) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << r.checks.summary();
    std::uint64_t runs = 0;
    for (const core::site_report& s : r.sites) runs += s.delivery_runs;
    EXPECT_GT(runs, 0u) << a.scenario;
  }
}

// ---------- end-to-end batched runs ----------

core::experiment_config batched_kv_cfg(std::size_t batch_max) {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 45;
  cfg.target_responses = 400;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;  // most updates reach broadcast (real batches)
  k.think_time = util::exponential_dist(0.5);
  cfg.workload = kv::factory(k);
  cfg.gcs.batch_max = batch_max;
  cfg.gcs.batch_delay = milliseconds(2);
  return cfg;
}

TEST(batching_enabled, runs_clean_and_actually_batches) {
  const auto r = core::run_experiment(batched_kv_cfg(32));
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_GT(r.stats.total_committed(), 0u);
  std::uint64_t runs = 0, payloads = 0;
  for (const core::site_report& s : r.sites) {
    runs += s.delivery_runs;
    payloads += s.run_payloads;
  }
  EXPECT_GT(runs, 0u);          // the batched delivery path was on
  EXPECT_GE(payloads, runs);    // every run carries >= 1 payload
}

TEST(batching_enabled, same_config_rerun_is_deterministic) {
  // The pipeline hand-off must not introduce scheduling nondeterminism:
  // two runs of the identical batched config produce byte-identical
  // commit logs at every site.
  const auto a = core::run_experiment(batched_kv_cfg(32));
  const auto b = core::run_experiment(batched_kv_cfg(32));
  ASSERT_EQ(a.commit_logs.size(), b.commit_logs.size());
  EXPECT_EQ(a.commit_logs, b.commit_logs);
  EXPECT_EQ(a.stats.total_committed(), b.stats.total_committed());
  EXPECT_EQ(a.responses, b.responses);
}

// ---------- fault catalog off the default batch size ----------

// Every catalog scenario at batch_max 1 (a record per payload) and 32
// (2 ms close delay); tests/ordering_test.cpp covers the default. The
// online monitors cross-check every decision and
// apply, and the §5.3 off-line safety check must hold — view changes land
// on batch boundaries or roll accumulated-but-unminted keys back into the
// deterministic flush. Covers the batch_boundary_crash scenario.
TEST(batching_enabled, survives_the_full_fault_catalog) {
  bool saw_batch_boundary_crash = false;
  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{32}}) {
    for (const auto& e : fault::scenarios::catalog()) {
      const unsigned sites = e.min_sites > 3 ? 5 : 3;
      auto cfg = batched_kv_cfg(batch_max);
      cfg.sites = sites;
      fault::scenarios::params prm;
      prm.sites = sites;
      prm.onset = seconds(2);  // inside the run, not past its end
      cfg.faults = e.make(prm);
      cfg.enable_recovery = e.needs_recovery;
      if (e.placement_degree != 0)
        cfg.placement = {place::strategy::round_robin, e.placement_degree};
      cfg.target_responses = 0;
      cfg.max_sim_time =
          std::string(e.name) == "rolling_restarts" ? seconds(55)
          : e.needs_recovery                        ? seconds(25)
                                                    : seconds(15);
      const auto r = core::run_experiment(cfg);
      EXPECT_TRUE(r.checks.ok)
          << e.name << "/" << batch_max << ": " << r.checks.summary();
      EXPECT_TRUE(r.safety.ok)
          << e.name << "/" << batch_max << ": " << r.safety.detail;
      EXPECT_GT(r.stats.total_committed(), 0u) << e.name << "/" << batch_max;
      if (std::string(e.name) == "batch_boundary_crash")
        saw_batch_boundary_crash = true;
    }
  }
  EXPECT_TRUE(saw_batch_boundary_crash);  // the scenario is cataloged
}

// The batch-boundary crash with one-key records: the scenario must also
// be sound when there is no open batch to strand (batch_max = 1).
TEST(batching_disabled, batch_boundary_crash_is_sound_serially) {
  auto cfg = batched_kv_cfg(1);
  cfg.gcs.batch_delay = microseconds(500);  // back to the default
  fault::scenarios::params prm;
  prm.sites = cfg.sites;
  prm.onset = seconds(2);
  cfg.faults = fault::scenarios::batch_boundary_crash(prm);
  cfg.target_responses = 0;
  cfg.max_sim_time = seconds(15);
  const auto r = core::run_experiment(cfg);
  EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  EXPECT_TRUE(r.safety.ok) << r.safety.detail;
  EXPECT_GT(r.view_changes, 0u);  // the sequencer crash was seen
}

}  // namespace
}  // namespace dbsm
