// Ablation: the sequencer's batch size (gcs batch_max) on the one commit
// path — batch assignment records, run delivery, and the two-stage commit
// pipeline. One leg per batch size on an update-heavy KV mix (YCSB-A),
// all legs under the online monitors and the off-line §5.3 safety check.
// At every leg the sequencer mints one assignment record per batch,
// closed at batch_max keys or after the batch delay (the same delay at
// every leg); delivery hands contiguous runs, and stage 1 certifies each
// run with the codec and cert fixed costs amortized while installs drain
// through the bounded pipeline. batch_max = 1 mints a record per payload;
// 16 is the default.
//
// Decisions must be batch-size-invariant; only charged CPU (and so
// throughput) may move. Reported per leg: committed throughput, abort
// rate, cert-latency p95, view changes, and the monitor verdict. The
// amortization term is additionally differenced at the component level:
// the same payload stream is certified one at a time and with the run
// cost pattern, decision-for-decision, every run.
//
//   $ ./bench_ablation_batching [--clients N] [--txns N] [--csv out.csv]
//                               [--batch-delay-ms D] [--json out.json]
//                               [--smoke]
//
// --json writes the machine-readable baseline (bench/BENCH_batching.json);
// --smoke runs the quick {1, 16} sweep and exits nonzero on a decision
// divergence (component differential, or a rerun of the default leg whose
// commit logs are not byte-identical), a monitor violation, or a default
// leg slower than the batch_max = 1 leg (CI wiring).
#include <cstdio>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "common.hpp"
#include "db/item.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

using namespace dbsm;

namespace {

struct point_result {
  std::size_t batch_max = 1;
  core::experiment_result res;
  std::uint64_t runs = 0;
  std::uint64_t run_payloads = 0;
  std::uint64_t pipeline_hw = 0;
  double mean_run() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(run_payloads) /
                           static_cast<double>(runs);
  }
};

/// Component-level divergence probe: one randomized update/read-only
/// stream through the scan oracle and a sharded instance charged with
/// the batched amortization pattern (first certification of each
/// simulated batch pays cost_fixed, the rest cost_batch_fixed). Any
/// decision or counter mismatch is exactly the divergence the batched
/// hot path would ship, without needing an end-to-end log comparison
/// (begin positions are timing-dependent across batch sizes).
bool amortization_decisions_diverge(std::size_t batch) {
  using db::item_id;
  cert::cert_config cfg;
  cfg.history_window = 4096;
  cert::reference_certifier oracle(cfg);
  cert::sharded_certifier amortized(cfg);
  util::rng g(607 + static_cast<std::uint64_t>(batch));
  std::size_t in_batch = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t pos = oracle.position();
    const std::uint64_t lo = pos > 90 ? pos - 90 : 0;
    const auto begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(pos)));
    std::vector<item_id> rs, ws;
    const int nr = static_cast<int>(g.uniform_int(0, 5));
    for (int k = 0; k < nr; ++k) {
      const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 500));
      rs.push_back(g.bernoulli(0.15) ? ((n >> 4) << 1 | 1) : (n << 1));
    }
    cert::normalize(rs);
    if (g.bernoulli(0.2)) {
      if (amortized.certify_read_only(begin, rs) !=
          oracle.certify_read_only(begin, rs))
        return true;
      continue;
    }
    const int nw = static_cast<int>(g.uniform_int(1, 4));
    for (int k = 0; k < nw; ++k) {
      const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 500));
      ws.push_back(n << 1);
      if (g.bernoulli(0.3)) ws.push_back((n >> 4) << 1 | 1);
    }
    cert::normalize(ws);
    const bool amortized_fixed = in_batch != 0;
    in_batch = (in_batch + 1) % batch;
    if (amortized.certify_update(begin, rs, ws, amortized_fixed) !=
            oracle.certify_update(begin, rs, ws) ||
        amortized.position() != oracle.position() ||
        amortized.commits() != oracle.commits() ||
        amortized.aborts() != oracle.aborts())
      return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("clients", "1500", "KV clients across 3 sites (enough "
                                  "load that batches actually fill)");
  flags.declare("keys", "20000", "keyspace size");
  flags.declare("batch-delay-ms", "0.5",
                "batch close delay at every leg (default: the "
                "group_config default)");
  flags.declare("json", "", "optional JSON baseline output path");
  flags.declare("smoke", "false",
                "CI mode: quick {1, 16} sweep + a rerun of the default "
                "leg, nonzero exit on decision divergence, monitor "
                "violation, or a default leg slower than batch_max = 1");
  if (!flags.parse(argc, argv)) return 1;
  const bool smoke = flags.get_bool("smoke");
  const bool quick = smoke || flags.get_bool("quick");

  const std::size_t default_batch = gcs::group_config{}.batch_max;
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{1, default_batch}
            : std::vector<std::size_t>{1, 4, default_batch, 32, 128};

  bool failed = false;
  std::vector<point_result> points;
  for (const std::size_t b : batches) {
    core::experiment_config cfg = bench::paper_config();
    cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
    bench::apply_common_flags(flags, cfg);
    // Several completed transactions per client, or the measurement is
    // all ramp-up transient (clients outnumbering responses).
    if (!flags.is_set("txns"))
      cfg.target_responses = quick ? 6 * cfg.clients : 20 * cfg.clients;
    // The protocol-bound regime, where per-delivery fixed costs are a
    // real fraction of CPU: light execution (20us/op instead of the
    // calibrated 0.2ms PostgreSQL ops) and moderate skew (theta 0.6 —
    // at the 0.99 default most updates die on local lock conflicts and
    // never reach the broadcast path the ablation measures).
    kv::kv_config k;
    k.keys = static_cast<std::uint32_t>(flags.get_int("keys"));
    k.preset = kv::mix::ycsb_a;
    k.zipf_theta = 0.5;
    k.value_bytes = 32;
    k.cpu_per_op = util::constant_dist(20e-6);
    k.think_time = util::exponential_dist(0.1);
    cfg.workload = kv::factory(k);
    // Fast-engine profile: the paper's PIII calibration spends ~2 ms of
    // CPU per commit and ~1.7 ms of RAID latency per sector, burying the
    // per-delivery protocol costs this ablation isolates. Model a faster
    // engine (write-cached storage, 10x lighter commit processing) so
    // the termination path is the binding resource.
    cfg.replica_cfg.server.commit_cpu = microseconds(200);
    cfg.replica_cfg.server.remote_apply_cpu = microseconds(100);
    cfg.replica_cfg.server.storage.request_latency = microseconds(170);
    cfg.gcs.batch_max = b;
    cfg.gcs.batch_delay = static_cast<sim_duration>(
        flags.get_double("batch-delay-ms") * milliseconds(1));

    point_result p;
    p.batch_max = b;
    p.res = bench::run_point(cfg, "batching batch_max=" + util::fmt(b));
    for (const core::site_report& sr : p.res.sites) {
      p.runs += sr.delivery_runs;
      p.run_payloads += sr.run_payloads;
      p.pipeline_hw = std::max(p.pipeline_hw, sr.pipeline_high_water);
    }
    if (amortization_decisions_diverge(b)) {
      std::fprintf(stderr,
                   "[batching] FAIL: amortized certification diverged "
                   "from the oracle at batch_max=%zu\n", b);
      failed = true;
    }
    if (smoke && b == default_batch) {
      // Same config, fresh cluster: the default path must be exactly
      // reproducible — any nondeterminism in run hand-off or pipeline
      // drain order shows up as diverging commit logs.
      core::experiment_result rerun =
          bench::run_point(cfg, "batching rerun batch_max=" + util::fmt(b));
      if (rerun.commit_logs != p.res.commit_logs) {
        std::fprintf(stderr,
                     "[batching] FAIL: default run not deterministic at "
                     "batch_max=%zu (rerun commit logs differ)\n", b);
        failed = true;
      }
    }
    points.push_back(std::move(p));
  }

  util::text_table t;
  t.header({"Batch", "tpm", "Abort %", "Cert p95 ms", "CPU %", "Disk %",
            "Mean run", "Pipe HW", "Views", "Safety", "Checks"});
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back({"batch_max", "tpm", "abort_pct", "cert_p95_ms",
                      "cpu_pct", "disk_pct", "mean_run_len",
                      "pipeline_high_water", "view_changes", "safety_ok",
                      "checks_ok"});
  std::string json = "{\n  \"benchmark\": \"batching_ablation\",\n"
                     "  \"mix\": \"ycsb_a\",\n  \"points\": [\n";
  const double per_payload_tpm =
      points.empty() ? 0.0 : points[0].res.tpm();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const point_result& p = points[i];
    const double p95 = p.res.cert_latency_ms.empty()
                           ? 0.0
                           : p.res.cert_latency_ms.quantile(0.95);
    if (!p.res.checks.ok || !p.res.safety.ok) {
      std::fprintf(stderr, "[batching] FAIL batch_max=%zu: %s\n",
                   p.batch_max, p.res.checks.summary().c_str());
      failed = true;
    }
    // The point of batching: the default leg must not be slower than the
    // one-record-per-payload leg (the simulation is deterministic, so this
    // is a real regression signal, not noise).
    if (p.batch_max == default_batch && p.res.tpm() < per_payload_tpm) {
      std::fprintf(stderr,
                   "[batching] FAIL: batch_max=%zu tpm %.0f below the "
                   "batch_max=1 leg (%.0f)\n",
                   p.batch_max, p.res.tpm(), per_payload_tpm);
      failed = true;
    }
    t.row({util::fmt(p.batch_max), util::fmt(p.res.tpm(), 0),
           util::fmt(p.res.stats.abort_rate_pct(), 2), util::fmt(p95, 2),
           util::fmt(100.0 * p.res.cpu_utilization, 1),
           util::fmt(100.0 * p.res.disk_utilization, 1),
           util::fmt(p.mean_run(), 1), util::fmt(p.pipeline_hw),
           util::fmt(p.res.view_changes),
           p.res.safety.ok ? "ok" : "VIOLATION",
           p.res.checks.ok ? "ok" : "VIOLATION"});
    csv_rows.push_back({util::fmt(p.batch_max), util::fmt(p.res.tpm(), 0),
                        util::fmt(p.res.stats.abort_rate_pct(), 2),
                        util::fmt(p95, 2),
                        util::fmt(100.0 * p.res.cpu_utilization, 1),
                        util::fmt(100.0 * p.res.disk_utilization, 1),
                        util::fmt(p.mean_run(), 1),
                        util::fmt(p.pipeline_hw),
                        util::fmt(p.res.view_changes),
                        p.res.safety.ok ? "1" : "0",
                        p.res.checks.ok ? "1" : "0"});
    json += "    {\"batch_max\": " + util::fmt(p.batch_max) +
            ", \"tpm\": " + util::fmt(p.res.tpm(), 0) +
            ", \"abort_pct\": " + util::fmt(p.res.stats.abort_rate_pct(), 2) +
            ", \"cert_p95_ms\": " + util::fmt(p95, 2) +
            ", \"cpu_pct\": " + util::fmt(100.0 * p.res.cpu_utilization, 1) +
            ", \"disk_pct\": " +
            util::fmt(100.0 * p.res.disk_utilization, 1) +
            ", \"mean_run_len\": " + util::fmt(p.mean_run(), 1) +
            ", \"pipeline_high_water\": " + util::fmt(p.pipeline_hw) +
            ", \"view_changes\": " + util::fmt(p.res.view_changes) +
            ", \"safety_ok\": " + (p.res.safety.ok ? "true" : "false") +
            ", \"checks_ok\": " + (p.res.checks.ok ? "true" : "false") +
            "}" + (i + 1 < points.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";

  bench::emit(t, flags.get_string("csv"), csv_rows);
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "[json] wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "[json] cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return failed ? 1 : 0;
}
