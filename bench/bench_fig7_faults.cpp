// Figure 7 (§5.3): performance under fault injection — 3 sites, 750
// clients, comparing no faults, 5% random loss, and 5% bursty loss
// (average burst length 5):
//   (a) ECDF of transaction latency (log-scale x in the paper),
//   (b) ECDF of certification latency,
//   (c) CPU usage by protocol (real) jobs,
// plus the §5.3 analysis probes: fraction of deliveries delayed, NAKs,
// retransmissions, and sender-blocking episodes (the sequencer buffer
// exhaustion the paper diagnoses).
#include <cstdio>

#include "common.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("clients", "750", "client count (paper: 750)");
  flags.declare("ecdf-points", "15", "quantile points per ECDF series");
  if (!flags.parse(argc, argv)) return 1;

  struct scenario {
    const char* label;
    fault::scenario faults;
  };
  const std::vector<scenario> scenarios = {
      {"No Faults", {}},
      {"Random Loss", fault::scenarios::random_loss()},
      {"Bursty Loss", fault::scenarios::bursty_loss()},
  };

  std::vector<core::experiment_result> results;
  for (const auto& s : scenarios) {
    auto cfg = bench::paper_config();
    bench::apply_common_flags(flags, cfg);
    cfg.sites = 3;
    cfg.cpus_per_site = 1;
    cfg.clients = static_cast<unsigned>(flags.get_int("clients"));
    cfg.faults = s.faults;
    results.push_back(bench::run_point(cfg, s.label));
  }

  const auto n = static_cast<std::size_t>(flags.get_int("ecdf-points"));
  auto print_ecdf = [&](const char* title, auto pick) {
    util::text_table t;
    std::vector<std::string> header{"quantile"};
    for (const auto& s : scenarios) header.push_back(s.label);
    t.header(header);
    std::vector<std::vector<std::string>> rows;
    rows.push_back(header);
    for (std::size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(i) + 0.5) / n;
      std::vector<std::string> row{util::fmt(q, 2)};
      for (std::size_t k = 0; k < results.size(); ++k)
        row.push_back(util::fmt(pick(results[k]).quantile(q), 1));
      t.row(row);
      rows.push_back(row);
    }
    std::printf("\n=== Figure 7: %s ECDF (value in ms at quantile) ===\n",
                title);
    const std::string csv = flags.get_string("csv");
    bench::emit(t, csv.empty() ? "" : csv + "." + title + ".csv", rows);
  };

  print_ecdf("transaction_latency",
             [](const core::experiment_result& r) {
               return r.stats.pooled_latency_ms();
             });
  print_ecdf("certification_latency",
             [](const core::experiment_result& r) {
               return r.cert_latency_ms;
             });

  // (c) CPU usage by protocol jobs, plus the §5.3 probes. "Delayed" =
  // certification latency beyond the fault-free envelope (its p95), the
  // paper's "delaying 30% to 40% of messages at the application level".
  const double delay_threshold_ms =
      std::max(results[0].cert_latency_ms.quantile(0.95), 1.0);
  {
    util::text_table t;
    t.header({"Run", "Proto CPU(%)", "Delayed(%)", "NAKs", "Retx",
              "Blocked(#)", "Blocked(ms)", "p99 lat(ms)"});
    std::vector<std::vector<std::string>> rows;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      const double delayed_pct =
          r.cert_latency_ms.empty()
              ? 0.0
              : 100.0 *
                    (1.0 - r.cert_latency_ms.ecdf_at(delay_threshold_ms));
      std::vector<std::string> row{
          scenarios[k].label,
          util::fmt(r.protocol_cpu_utilization * 100.0, 2),
          util::fmt(delayed_pct, 1),
          util::fmt(static_cast<std::int64_t>(r.naks_sent)),
          util::fmt(static_cast<std::int64_t>(r.retransmissions)),
          util::fmt(static_cast<std::int64_t>(r.blocked_episodes)),
          util::fmt(r.blocked_ms, 1),
          util::fmt(r.stats.pooled_latency_ms().quantile(0.99), 1)};
      t.row(row);
      rows.push_back(row);
    }
    std::printf(
        "\n=== Figure 7(c): protocol CPU usage and loss probes "
        "(delay threshold %.1f ms) ===\n",
        delay_threshold_ms);
    const std::string csv = flags.get_string("csv");
    bench::emit(t, csv.empty() ? "" : csv + ".cpu.csv", rows);
  }

  std::puts(
      "\nPaper shapes: random 5% loss hurts far more than bursty 5% — a "
      "long latency tail\n(~10x at the top percentiles) driven by "
      "certification delays (30-40% of messages\ndelayed), protocol CPU "
      "rising ~1.2% -> ~1.9%, caused by sender-buffer exhaustion\nat the "
      "sequencer awaiting stability garbage collection (§5.3).");
  return 0;
}
