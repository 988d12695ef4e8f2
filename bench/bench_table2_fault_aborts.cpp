// Table 2 (§5.3): abort rates (%) per transaction class with 3 sites and
// 1000 clients — no losses vs 5% random loss vs 5% bursty loss.
//
// --json <path> additionally records the run as a machine-readable
// baseline (bench/BENCH_faults.json in the repo).
#include <cstdio>

#include "common.hpp"
#include "tpcc/profile.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  bench::declare_common_flags(flags);
  flags.declare("json", "", "write a JSON baseline to this path");
  if (!flags.parse(argc, argv)) return 1;

  struct scenario {
    const char* label;
    fault::scenario faults;
  };
  const std::vector<scenario> scenarios = {
      {"No Losses", {}},
      {"Random - 5%", fault::scenarios::random_loss()},
      {"Bursty - 5%", fault::scenarios::bursty_loss()},
  };

  std::vector<core::experiment_result> results;
  for (const auto& s : scenarios) {
    auto cfg = bench::paper_config();
    bench::apply_common_flags(flags, cfg);
    cfg.sites = 3;
    cfg.cpus_per_site = 1;
    cfg.clients = 1000;
    cfg.faults = s.faults;
    results.push_back(bench::run_point(cfg, s.label));
  }

  const std::vector<db::txn_class> row_order = {
      tpcc::c_delivery,          tpcc::c_neworder,
      tpcc::c_payment_long,      tpcc::c_payment_short,
      tpcc::c_orderstatus_long,  tpcc::c_orderstatus_short,
      tpcc::c_stocklevel,
  };

  util::text_table t;
  std::vector<std::string> header{"Transaction"};
  for (const auto& s : scenarios) header.push_back(s.label);
  t.header(header);
  std::vector<std::vector<std::string>> rows;
  rows.push_back(header);
  for (db::txn_class cls : row_order) {
    std::vector<std::string> row{tpcc::class_name(cls)};
    for (const auto& r : results)
      row.push_back(util::fmt(r.stats.of(cls).abort_rate_pct(), 2));
    t.row(row);
    rows.push_back(row);
  }
  std::vector<std::string> all_row{"All"};
  for (const auto& r : results)
    all_row.push_back(util::fmt(r.stats.abort_rate_pct(), 2));
  t.row(all_row);
  rows.push_back(all_row);

  std::puts("=== Table 2: abort rates with 3 sites / 1000 clients (%) ===");
  bench::emit(t, flags.get_string("csv"), rows);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"table2_fault_aborts\",\n");
    std::fprintf(f, "  \"config\": {\"sites\": 3, \"clients\": 1000, "
                    "\"txns\": %llu, \"seed\": %llu},\n",
                 static_cast<unsigned long long>(
                     results[0].responses),
                 static_cast<unsigned long long>(flags.get_u64("seed")));
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      std::fprintf(
          f,
          "    {\"label\": \"%s\", \"committed\": %llu, \"abort_pct\": "
          "%.2f, \"tpm\": %.0f, \"p99_latency_ms\": %.1f, "
          "\"retransmissions\": %llu, \"view_changes\": %llu, "
          "\"safety_ok\": %s}%s\n",
          scenarios[k].label,
          static_cast<unsigned long long>(r.stats.total_committed()),
          r.stats.abort_rate_pct(), r.tpm(),
          r.stats.pooled_latency_ms().quantile(0.99),
          static_cast<unsigned long long>(r.retransmissions),
          static_cast<unsigned long long>(r.view_changes),
          r.safety.ok ? "true" : "false",
          k + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("JSON baseline written to %s\n", json_path.c_str());
  }
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (!results[k].safety.ok) {
      std::printf("SAFETY VIOLATION in %s: %s\n", scenarios[k].label,
                  results[k].safety.detail.c_str());
      return 1;
    }
  }
  std::puts(
      "\nPaper shapes: random loss raises abort rates across update "
      "classes well above\nbursty loss of the same average rate "
      "(certification delays extend conflict\nwindows); all operational "
      "sites still commit identical sequences.");
  return 0;
}
