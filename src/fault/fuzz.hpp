// Deterministic fault-scenario fuzzer with shrinking.
//
// generate(seed) composes the fault library (fault_types.hpp) into a
// random timeline — loss windows, drift, scheduling latency, link delay,
// partitions (two-way and one-way), crashes, recoveries — as a plain-data
// scenario_spec: a pure function of the seed, so the same seed always
// yields the byte-identical scenario. run_spec() executes a spec under
// the online invariant monitors (check/); when a run fails, shrink()
// reduces the spec to a minimal timeline that still reproduces the
// failure, by (1) dropping whole events, (2) narrowing [start, stop)
// windows, (3) subsetting target sites — every candidate re-run under the
// monitors, within a bounded run budget. The result is always a
// "shrink-of" the original (is_shrink_of()): same seed, a subsequence of
// the events, windows nested in the originals, targets subsetted — so a
// shrunk spec serialized with save() replays the exact minimal case.
#ifndef DBSM_FAULT_FUZZ_HPP
#define DBSM_FAULT_FUZZ_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "fault/fault.hpp"
#include "gcs/config.hpp"

namespace dbsm::fault::fuzz {

/// The fault kinds the generator draws from (each maps onto one
/// fault_types.hpp constructor).
enum class event_kind : std::uint8_t {
  loss_random,    // param = drop probability
  loss_bursty,    // param = avg loss rate, param2 = mean burst length
  clock_drift,    // param = drift rate
  sched_latency,  // dur = max added timer delay
  link_delay,     // dur = extra one-way delay, targets vs side_b
  partition,      // targets cut from side_b (empty = rest), healed at stop
  partition_oneway,  // targets→side_b direction only
  crash,          // one-shot at start
  recover,        // one-shot at start (needs recovery-enabled run)
};

const char* kind_name(event_kind k);

/// One timeline entry, plain data so specs serialize and shrink
/// structurally. Windowed kinds are active over [start, stop); one-shot
/// kinds (crash, recover) fire at start.
struct event_spec {
  event_kind kind = event_kind::loss_random;
  site_set targets;  // side A for network-pair kinds
  site_set side_b;   // empty = "every other site"
  sim_time start = 0;
  sim_time stop = 0;
  double param = 0;
  double param2 = 0;
  sim_duration dur = 0;

  bool one_shot() const {
    return kind == event_kind::crash || kind == event_kind::recover;
  }
  bool operator==(const event_spec&) const = default;
};

/// A complete generated scenario: the seed it came from (which also seeds
/// the experiment it runs under), the system size, and the timeline.
struct scenario_spec {
  std::uint64_t seed = 0;
  unsigned sites = 3;
  std::vector<event_spec> events;

  /// Realizes the timeline as an installable fault scenario (note:
  /// `scenario` names the enclosing namespace's class, not this spec).
  scenario build() const;
  /// True when any event needs a recovery-enabled experiment.
  bool needs_recovery() const;

  bool operator==(const scenario_spec&) const = default;
};

struct config {
  unsigned sites = 3;
  unsigned clients = 24;
  /// Stop the run after this many client responses (0 = run to
  /// max_sim_time); keeps one fuzz case bounded.
  std::uint64_t target_responses = 220;
  sim_duration max_sim_time = seconds(120);
  /// Events per generated scenario: 1 ..= max_faults.
  unsigned max_faults = 4;
  /// Fault windows are placed within [0, horizon).
  sim_time horizon = seconds(40);
  /// Let the generator emit crash → recover sequences (runs get
  /// membership recovery enabled).
  bool allow_recovery = true;
  /// Deliberately broken build under test: disable the primary-partition
  /// rule (gcs::group_config::unsafe_no_primary_partition) so the
  /// monitors have a real split-brain to catch.
  bool break_primary_partition = false;
  /// Drive each run with a read-heavy KV mix (YCSB-B) and the read/ fast
  /// path enabled, racing fuzzed fault timelines against lease revocation
  /// under the read_snapshot monitor. Only run_spec() consults it, so
  /// generated timelines for a given (seed, cfg) are unchanged and
  /// existing corpus seeds stay byte-identical when it is off.
  bool read_fast_path = false;
  /// Sequencer batch size for each run (gcs::group_config::batch_max).
  /// Only run_spec() consults it — like read_fast_path, generated
  /// timelines for a given (seed, cfg) are unchanged, so the same corpus
  /// replays at every batch size.
  std::size_t batch_max = gcs::group_config{}.batch_max;
  /// Monitor configuration for each run.
  check::config checks;
  /// Maximum experiment re-runs shrink() may spend.
  unsigned shrink_budget = 96;
};

/// One fuzz case outcome. `ok` is the conjunction of the online monitors
/// and the off-line §5.3 check; `detail` carries the first violation.
struct run_result {
  bool ok = true;
  std::string detail;
  std::uint64_t committed = 0;
  std::uint64_t responses = 0;
  std::uint64_t violations = 0;

  bool operator==(const run_result&) const = default;
};

/// Generates the scenario for `seed` — a pure function of (seed, cfg).
scenario_spec generate(std::uint64_t seed, const config& cfg);

/// Runs a spec under the monitors (experiment seeded by spec.seed).
run_result run_spec(const scenario_spec& spec, const config& cfg);

/// Shrinks a failing spec to a minimal timeline that still fails, within
/// cfg.shrink_budget re-runs. Returns `spec` unchanged if it passes.
scenario_spec shrink(const scenario_spec& spec, const config& cfg);

/// True iff `shrunk` is a valid reduction of `original`: a subsequence of
/// its events with nested windows and subsetted targets.
bool is_shrink_of(const scenario_spec& shrunk, const scenario_spec& original);

/// Line-based text form, stable across runs (doubles round-trip exactly).
std::string serialize(const scenario_spec& spec);
std::optional<scenario_spec> parse(const std::string& text);

/// File round-trip for replaying shrunk cases (docs/REPRODUCING.md).
bool save(const scenario_spec& spec, const std::string& path);
std::optional<scenario_spec> load(const std::string& path);

}  // namespace dbsm::fault::fuzz

#endif  // DBSM_FAULT_FUZZ_HPP
