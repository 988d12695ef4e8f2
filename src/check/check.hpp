// Online invariant monitors (the step past the paper's §5.3 off-line log
// diff, after *Specification and Runtime Checking of Derecho*): protocol
// invariants are encoded as passive observers of the replica/GCS event
// stream and fire AT the violating event — with the offending site, sim
// time, and evidence in hand — instead of thousands of simulated seconds
// later when the run's logs are diffed.
//
// The seam is strictly observational: monitors are fed from inside the
// delivery/install jobs but never schedule simulator events, charge CPU,
// or consume randomness, so a run with monitors on is bit-identical to the
// same run with monitors off (the determinism anchors hold either way).
//
// The standard suite (check::standard_checker) implements:
//   agreed_prefix       — every site's commit log is a prefix of the global
//                         agreed order, checked at each install;
//   view_synchrony      — all sites installing view v agree on its
//                         membership and on the delivery cut;
//   primary_partition   — views chain through majorities and no site
//                         commits after learning a view excluded it;
//   cert_oracle (1SR)   — every certification decision cross-checked
//                         against the reference merge-scan certifier;
//   recovery_convergence— a rejoined site carries the donor's exact state
//                         within a bounded lag, and started recoveries
//                         finish within a deadline.
// Concrete monitors live in check/monitors.hpp.
#ifndef DBSM_CHECK_CHECK_HPP
#define DBSM_CHECK_CHECK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cert/cert_config.hpp"
#include "cert/txn_codec.hpp"
#include "gcs/view.hpp"
#include "place/placement.hpp"
#include "util/types.hpp"

namespace dbsm::check {

/// One invariant violation, raised online at the offending event.
struct violation {
  std::string invariant;  // the raising monitor's name
  unsigned site = 0;      // the site at which the event was observed
  sim_time at = 0;        // simulated time of the offending event
  std::string evidence;   // human-readable description of the event
};

struct config {
  /// Master switch; off, the experiment neither builds a checker nor
  /// touches the observer seam (behavior identical to pre-check builds).
  bool enabled = true;
  /// Stop the simulation at the first violation so the run ends with the
  /// offending event on top instead of thousands of events later.
  bool halt_on_violation = true;
  /// Cross-check certification decisions against the reference merge-scan
  /// oracle (monitor 4). The oracle scans only the concurrency window per
  /// decision, so it is cheap at experiment scale; disable for huge runs.
  bool cert_oracle = true;
  /// A rejoined site may trail the longest observed commit log by at most
  /// this many transactions at the instant its merged view installs.
  std::uint64_t rejoin_max_lag = 50;
  /// A recovery that has not produced a rejoin after this long has wedged
  /// (flagged at run end; recoveries cut short by the run ending are not).
  sim_duration rejoin_deadline = seconds(30);
};

struct report {
  bool ok = true;
  std::vector<violation> violations;
  // Coverage counters (how much the monitors actually saw).
  std::uint64_t decisions_checked = 0;
  std::uint64_t applies_checked = 0;
  std::uint64_t views_checked = 0;
  std::uint64_t log_resets_checked = 0;
  std::uint64_t rejoins_checked = 0;
  std::uint64_t reads_checked = 0;
  /// One line: "ok (...)" or the first violation.
  std::string summary() const;
};

// --- the observed event stream ---------------------------------------

/// A certification decision at one site: global total-order position,
/// the delivered payload, the verdict, and the site's commit-log length
/// after the decision was applied.
struct decision_event {
  unsigned site = 0;
  std::uint64_t global_seq = 0;
  const cert::txn_payload* txn = nullptr;
  bool commit = false;
  std::uint64_t log_len = 0;
  sim_time at = 0;
};

/// A committed update folded into one site's store, fired right after the
/// corresponding decision_event at that site: the write-set slice the site
/// makes durable under its placement, and its cumulative durable bytes.
struct apply_event {
  unsigned site = 0;
  std::uint64_t global_seq = 0;
  const cert::txn_payload* txn = nullptr;
  const std::vector<db::item_id>* durable_slice = nullptr;
  std::uint64_t durable_bytes = 0;
  sim_time at = 0;
};

/// A view install at one site, with the site's delivered count at the
/// instant of the install (the view-synchrony cut).
struct view_event {
  unsigned site = 0;
  gcs::view v;
  std::uint64_t delivered = 0;
  sim_time at = 0;
};

/// A site's commit log was replaced wholesale (recovery state transfer).
struct log_reset_event {
  unsigned site = 0;
  const std::vector<std::uint64_t>* log = nullptr;
  sim_time at = 0;
};

/// A site discovered that a view install excluded it. From this instant
/// it must not deliver (and hence not commit) anything further until it
/// rejoins through recovery.
struct excluded_event {
  unsigned site = 0;
  sim_time at = 0;
};

struct recovery_start_event {
  unsigned site = 0;
  sim_time at = 0;
};

/// A recovered site is live in the merged view with `log_len` committed.
struct rejoin_event {
  unsigned site = 0;
  std::uint64_t log_len = 0;
  sim_time at = 0;
};

/// A read-only transaction terminated on the read path (read/). For a
/// fast-path read the event claims the committed-prefix snapshot it was
/// served at — (agreed epoch, commit-log length, last committed txn id) —
/// which the read_snapshot monitor cross-checks against the reference
/// agreed order. Fallback reads (fast == false) terminate through the
/// certified path and carry no claim.
struct read_event {
  unsigned site = 0;
  bool fast = false;
  std::uint64_t epoch = 0;
  std::uint64_t log_len = 0;
  std::uint64_t last_commit_id = 0;
  sim_time at = 0;
};

// --- the monitor contract --------------------------------------------

/// Violation sink handed to every monitor callback.
class sink {
 public:
  virtual ~sink() = default;
  virtual void raise(violation v) = 0;
};

/// One online invariant monitor. Implementations override the events they
/// care about, keep their own state, and raise() on a violation. Monitors
/// must be passive: never mutate the observed objects, schedule simulator
/// work, or consume shared randomness.
class monitor {
 public:
  virtual ~monitor() = default;
  virtual std::string_view name() const = 0;
  virtual void on_decision(const decision_event&, sink&) {}
  virtual void on_apply(const apply_event&, sink&) {}
  virtual void on_view(const view_event&, sink&) {}
  virtual void on_excluded(const excluded_event&, sink&) {}
  virtual void on_log_reset(const log_reset_event&, sink&) {}
  virtual void on_recovery_start(const recovery_start_event&, sink&) {}
  virtual void on_rejoin(const rejoin_event&, sink&) {}
  virtual void on_read(const read_event&, sink&) {}
  /// Fired once when the run stops (for deadline-style invariants).
  virtual void on_run_end(sim_time /*now*/, sink&) {}
};

// --- the checker -------------------------------------------------------

/// Dispatches the event stream to registered monitors and collects their
/// violations; on the first one it fires the halt hook (when configured)
/// so the simulation stops with the offending event in hand.
class checker final : public sink {
 public:
  explicit checker(config cfg);

  /// The standard monitor suite for a `sites`-site system whose replicas
  /// certify under `cert_cfg` (the oracle must match the window). When
  /// `placement` is partial, the suite additionally includes the
  /// placement-consistency monitor ("every committed update is durable at
  /// exactly its replica set"); a full placement keeps the historical
  /// five-monitor set, so default runs observe the identical event flow.
  static std::unique_ptr<checker> standard(
      config cfg, unsigned sites, const cert::cert_config& cert_cfg,
      const place::placement& placement = place::placement());

  void add(std::unique_ptr<monitor> m);

  /// Called on the first violation (typically sim.stop()).
  void set_halt(std::function<void()> halt) { halt_ = std::move(halt); }

  // Event entry points (wired to the cluster's observer seam).
  void decision(const decision_event& e);
  void applied(const apply_event& e);
  void view_installed(const view_event& e);
  void excluded(const excluded_event& e);
  void log_reset(const log_reset_event& e);
  void recovery_started(const recovery_start_event& e);
  void rejoined(const rejoin_event& e);
  void read(const read_event& e);
  void run_end(sim_time now);

  void raise(violation v) override;

  bool ok() const { return report_.ok; }
  const report& get_report() const { return report_; }

 private:
  config cfg_;
  std::vector<std::unique_ptr<monitor>> monitors_;
  std::function<void()> halt_;
  report report_;
  bool halted_ = false;
};

}  // namespace dbsm::check

#endif  // DBSM_CHECK_CHECK_HPP
