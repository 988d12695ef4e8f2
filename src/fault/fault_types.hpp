// The fault library (§5.3 plus the fault families the dependability
// literature exercises beyond the paper): one constructor per fault kind,
// each returning a plain `event` for scenario::add to place on the
// timeline.
//
//   loss_fault          — per-message drop at reception (random or bursty),
//                         windowable for transient loss bursts;
//   clock_drift_fault   — timers postponed, measured durations shrunk;
//   sched_latency_fault — random delay added to every timer armed;
//   crash_fault         — crash-stop of the target sites (one-shot);
//   recover_fault       — restart and rejoin of the target sites (one-shot);
//   partition_fault     — link cut between two host groups, healed at
//                         window end;
//   link_delay_fault    — extra delay on every cross-group link (slow path
//                         / degraded switch).
//
// Every fault takes a target-site selection; network group faults take the
// two sides explicitly (an empty second side means "everyone else").
#ifndef DBSM_FAULT_FAULT_TYPES_HPP
#define DBSM_FAULT_FAULT_TYPES_HPP

#include <utility>

#include "fault/fault.hpp"

namespace dbsm::fault {

/// A loss model at each target receiver for the fault window.
namespace loss_fault {
/// "Random loss: each message is discarded upon reception with the
/// specified probability."
inline event random(double probability,
                    site_selector targets = site_selector::all()) {
  return {.what = kind::loss_random, .targets = std::move(targets),
          .param = probability};
}
/// "Bursty loss: alternate periods in which messages are received or
/// discarded."
inline event bursty(double avg_loss_rate, double mean_burst_len,
                    site_selector targets = site_selector::all()) {
  return {.what = kind::loss_bursty, .targets = std::move(targets),
          .param = avg_loss_rate, .param2 = mean_burst_len};
}
}  // namespace loss_fault

/// Clock drift on the target sites (the paper drifts odd-numbered sites so
/// clocks drift relative to each other — pass site_selector::odd()).
inline event clock_drift_fault(double rate, site_selector targets) {
  return {.what = kind::clock_drift, .targets = std::move(targets),
          .param = rate};
}

/// Scheduling latency: uniform random delay in [0, max] added to every
/// timer armed by protocol code at the target sites.
inline event sched_latency_fault(sim_duration max, site_selector targets) {
  return {.what = kind::sched_latency, .targets = std::move(targets),
          .dur = max};
}

/// Crash-stop of the target sites at window start. recover_fault brings a
/// site back.
inline event crash_fault(site_selector targets) {
  return {.what = kind::crash, .targets = std::move(targets)};
}

/// Recovery of the target sites at window start: each site restarts,
/// obtains a state transfer from the primary partition, and is merged back
/// into the view. Requires an experiment with enable_recovery set.
inline event recover_fault(site_selector targets) {
  return {.what = kind::recover, .targets = std::move(targets)};
}

/// Network partition: cuts every link between side A and side B for the
/// fault window, then heals. An empty side B means "every site not in A".
/// In-flight datagrams crossing a cut link at reception time are dropped.
namespace partition_fault {
inline event two_way(site_set side_a, site_set side_b = {}) {
  return {.what = kind::partition, .targets = std::move(side_a),
          .side_b = std::move(side_b)};
}
/// Cuts only the A→B direction (B's traffic still reaches A), exercising
/// asymmetric failure-detector suspicion.
inline event one_way(site_set from, site_set to = {}) {
  return {.what = kind::partition_oneway, .targets = std::move(from),
          .side_b = std::move(to)};
}
}  // namespace partition_fault

/// Degraded path: extra delay on every link between side A and side B
/// (empty side B = everyone else) for the fault window.
namespace link_delay_fault {
inline event two_way(sim_duration extra, site_set side_a,
                     site_set side_b = {}) {
  return {.what = kind::link_delay, .targets = std::move(side_a),
          .side_b = std::move(side_b), .dur = extra};
}
/// Delays only datagrams travelling A→B.
inline event one_way(sim_duration extra, site_set from, site_set to = {}) {
  return {.what = kind::link_delay_oneway, .targets = std::move(from),
          .side_b = std::move(to), .dur = extra};
}
}  // namespace link_delay_fault

}  // namespace dbsm::fault

#endif  // DBSM_FAULT_FAULT_TYPES_HPP
