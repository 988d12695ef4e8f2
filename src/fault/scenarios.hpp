// Named fault-scenario library: the paper's five §5.3 campaigns (whole-run
// faults, drift on the odd sites as the paper injects it) plus composed,
// timed scenarios with targets and [start, stop) windows.
//
// Each catalog entry is a factory over `params` (system size, fault onset,
// the GCS exclusion timeout) so one scenario definition scales to any
// experiment; `min_sites` tells the caller how many sites the scenario
// needs to be meaningful (e.g. cascading_crashes must leave a majority).
#ifndef DBSM_FAULT_SCENARIOS_HPP
#define DBSM_FAULT_SCENARIOS_HPP

#include <string_view>
#include <vector>

#include "fault/fault.hpp"

namespace dbsm::fault::scenarios {

/// Knobs shared by the named scenarios.
struct params {
  /// Sites in the experiment the scenario will be installed into.
  unsigned sites = 3;
  /// When the first timed fault strikes (whole-run faults ignore it).
  sim_time onset = seconds(30);
  /// The failure detector's suspicion timeout (gcs::group_config
  /// suspect_timeout): partition_minority heals a few multiples after it
  /// so the cut side is excluded before connectivity returns.
  sim_duration exclusion_timeout = milliseconds(300);
};

// --- the paper's five (§5.3) ---
scenario no_faults(const params& p = {});
scenario clock_drift(const params& p = {});    // 10% drift, odd sites
scenario sched_latency(const params& p = {});  // <=5ms, all sites
scenario random_loss(const params& p = {});    // 5%
scenario bursty_loss(const params& p = {});    // 5%, mean burst 5
scenario crash(const params& p = {});          // last site at onset

// --- composed / timed scenarios ---
/// Cuts the highest site off the rest at onset, heals 4 exclusion
/// timeouts later: the majority excludes it and keeps committing, the
/// minority blocks (primary-partition rule) instead of split-braining.
scenario partition_minority(const params& p = {});
/// Repeating transient loss bursts (a flapping switch port): 25% random
/// loss for 1s, every 4s, six times from onset.
scenario flaky_switch(const params& p = {});
/// One chronically slow site: sustained scheduling latency (<=20ms) on
/// the highest site for the whole run.
scenario slow_replica(const params& p = {});
/// Two crashes 15s apart starting at onset, killing the two highest
/// sites; needs >= 5 sites so a majority survives both.
scenario cascading_crashes(const params& p = {});

// --- recovery scenarios (full cut/heal/rejoin cycles; these require the
// --- experiment to enable membership recovery) ---
/// The partition_minority shape completed: cut the highest site, heal
/// after it is excluded, then recover it — state transfer, replay, view
/// merge — so it commits new transactions alongside everyone else.
scenario partition_cut_heal_rejoin(const params& p = {});
/// Crash-stop the highest site at onset, restart it 10s later: the
/// classic kill-and-restart cycle over the crash path instead of a
/// partition.
scenario crash_restart(const params& p = {});
/// Restart every site in turn (crash, recover 8s later, next site 20s
/// after), sequencer included — a rolling upgrade with no full outage.
scenario rolling_restarts(const params& p = {});
/// The crash_restart shape run under a k=2 partial placement (the catalog
/// entry carries placement_degree = 2): the rejoining site's state
/// transfer ships only the granule slice it replicates, and the placement
/// monitor checks every post-rejoin apply. Needs >= 4 sites so "2 of N"
/// is a strict subset while a majority survives the crash.
scenario partial_k2_crash_rejoin(const params& p = {});

/// Crash mid-batch between sequence and stability: the sequencer's
/// outbound links are delayed from onset, then it crashes half a window
/// later — batch assignment records minted in the window are sequenced
/// but nowhere stable, and the survivors' flush must cut through them
/// deterministically (each record within the cut everywhere or dropped
/// everywhere), at any batch_max.
scenario batch_boundary_crash(const params& p = {});

// --- read-path (lease) scenarios: exercise the read/ fast path's
// --- revocation races; meaningful with replica_cfg.read.path = fast ---
/// Three partition blips of the last site, each shorter than the
/// suspicion timeout: no view change fires, so the victim's lease stays
/// held while each cut freezes its uniform watermark — fast reads must
/// keep serving the frozen (still agreed) snapshot and resume advancing
/// after each heal.
scenario partition_lease_window(const params& p = {});
/// Full cut (suspicion revokes the victim's lease, the majority's view
/// change re-grants theirs), heal, rejoin via state transfer, then a
/// post-rejoin blip: the victim's pre-cut snapshot must never serve as
/// current. Requires membership recovery.
scenario rejoin_stale_reads(const params& p = {});

struct catalog_entry {
  const char* name;
  const char* description;
  /// Minimum system size for the scenario to be meaningful.
  unsigned min_sites;
  /// True for the scenarios the default fault_injection campaign runs.
  bool in_default_campaign;
  scenario (*make)(const params&);
  /// True when the scenario injects recover faults: the experiment must
  /// run with membership recovery enabled.
  bool needs_recovery = false;
  /// Non-zero when the scenario is defined over a partial placement: the
  /// runner must set experiment_config::placement to a k-of-N strategy of
  /// this degree (0 keeps the default full replication).
  unsigned placement_degree = 0;
};

/// Every named scenario, in campaign order.
const std::vector<catalog_entry>& catalog();

/// Looks a scenario up by name; nullptr if unknown.
const catalog_entry* find(std::string_view name);

}  // namespace dbsm::fault::scenarios

#endif  // DBSM_FAULT_SCENARIOS_HPP
