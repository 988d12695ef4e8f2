#include "fault/scenarios.hpp"

#include <cstring>

#include "fault/fault_types.hpp"
#include "util/check.hpp"

namespace dbsm::fault::scenarios {

scenario no_faults(const params&) { return scenario("no_faults"); }

scenario clock_drift(const params&) {
  // Odd sites only, so clocks drift relative to each other (§5.3).
  scenario s("clock_drift");
  s.add(clock_drift_fault(0.10, site_selector::odd()));
  return s;
}

scenario sched_latency(const params&) {
  scenario s("sched_latency");
  s.add(sched_latency_fault(milliseconds(5), site_selector::all()));
  return s;
}

scenario random_loss(const params&) {
  scenario s("random_loss");
  s.add(loss_fault::random(0.05));
  return s;
}

scenario bursty_loss(const params&) {
  scenario s("bursty_loss");
  s.add(loss_fault::bursty(0.05, 5));
  return s;
}

scenario crash(const params& p) {
  DBSM_CHECK(p.sites >= 2);
  scenario s("crash");
  s.add(crash_fault(site_set{p.sites - 1}), p.onset);
  return s;
}

scenario partition_minority(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  scenario s("partition_minority");
  s.add(partition_fault::two_way(site_set{p.sites - 1}), p.onset,
        p.onset + 4 * p.exclusion_timeout);
  return s;
}

scenario flaky_switch(const params& p) {
  scenario s("flaky_switch");
  for (int k = 0; k < 6; ++k) {
    const sim_time start = p.onset + k * seconds(4);
    s.add(loss_fault::random(0.25), start, start + seconds(1));
  }
  return s;
}

scenario slow_replica(const params& p) {
  DBSM_CHECK(p.sites >= 2);
  scenario s("slow_replica");
  s.add(sched_latency_fault(milliseconds(20), site_set{p.sites - 1}));
  return s;
}

scenario cascading_crashes(const params& p) {
  DBSM_CHECK_MSG(p.sites >= 5,
                 "cascading_crashes kills two sites; a majority must "
                 "survive both");
  scenario s("cascading_crashes");
  s.add(crash_fault(site_set{p.sites - 1}), p.onset);
  s.add(crash_fault(site_set{p.sites - 2}), p.onset + seconds(15));
  return s;
}

scenario partition_cut_heal_rejoin(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  const unsigned victim = p.sites - 1;
  scenario s("partition_cut_heal_rejoin");
  const sim_time heal = p.onset + 4 * p.exclusion_timeout;
  s.add(partition_fault::two_way(site_set{victim}), p.onset, heal);
  // Recover once the heal has settled: restart, state transfer, rejoin.
  s.add(recover_fault(site_set{victim}), heal + seconds(1));
  return s;
}

scenario crash_restart(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  const unsigned victim = p.sites - 1;
  scenario s("crash_restart");
  s.add(crash_fault(site_set{victim}), p.onset);
  s.add(recover_fault(site_set{victim}), p.onset + seconds(10));
  return s;
}

scenario rolling_restarts(const params& p) {
  DBSM_CHECK_MSG(p.sites >= 3, "rolling restarts need a surviving majority");
  scenario s("rolling_restarts");
  for (unsigned k = 0; k < p.sites; ++k) {
    const sim_time down = p.onset + k * seconds(20);
    s.add(crash_fault(site_set{k}), down);
    s.add(recover_fault(site_set{k}), down + seconds(8));
  }
  return s;
}

scenario partial_k2_crash_rejoin(const params& p) {
  DBSM_CHECK_MSG(p.sites >= 4, "k=2 partial placement needs a strict "
                               "subset and a surviving majority");
  const unsigned victim = p.sites - 1;
  scenario s("partial_k2_crash_rejoin");
  s.add(crash_fault(site_set{victim}), p.onset);
  s.add(recover_fault(site_set{victim}), p.onset + seconds(10));
  return s;
}

scenario batch_boundary_crash(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  scenario s("batch_boundary_crash");
  // Crash mid-batch, between sequence and stability: from onset the
  // sequencer's (site 0's) outbound datagrams are delayed far past its
  // crash point, so batch assignment records it mints in the window are
  // sequenced locally but still in flight — covered by no stability
  // round — when it dies. The survivors' view-change flush must cut
  // through the half-propagated batches deterministically: each record
  // (with the payloads it orders) lands within the cut at every survivor
  // or is dropped at every survivor, never split. At batch_max = 1 it
  // cuts through runs of one-key records instead.
  const sim_duration window = p.exclusion_timeout / 2;
  s.add(link_delay_fault::one_way(4 * p.exclusion_timeout, site_set{0}),
        p.onset, p.onset + window);
  s.add(crash_fault(site_set{0}), p.onset + window / 2);
  return s;
}

scenario partition_lease_window(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  const unsigned victim = p.sites - 1;
  scenario s("partition_lease_window");
  // Three short blips, each under the suspicion timeout: no failure
  // detector fires and no view changes, so the victim's lease stays held
  // while each cut freezes its uniform watermark mid-stream — fast reads
  // keep serving the frozen (still agreed) snapshot and must resume
  // advancing after each heal. The race is lease validity vs watermark
  // staleness, checked read-by-read by the read_snapshot monitor.
  for (int k = 0; k < 3; ++k) {
    const sim_time start = p.onset + k * (4 * p.exclusion_timeout);
    s.add(partition_fault::two_way(site_set{victim}), start,
          start + p.exclusion_timeout / 2);
  }
  return s;
}

scenario rejoin_stale_reads(const params& p) {
  DBSM_CHECK(p.sites >= 3);
  const unsigned victim = p.sites - 1;
  scenario s("rejoin_stale_reads");
  // The partition_cut_heal_rejoin shape with a post-rejoin blip: the
  // victim rides out a full cut (snapshot frozen at its last uniform
  // watermark while the majority commits on), rejoins through state
  // transfer, then is briefly cut again — the read path must fall back
  // during both windows and never serve the stale pre-rejoin snapshot as
  // current.
  const sim_time heal = p.onset + 4 * p.exclusion_timeout;
  s.add(partition_fault::two_way(site_set{victim}), p.onset, heal);
  s.add(recover_fault(site_set{victim}), heal + seconds(1));
  const sim_time blip = heal + seconds(8);
  s.add(partition_fault::two_way(site_set{victim}), blip,
        blip + p.exclusion_timeout / 2);
  return s;
}

const std::vector<catalog_entry>& catalog() {
  static const std::vector<catalog_entry> entries = {
      {"no_faults", "fault-free baseline", 1, true, &no_faults},
      {"clock_drift", "10% drift on odd sites", 2, true, &clock_drift},
      {"sched_latency", "<=5ms timer delay, all sites", 1, true,
       &sched_latency},
      {"random_loss", "5% per-message loss", 2, true, &random_loss},
      {"bursty_loss", "5% loss in bursts (len 5)", 2, true, &bursty_loss},
      {"crash", "last site crashes at onset", 3, true, &crash},
      {"partition_minority", "cut last site, heal after exclusion", 3, true,
       &partition_minority},
      {"flaky_switch", "repeating 1s bursts of 25% loss", 2, false,
       &flaky_switch},
      {"slow_replica", "sustained 20ms sched latency on one site", 2, true,
       &slow_replica},
      {"cascading_crashes", "two crashes 15s apart", 5, false,
       &cascading_crashes},
      {"partition_cut_heal_rejoin",
       "cut last site, heal, rejoin via state transfer", 3, false,
       &partition_cut_heal_rejoin},
      {"crash_restart", "crash last site, restart + rejoin 10s later", 3,
       false, &crash_restart},
      {"rolling_restarts", "restart every site in turn (rolling upgrade)",
       3, false, &rolling_restarts},
      {"partial_k2_crash_rejoin",
       "k=2 placement: crash last site, placement-filtered rejoin", 4,
       false, &partial_k2_crash_rejoin, 2},
      {"batch_boundary_crash",
       "delay sequencer egress, crash it mid-batch before stability", 3,
       false, &batch_boundary_crash},
      {"partition_lease_window",
       "sub-exclusion partition blips during the read-lease window", 3,
       false, &partition_lease_window},
      {"rejoin_stale_reads",
       "cut/heal/rejoin, then a blip: stale snapshot must not serve", 3,
       false, &rejoin_stale_reads},
  };
  return entries;
}

const catalog_entry* find(std::string_view name) {
  for (const catalog_entry& e : catalog())
    if (name == e.name) return &e;
  return nullptr;
}

}  // namespace dbsm::fault::scenarios
