// Experiment harness: one call runs a complete scenario — replicated (or
// centralized) database, closed-loop clients driving any core::workload,
// optional fault scenario — and returns every metric the paper's
// evaluation section reports.
#ifndef DBSM_CORE_EXPERIMENT_HPP
#define DBSM_CORE_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/cluster.hpp"
#include "core/safety.hpp"
#include "core/txn_stats.hpp"
#include "fault/scenarios.hpp"
#include "place/placement.hpp"
#include "tpcc/profile.hpp"
#include "workload/workload.hpp"

namespace dbsm::core {

struct experiment_config {
  unsigned sites = 3;
  unsigned cpus_per_site = 1;
  unsigned clients = 500;

  /// Stop after this many client responses (the paper runs 10 000
  /// transactions per configuration, §5.1); 0 means run to max_sim_time.
  std::uint64_t target_responses = 10000;
  sim_duration max_sim_time = seconds(3600);
  std::uint64_t seed = 42;

  /// The traffic generator. Null (the default) means the paper's TPC-C
  /// workload built from `profile` — existing configs keep working
  /// unchanged. Set to tpcc::factory(...), kv::factory(...), or any
  /// user-defined core::workload factory to run something else.
  workload_factory workload;

  /// TPC-C profile used by the default (null) workload factory; ignored
  /// when `workload` is set.
  tpcc::workload_profile profile = tpcc::workload_profile::pentium3_1ghz();

  /// Per-replica engine + certification tuning. Certification sharding
  /// (replica_cfg.cert.{shards, certify_threads}) is decision-invariant
  /// at any setting — it changes the modeled (and real) certification
  /// cost only; the figure benches expose the knobs as
  /// --cert-shards / --certify-threads.
  replica::config replica_cfg;
  gcs::group_config gcs;
  csrt::net_cost_model costs;
  net::lan_config lan;
  bool use_wan = false;
  net::wan_config wan;
  bool measure_real_time = false;

  /// The fault schedule, installed against the cluster's injection points
  /// (network medium, per-site env bridges, crash and recover hooks).
  /// Build one by composing fault_types, or pick a named one from
  /// fault::scenarios:: (the paper's five campaigns included).
  fault::scenario faults;

  /// Membership recovery (off by default — the paper's campaigns are
  /// crash-stop and stay bit-identical). When on, `fault::recover_fault`
  /// events bring crashed or partition-excluded sites back through the
  /// gcs rejoin protocol (state transfer + view merge), and the site's
  /// clients resume once it is live; post-rejoin commits count in the
  /// stats like any other.
  bool enable_recovery = false;

  /// §5.3 mitigation: run the fixed sequencer on a dedicated extra site
  /// that serves no clients (the protocol still elects the lowest id, so
  /// the extra site, added as id 0 ... first, becomes sequencer).
  bool dedicated_sequencer = false;

  /// §6 / [24], partial replication: the placement strategy resolved
  /// against the actual site count at cluster-build time (a spec, not a
  /// bound placement, because dedicated_sequencer may add a site). The
  /// default is full replication — bit-identical to pre-placement runs.
  place::spec placement;

  /// Online invariant monitors (check/): on by default — they observe the
  /// protocol passively, so results are bit-identical either way; a
  /// violation stops the run at the offending event and lands in
  /// experiment_result::checks.
  check::config checks;
};

/// Per-site accounting (fault campaigns need to tell "clients aborted"
/// from "the site was gone" — the aggregate stats hide it).
struct site_report {
  cluster::site_status state = cluster::site_status::operational;
  /// Certified commits in this site's log (transferred prefix included
  /// for a rejoined site).
  std::uint64_t committed_log = 0;
  /// Terminal outcomes reported by this site's clients.
  std::uint64_t client_commits = 0;
  std::uint64_t client_responses = 0;

  // Partial-replication accounting (meaningful for full placements too;
  // there disk/net figures simply coincide across sites).
  /// Busy fraction of this site's storage element.
  double disk_utilization = 0.0;
  /// Disk bytes written applying committed updates at this site
  /// (placement-pro-rated when partial).
  std::uint64_t applied_update_bytes = 0;
  /// Modeled bytes of tuple data durably held at this site.
  std::uint64_t store_bytes = 0;
  /// Granules this site replicates / granules the directory tracks.
  std::uint64_t owned_granules = 0;
  std::uint64_t tracked_granules = 0;
  /// Total-order payload bytes delivered vs what a placement-aware
  /// multicast would have shipped here.
  std::uint64_t delivered_payload_bytes = 0;
  std::uint64_t interested_payload_bytes = 0;
  /// Recovery donor accounting: snapshot blob bytes this site donated and
  /// join_chunk payload bytes it sent (placement-filtered when partial).
  std::uint64_t join_snapshot_bytes = 0;
  std::uint64_t join_chunk_bytes = 0;

  // Read-path accounting (read/): zeros unless replica_cfg.read.path is
  // certified or fast.
  /// Read-only transactions served locally off the uniform snapshot.
  std::uint64_t fast_path_reads = 0;
  /// Read-only transactions that fell back to the certified (broadcast)
  /// path — stale lease or a read set this site does not replicate.
  std::uint64_t fallback_reads = 0;
  /// Read-only payloads this site pushed through the total order.
  std::uint64_t ro_broadcasts = 0;
  /// Lease revocations observed (view change, suspicion, exclusion).
  std::uint64_t lease_revocations = 0;

  // Delivery-run accounting.
  /// Contiguous delivery runs handed to the pipelined commit path;
  /// run_payloads / delivery_runs is the mean run length the run
  /// amortization actually saw.
  std::uint64_t delivery_runs = 0;
  std::uint64_t run_payloads = 0;
  /// Peak certified-but-not-installed backlog in the hand-off queue.
  std::uint64_t pipeline_high_water = 0;

  /// Busy fraction of this site's CPU spent in real protocol code. The
  /// sequencer site's figure stands out: it mints and multicasts every
  /// assignment record (the §5.3 bottleneck).
  double protocol_cpu = 0.0;
};

struct experiment_result {
  /// Per-class metrics, sized by the workload's class count.
  txn_stats stats;
  /// The workload's identifier and per-class metadata, in class-id
  /// order — result consumers print tables and split update vs
  /// read-only classes without naming a workload type.
  std::string workload_name;
  std::vector<std::string> class_names;
  std::vector<bool> class_is_update;

  sim_duration duration = 0;  // simulated time when the run stopped
  std::uint64_t responses = 0;

  // Resource usage (mean over operational sites; Fig 6).
  double cpu_utilization = 0.0;
  double protocol_cpu_utilization = 0.0;  // real (protocol) jobs only
  double disk_utilization = 0.0;
  double network_kbps = 0.0;  // aggregate wire KB/s

  // Certification latency at origin sites (Fig 7b).
  util::sample_set cert_latency_ms;

  // Safety (§5.3): committed sequences of operational sites (a rejoined
  // site contributes its full pre-cut + post-rejoin sequence).
  std::vector<std::vector<std::uint64_t>> commit_logs;
  safety_report safety;

  /// Online monitor outcome (empty/ok when checks were disabled).
  check::report checks;

  // Per-site life cycle + counts, indexed by site (all sites, crashed
  // included).
  std::vector<site_report> sites;
  std::uint64_t rejoined_sites() const {
    std::uint64_t n = 0;
    for (const site_report& s : sites)
      if (s.state == cluster::site_status::rejoined) ++n;
    return n;
  }

  // GCS probes (§5.3 analysis).
  std::uint64_t naks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t blocked_episodes = 0;
  double blocked_ms = 0.0;
  std::uint64_t view_changes = 0;

  double tpm() const { return stats.tpm(duration); }
};

experiment_result run_experiment(const experiment_config& cfg);

}  // namespace dbsm::core

#endif  // DBSM_CORE_EXPERIMENT_HPP
