// One DBSM replica: database server + certifier + group communication,
// implementing the distributed termination protocol (§1, §3.3).
//
// Local path: execute under local concurrency control → marshal outcome
// (read/write sets, written values, snapshot) → atomic multicast → on
// ordered delivery, certify deterministically → commit (write back,
// release, reply) or abort. Remote path: certified transactions apply
// with preemption. Read-only transactions certify locally, without
// multicast, so their latency is unaffected by replication (§5.1).
// Certification runs on the sharded last-writer index (cert/), so the
// per-delivery work is O(|read_set| + |write_set|) regardless of the
// retained history window, and with cert_config::{shards,
// certify_threads} > 1 the probes fork across a persistent worker pool
// (decisions stay bit-identical at any shard/thread count; the default
// 1/1 runs inline).
#ifndef DBSM_CORE_REPLICA_HPP
#define DBSM_CORE_REPLICA_HPP

#include <unordered_map>
#include <utility>

#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "core/pipeline.hpp"
#include "csrt/sim_env.hpp"
#include "db/server.hpp"
#include "gcs/group.hpp"
#include "place/granule_store.hpp"
#include "place/placement.hpp"
#include "read/lease.hpp"
#include "read/snapshot_manager.hpp"
#include "util/stats.hpp"

namespace dbsm::core {

class replica {
 public:
  struct config {
    db::server_config server;
    cert::cert_config cert;
    /// Modeled CPU of marshaling/unmarshaling termination messages.
    sim_duration codec_cost_fixed = microseconds(15);
    double codec_cost_per_byte_ns = 2.0;

    /// Partial replication (§6 / [24], the paper's proposed mitigation of
    /// the read-one/write-all disk ceiling): each granule lives at an
    /// explicit replica set, write sets are split per the placement, and a
    /// site stores/applies/makes durable only its slice. Certification
    /// stays global (the total order is still delivered everywhere and
    /// every site logs the same committed sequence); partiality is a
    /// property of storage and application, not of the decision. The
    /// default (full) placement keeps every path bit-identical to full
    /// replication.
    place::placement placement;

    /// Read-only termination path (read/): off (historical local
    /// certification), certified (RO txns broadcast through total order —
    /// the all-certified baseline), or fast (lease-guarded snapshot reads
    /// at the gcs uniform watermark, zero broadcasts). Default off keeps
    /// every path bit-identical to the historical behavior.
    read::read_config read;

    /// Bound (in transactions) of the certify→install hand-off queue of
    /// the delivery path: when full, the install stage drains
    /// synchronously before more certifications queue behind it —
    /// deterministic back-pressure, never dropped or reordered work.
    std::size_t pipeline_depth = 512;
  };

  /// `first_local_txn` seeds the local transaction counter: a replica
  /// rebuilt after a crash continues its predecessor's id space, so
  /// pre-crash transactions still in flight can never alias new ones.
  replica(sim::simulator& sim, csrt::cpu_pool& cpu, csrt::sim_env& env,
          gcs::group& group, config cfg, util::rng gen,
          std::uint64_t first_local_txn = 0);

  replica(const replica&) = delete;
  replica& operator=(const replica&) = delete;

  /// Wires the group delivery callback; call once before the run.
  void start();

  /// Marshals the replica state for a membership-recovery transfer: the
  /// certification state (position, history, index — in the canonical
  /// shard-count-agnostic format of cert/index_shard.hpp, so donor and
  /// joiner may run different cert_config::shards), the committed
  /// sequence, the placement (donor and joiner must agree — a mismatch
  /// would silently mis-route every slice), and the granule directory
  /// slice `for_site` replicates, with data-sized padding. Under partial
  /// replication the blob therefore shrinks with the degree. Called by
  /// the donor between deliveries.
  util::shared_bytes snapshot(node_id for_site) const;

  /// Installs a transferred snapshot on a freshly rebuilt replica; the
  /// joiner then replays forwarded deliveries through the delivery path and
  /// converges on the donor's exact committed sequence.
  void install_snapshot(util::shared_bytes blob);

  /// Local transaction counter (passed to the successor on restart).
  std::uint64_t next_local_txn() const { return next_local_txn_; }

  /// Client entry point. `done` fires exactly once with the outcome
  /// (never, if this replica crashed — its clients block, §5.3).
  void submit(db::txn_request req,
              std::function<void(db::txn_outcome)> done);

  /// Crash: stop interacting (the cluster also isolates the transport).
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  db::server& server() { return server_; }
  const db::server& server() const { return server_; }
  const cert::sharded_certifier& certifier() const { return cert_; }

  /// Sequence of committed update transactions (identical at all
  /// operational sites — the off-line safety check input, §5.3).
  const std::vector<std::uint64_t>& commit_log() const { return commit_log_; }

  /// Certification latency at the origin site: multicast → decision
  /// applied (Fig 7b).
  const util::sample_set& cert_latency_ms() const { return cert_latency_; }

  /// Observation seam for the check layer: fired synchronously inside the
  /// delivery job after each certification decision is applied to the
  /// commit log, with (payload, update-order position, verdict, commit-log
  /// length). Observers must be passive — no simulator work, no mutation.
  using decision_observer =
      std::function<void(const cert::txn_payload&, std::uint64_t global_seq,
                         bool commit, std::uint64_t log_len)>;
  void set_decision_observer(decision_observer fn) {
    on_decision_ = std::move(fn);
  }

  /// Fired when install_snapshot replaces the commit log wholesale
  /// (recovery state transfer), with the transferred log.
  using log_reset_observer =
      std::function<void(const std::vector<std::uint64_t>&)>;
  void set_log_reset_observer(log_reset_observer fn) {
    on_log_reset_ = std::move(fn);
  }

  /// Fired synchronously inside the delivery job, right after the decision
  /// observer, for every COMMITTED update: (payload, update-order
  /// position, the write-set slice this site makes durable under its
  /// placement, cumulative durable bytes). The placement-consistency
  /// monitor pairs each commit decision with exactly this event. Observers
  /// must be passive.
  using apply_observer = std::function<void(
      const cert::txn_payload&, std::uint64_t global_seq,
      const std::vector<db::item_id>& durable_slice,
      std::uint64_t durable_bytes)>;
  void set_apply_observer(apply_observer fn) { on_apply_ = std::move(fn); }

  /// Fired for every read-only transaction terminated on the read path
  /// (read::mode::fast): fast == true for lease-guarded local snapshot
  /// reads, with the snapshot's (agreed epoch, committed log length, last
  /// committed txn id) — the read_snapshot monitor cross-checks this claim
  /// against the reference committed prefix. Observers must be passive.
  using read_observer = std::function<void(
      bool fast, std::uint64_t epoch, std::uint64_t log_len,
      std::uint64_t last_commit_id)>;
  void set_read_observer(read_observer fn) { on_read_ = std::move(fn); }

  /// Lease protocol entry points (wired by the cluster): a grant at every
  /// view install (and at cluster start), revocations on suspicion and
  /// exclusion. No-ops unless the fast read path is configured.
  void grant_lease(std::uint32_t view_id);
  void revoke_lease(read::revoke_reason r);

  // --- read-path probes ---
  std::uint64_t fast_path_reads() const { return fast_path_reads_; }
  std::uint64_t fallback_reads() const { return fallback_reads_; }
  std::uint64_t ro_broadcasts() const { return ro_broadcasts_; }
  std::uint64_t lease_revocations() const { return lease_.revocations(); }

  // --- delivery-run probes ---
  /// Contiguous delivery runs handed to the pipelined path.
  std::uint64_t delivery_runs() const { return delivery_runs_; }
  /// Payloads delivered inside those runs (run_payloads / delivery_runs
  /// == the mean run length the amortization actually saw).
  std::uint64_t run_payloads() const { return run_payloads_; }
  /// Peak certified-but-not-installed backlog in the hand-off queue.
  std::uint64_t pipeline_high_water() const {
    return pipeline_.high_water();
  }

  /// Placement bookkeeping: granule directory + durable accounting.
  const place::granule_store& store() const { return store_; }
  /// Total ordered user payload bytes delivered at this site.
  std::uint64_t delivered_payload_bytes() const {
    return delivered_payload_bytes_;
  }
  /// Payload bytes a placement-aware multicast would have had to ship
  /// here (== delivered when full; falls with the degree when partial).
  std::uint64_t interested_payload_bytes() const {
    return interested_payload_bytes_;
  }
  /// Disk bytes this site wrote applying committed updates (origin
  /// write-back + remote apply), placement-pro-rated when partial.
  std::uint64_t applied_update_bytes() const {
    return applied_update_bytes_;
  }

  node_id id() const { return env_.self(); }

 private:
  void on_executed(const db::txn_request& req);
  /// Run delivery: stage 1 certifies the whole run back-to-back with
  /// amortized fixed costs, stage 2 drains the installs from a deferred
  /// job through pipeline_.
  void on_deliver_batch(std::vector<gcs::delivery>&& run);
  /// Install stage of one certified update (drained from pipeline_):
  /// origin finish/abort with disk accounting, or remote apply with the
  /// placement slice.
  void install_decision(const cert::txn_payload& txn, bool commit);
  /// Completion of a certified read-only broadcast at its origin.
  void finish_certified_read(std::uint64_t id, bool ok);
  void drain_installs();
  sim_duration codec_cost(std::size_t bytes) const;
  /// Per-byte share of codec_cost (delivery charges the fixed share once
  /// per run).
  sim_duration codec_cost_bytes(std::size_t bytes) const;
  /// Lease check for a fast read, with the lazy suspension re-arm: a
  /// suspicion-suspended lease recovers once the uniform watermark has
  /// advanced past its value at suspension time (a completed stability
  /// round proves full-membership connectivity).
  bool lease_usable();
  /// Whether this site replicates every granule the read set touches
  /// (always true under full placement).
  bool stores_read_set(const std::vector<db::item_id>& read_set) const;
  /// (owned non-granule tuples, total non-granule tuples) of a write set
  /// under this site's placement — the pro-rating basis for partial
  /// durability.
  std::pair<std::size_t, std::size_t> owned_tuple_split(
      const std::vector<db::item_id>& write_set) const;

  struct pending_txn {
    std::uint64_t begin_pos = 0;
    sim_time multicast_at = 0;
    bool in_termination = false;
  };

  sim::simulator& sim_;
  csrt::cpu_pool& cpu_;
  csrt::sim_env& env_;
  gcs::group& group_;
  config cfg_;
  db::server server_;
  cert::sharded_certifier cert_;
  util::rng rng_;

  std::uint64_t next_local_txn_ = 0;
  /// Counters at or below this belong to a previous incarnation of this
  /// site: their late deliveries apply like remote transactions instead
  /// of asserting against the (rebuilt, empty) pending table.
  std::uint64_t incarnation_floor_ = 0;
  std::unordered_map<std::uint64_t, pending_txn> pending_;
  std::vector<std::uint64_t> commit_log_;
  util::sample_set cert_latency_;
  decision_observer on_decision_;
  log_reset_observer on_log_reset_;
  apply_observer on_apply_;
  read_observer on_read_;
  read::lease lease_;
  read::snapshot_manager snapshots_;
  std::uint64_t suspend_watermark_ = 0;
  std::uint64_t fast_path_reads_ = 0;
  std::uint64_t fallback_reads_ = 0;
  std::uint64_t ro_broadcasts_ = 0;
  place::granule_store store_;
  /// Certify→install hand-off of the delivery path.
  commit_pipeline pipeline_;
  /// Reused per-delivery buffer for placement slices.
  std::vector<db::item_id> slice_scratch_;
  std::uint64_t delivery_runs_ = 0;
  std::uint64_t run_payloads_ = 0;
  std::uint64_t delivered_payload_bytes_ = 0;
  std::uint64_t interested_payload_bytes_ = 0;
  std::uint64_t applied_update_bytes_ = 0;
  bool halted_ = false;
};

}  // namespace dbsm::core

#endif  // DBSM_CORE_REPLICA_HPP
