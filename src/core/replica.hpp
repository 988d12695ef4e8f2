// One DBSM replica: database server + certifier + group communication,
// implementing the distributed termination protocol (§1, §3.3).
//
// Local path: execute under local concurrency control → marshal outcome
// (read/write sets, written values, snapshot) → atomic multicast → on
// ordered delivery, certify deterministically → commit (write back,
// release, reply) or abort. Remote path: certified transactions apply
// with preemption. Read-only transactions certify locally, without
// multicast, so their latency is unaffected by replication (§5.1).
// Certification runs on the last-writer index (cert/), so the
// per-delivery work is O(|read_set| + |write_set|) regardless of the
// retained history window.
#ifndef DBSM_CORE_REPLICA_HPP
#define DBSM_CORE_REPLICA_HPP

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// Observation seam for the check layer: passive callbacks fired
/// synchronously from inside the protocol jobs, each with the observed
/// site's id. The cluster owns the one instance; every replica
/// incarnation calls it directly, and the cluster calls it for the events
/// it sees itself (views, exclusion, recovery), both through notify().
/// Callbacks must not schedule simulator work or mutate the observed
/// objects.
struct observer {
  /// Certification decision applied at `site`, inside the delivery job
  /// right after the commit log took it: the update-order position, the
  /// verdict and the commit-log length after the decision.
  std::function<void(unsigned site, const cert::txn_payload& txn,
                     std::uint64_t global_seq, bool commit,
                     std::uint64_t log_len)>
      on_decision;
  /// View installed at `site`; `delivered` is the site's delivery count
  /// at the instant of the install (the view-synchrony cut).
  std::function<void(unsigned site, const gcs::view& v,
                     std::uint64_t delivered)>
      on_view;
  /// `site` discovered that a view install excluded it (delivery halts
  /// there until it rejoins through recovery).
  std::function<void(unsigned site)> on_excluded;
  /// Committed update folded into `site`'s store, right after on_decision
  /// for every commit: the write-set slice the site makes durable under
  /// its placement and its cumulative durable bytes. The
  /// placement-consistency monitor pairs each commit decision with
  /// exactly this event.
  std::function<void(unsigned site, const cert::txn_payload& txn,
                     std::uint64_t global_seq,
                     const std::vector<db::item_id>& durable_slice,
                     std::uint64_t durable_bytes)>
      on_apply;
  /// Recovery state transfer replaced `site`'s commit log.
  std::function<void(unsigned site, const std::vector<std::uint64_t>& log)>
      on_log_reset;
  std::function<void(unsigned site)> on_recovery_start;
  /// `site` is live again in the merged view with `log_len` committed.
  std::function<void(unsigned site, std::uint64_t log_len)> on_rejoined;
  /// Read-only transaction terminated on the read path (read::mode::fast)
  /// at `site`: fast == true for a lease-guarded local snapshot read,
  /// claiming the snapshot (agreed epoch, committed log length, last
  /// committed txn id) it was served at — the read_snapshot monitor
  /// cross-checks this claim against the agreed order.
  std::function<void(unsigned site, bool fast, std::uint64_t epoch,
                     std::uint64_t log_len, std::uint64_t last_commit_id)>
      on_read;
};

/// Calls observer `hook`, when set, for `env`'s site with the site's
/// profiling clock stopped (measured mode never charges an observer).
template <class Hook, class... Args>
void notify(csrt::sim_env& env, const Hook& hook, const Args&... args) {
  if (hook) env.off_clock([&] { hook(env.self(), args...); });
}

class replica {
 public:
  struct config {
    db::server_config server;
    cert::cert_config cert;

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
  };

  /// `obs` must outlive the replica (the cluster owns it). `first_local_txn`
  /// seeds the local transaction counter: a replica rebuilt after a crash
  /// continues its predecessor's id space, so pre-crash transactions still
  /// in flight can never alias new ones.
  replica(sim::simulator& sim, csrt::cpu_pool& cpu, csrt::sim_env& env,
          gcs::group& group, const observer& obs, config cfg, util::rng gen,
          std::uint64_t first_local_txn = 0);

  replica(const replica&) = delete;
  replica& operator=(const replica&) = delete;

  /// Wires the group delivery callback; call once before the run.
  void start();

  /// Marshals the replica state for a membership-recovery transfer: the
  /// certification state (counters, retained window positions and the
  /// last-writer index entries, in the shard-count-agnostic format of
  /// cert/sharded_certifier.hpp, so donor and joiner may run different
  /// cert_config::shards), the committed sequence (u64 count, then the
  /// ids), the placement (donor and joiner must agree — a mismatch would
  /// silently mis-route every slice), and the granule directory slice
  /// `for_site` replicates, with data-sized padding. Under partial
  /// replication the blob therefore shrinks with the degree. Called by
  /// the donor between deliveries.
  util::shared_bytes snapshot(node_id for_site) const;

  /// Installs a transferred snapshot on a freshly rebuilt replica; the
  /// joiner then replays forwarded deliveries through the delivery path and
  /// converges on the donor's exact committed sequence. A blob that is
  /// truncated or carries a count larger than its bytes throws
  /// invariant_violation before anything is allocated for it.
  void install_snapshot(util::shared_bytes blob);

  /// Local transaction counter (passed to the successor on restart).
  std::uint64_t next_local_txn() const { return next_local_txn_; }

  /// Client entry point. `done` fires exactly once with the outcome
  /// (never, if this replica crashed — its clients block, §5.3).
  void submit(db::txn_request req,
              std::function<void(db::txn_outcome)> done);

  /// Crash: stop interacting (the cluster also isolates the transport).
  void halt() { halted_ = true; }

  db::server& server() { return server_; }
  const db::server& server() const { return server_; }
  const cert::sharded_certifier& certifier() const { return cert_; }

  /// Sequence of committed update transactions (identical at all
  /// operational sites — the off-line safety check input, §5.3).
  const std::vector<std::uint64_t>& commit_log() const { return commit_log_; }
  /// Moves the commit log out, leaving this replica's empty: for the end
  /// of a run, once nothing reads it in place.
  std::vector<std::uint64_t> take_commit_log() {
    return std::move(commit_log_);
  }

  /// Certification latency at the origin site: multicast → decision
  /// applied (Fig 7b).
  const util::sample_set& cert_latency_ms() const { return cert_latency_; }

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
  /// Lease check for a fast read, with the lazy suspension re-arm: a
  /// suspicion-suspended lease recovers once the uniform watermark has
  /// advanced past its value at suspension time (a completed stability
  /// round proves full-membership connectivity).
  bool lease_usable();
  /// Whether this site replicates every granule the read set touches
  /// (always true under full placement, where stores() always is).
  bool stores_read_set(const std::vector<db::item_id>& read_set) const;
  /// (owned non-granule tuples, total non-granule tuples) of a write set
  /// under this site's placement — the pro-rating basis for partial
  /// durability.
  std::pair<std::size_t, std::size_t> owned_tuple_split(
      const std::vector<db::item_id>& write_set) const;

  struct pending_txn {
    std::uint64_t begin_pos = 0;
    sim_time multicast_at = 0;
  };

  /// The smallest begin_pos among the pending local transactions: the
  /// oldest live counter's (counters and snapshots rise together). Call
  /// only while a transaction is pending.
  std::uint64_t low_water() const;

  sim::simulator& sim_;
  csrt::cpu_pool& cpu_;
  csrt::sim_env& env_;
  gcs::group& group_;
  const observer& obs_;
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
  /// Oldest local counter still in pending_ (next_local_txn_ + 1 when
  /// none is).
  std::uint64_t oldest_live_ = 1;
  std::vector<std::uint64_t> commit_log_;
  util::sample_set cert_latency_;
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
