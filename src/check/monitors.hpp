// The standard invariant monitors (see check/check.hpp for the contract).
#ifndef DBSM_CHECK_MONITORS_HPP
#define DBSM_CHECK_MONITORS_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "check/check.hpp"
#include "place/placement.hpp"

namespace dbsm::check {

/// (1) Agreed prefix: the committed sequence is a single global order and
/// every site's commit log is a prefix of it. The first site to commit at
/// log position i defines the agreed transaction for i; every later commit
/// at i (any site) must carry the same transaction id, and commits must
/// extend a site's log by exactly one (no gaps). Recovery state transfers
/// (log resets) are checked element-wise against the agreed order too.
///
/// Delivery is non-uniform, so a site the latest view excluded may hold
/// commits past that view's cut which the surviving majority never saw
/// (e.g. a partitioned-off sequencer self-delivering). Those positions are
/// not agreed: when the excluding view installs, entries past its cut
/// committed only by now-excluded sites are rolled back (the survivors
/// redefine them), and further commits by an excluded site past the cut
/// are left to the primary_partition fence and to the rejoin state
/// transfer, which replaces the orphan branch and is checked here.
class agreed_prefix_monitor final : public monitor {
 public:
  struct entry {
    std::uint64_t txn_id = 0;
    std::uint64_t committers = 0;  // bitmask of sites that committed it
  };

  std::string_view name() const override { return "agreed_prefix"; }
  void on_decision(const decision_event& e, sink& s) override;
  void on_view(const view_event& e, sink& s) override;
  void on_log_reset(const log_reset_event& e, sink& s) override;

  /// The agreed order: agreed()[i] is the transaction at commit-log
  /// position i. Monitors registered after this one read it.
  const std::vector<entry>& agreed() const { return agreed_; }

 private:
  bool is_member(unsigned site) const;
  std::uint64_t member_mask() const;
  std::vector<entry> agreed_;    // agreed_[i] = txn at commit-log pos i
  std::vector<node_id> members_; // latest primary view (empty: all sites)
  std::uint32_t top_id_ = 1;     // highest view id installed anywhere
  std::uint64_t commit_cut_ = 0; // commit-log length at that view's cut
  std::map<unsigned, std::uint64_t> log_len_;  // site -> last log length
};

/// (2) View synchrony: all sites that install view v agree on v's
/// membership and install it at the same delivery cut (the stack delivers
/// the agreed backlog before installing, so the delivered count at install
/// is the cut). Per site, installed view ids are strictly increasing.
class view_synchrony_monitor final : public monitor {
 public:
  explicit view_synchrony_monitor(unsigned sites) : sites_(sites) {}
  std::string_view name() const override { return "view_synchrony"; }
  void on_view(const view_event& e, sink& s) override;

 private:
  struct install {
    std::vector<node_id> members;
    std::uint64_t delivered = 0;
    unsigned first_site = 0;
  };
  unsigned sites_;
  std::map<std::uint32_t, install> views_;   // view id -> first install seen
  std::map<unsigned, std::uint32_t> last_;   // site -> last installed id
};

/// (3) Primary partition: at most one partition makes progress. Two
/// checks: (a) the view chain rule — a new view must retain a strict
/// majority of the members of the installing site's previous view, so a
/// minority partition can never legitimately install a view of its own;
/// (b) the exclusion fence — once a site discovers that a view excluded
/// it, it must not commit anything further (before the discovery it may
/// legitimately still be riding the group's in-flight stream on a slow
/// link: in an asynchronous system a node cannot act on an install it has
/// not yet received).
class primary_partition_monitor final : public monitor {
 public:
  explicit primary_partition_monitor(unsigned sites);
  std::string_view name() const override { return "primary_partition"; }
  void on_view(const view_event& e, sink& s) override;
  void on_excluded(const excluded_event& e, sink& s) override;
  void on_decision(const decision_event& e, sink& s) override;
  void on_recovery_start(const recovery_start_event& e, sink& s) override;

 private:
  struct site_view {
    std::uint32_t id = 1;
    std::vector<node_id> members;
  };
  std::vector<site_view> cur_;  // per-site currently installed view
  std::uint32_t top_id_ = 1;    // highest-id view installed anywhere
  std::map<unsigned, sim_time> excluded_;  // site -> discovery time
};

/// (4) 1SR certification oracle: every site's commit/abort decision is
/// cross-checked against cert::reference_certifier (the paper's scan
/// procedure). The first site to deliver total-order position n feeds the
/// oracle the event's read and write sets; all sites' decisions at n —
/// including recovery replays — must match the oracle's verdict and
/// transaction identity. Per position the monitor keeps only the
/// transaction id, the sites seen deciding it and the verdict.
///
/// Mirrors the agreed-prefix branch rule: positions past an excluding
/// view's cut decided only by the excluded sites are rolled back when the
/// view installs (the oracle forgets them, evicted write sets restored, so
/// the discarded branch stops polluting its history), and an excluded
/// site's further decisions past the cut are ignored here.
///
/// The prefix every member of the latest primary view has decided is
/// settled in the oracle: the next view keeps one of those members (the
/// chain rule monitor 3 checks), so no rollback reaches it, and the
/// oracle stores only the window before it plus the unsettled tail. A
/// view that would still roll back into the settled prefix — possible
/// only once the chain rule is broken — is a violation.
///
/// The settled low water: each payload carries its origin's low water,
/// below which no later payload of that origin has its snapshot
/// (cert::txn_payload::low_water). The monitor keeps one per site of the
/// initial view, folded in position order from settled positions only,
/// so an orphan branch's low waters never enter it and a rollback never
/// has to undo it. The bound is their minimum; the oracle forgets every
/// write set at or below it (cert::reference_certifier::forget_through),
/// so in a crash-free run it stores about the write sets above the
/// oldest in-flight snapshot. Only update payloads reach the oracle, so
/// its bound never passes the replicas' (low_water_bound()). The
/// monitor checks the promise it relies on instead of trusting it: a
/// snapshot below the bound at the first decider is a violation and is
/// not certified, and so is an origin whose settled low water falls.
/// Every verdict is exact or a violation is raised instead. A site that
/// never broadcasts (a dedicated sequencer) or a crashed one holds the
/// bound at its last settled low water.
class cert_oracle_monitor final : public monitor {
 public:
  /// `sites` sizes the low-water table: ids 0 .. sites − 1.
  cert_oracle_monitor(unsigned sites, const cert::cert_config& cfg);
  std::string_view name() const override { return "cert_oracle"; }
  void on_decision(const decision_event& e, sink& s) override;
  void on_view(const view_event& e, sink& s) override;

  /// Write sets the oracle stores (cert::reference_certifier::stored_size).
  std::size_t oracle_stored_size() const { return ref_.stored_size(); }

 private:
  /// The oracle at one position.
  struct verdict {
    std::uint64_t txn_id = 0;
    std::uint64_t deciders = 0;  // bitmask of sites seen deciding it
    bool commit = false;
    std::uint32_t low_water = 0;  // the payload's, folded once settled
  };
  static_assert(sizeof(verdict) == 24);

  std::uint64_t member_mask() const;
  /// Settles the positions every member of the latest view has decided,
  /// folds their low waters and forgets through the bound. A falling low
  /// water is raised at `site` and `at`, the event that settled it.
  void settle(unsigned site, sim_time at, sink& s);

  cert::reference_certifier ref_;
  std::vector<verdict> verdicts_;  // verdicts_[n - 1] = oracle at position n
  std::vector<std::uint64_t> low_water_;  // per site of the initial view
  std::uint64_t bound_ = 0;               // min of low_water_
  std::uint64_t all_sites_;        // the initial view's member mask
  std::vector<node_id> members_;   // latest primary view (empty: all sites)
  std::uint32_t top_id_ = 1;
  std::uint64_t cut_ = 0;  // delivered count at that view's cut
};

/// (5) Recovery convergence: a recovery, once started, produces a rejoin
/// within the configured deadline, and at the instant the rejoined site is
/// live its commit log trails the longest log observed anywhere by at most
/// rejoin_max_lag transactions (the donor's exact state up to a bounded
/// in-flight window; exactness of the content is monitor 1's job).
class recovery_convergence_monitor final : public monitor {
 public:
  explicit recovery_convergence_monitor(const config& cfg)
      : max_lag_(cfg.rejoin_max_lag), deadline_(cfg.rejoin_deadline) {}
  std::string_view name() const override { return "recovery_convergence"; }
  void on_decision(const decision_event& e, sink& s) override;
  void on_log_reset(const log_reset_event& e, sink& s) override;
  void on_recovery_start(const recovery_start_event& e, sink& s) override;
  void on_rejoin(const rejoin_event& e, sink& s) override;
  void on_run_end(sim_time now, sink& s) override;

 private:
  std::uint64_t max_lag_;
  sim_duration deadline_;
  std::uint64_t max_log_ = 0;           // longest commit log seen anywhere
  std::map<unsigned, sim_time> pending_;  // site -> recovery start time
};

/// (6) Placement consistency (partial replication): every committed update
/// is durable at exactly its replica set. Per site, each commit decision
/// must be followed — before the site's next decision — by exactly one
/// apply event for the same transaction (the replica fires them
/// back-to-back inside the delivery job), and the reported durable slice
/// must equal the placement's independent recomputation: nothing the site
/// replicates is missing, nothing outside its assignment is stored. Abort
/// decisions must produce no apply. Recovery state transfers reset the
/// pairing for the rebuilt site.
class placement_monitor final : public monitor {
 public:
  explicit placement_monitor(place::placement p) : placement_(p) {}
  std::string_view name() const override { return "placement"; }
  void on_decision(const decision_event& e, sink& s) override;
  void on_apply(const apply_event& e, sink& s) override;
  void on_log_reset(const log_reset_event& e, sink& s) override;
  void on_run_end(sim_time now, sink& s) override;

 private:
  struct pending_apply {
    std::uint64_t global_seq = 0;
    std::uint64_t txn_id = 0;
  };
  place::placement placement_;
  std::map<unsigned, pending_apply> pending_;  // site -> unapplied commit
  std::vector<db::item_id> expected_;          // recomputation scratch
};

/// (7) Read-snapshot 1SR (local read fast path): every fast-path read's
/// claimed snapshot — (commit-log length, last committed txn id) — must be
/// a prefix of the agreed order of `order` (monitor 1, registered before
/// this one so it has seen each event first), both at the instant of the
/// read and retroactively: each site's strongest outstanding claim is
/// re-validated at every later view install (after monitor 1 rolled back
/// an orphan branch) and at run end, so a read served off an orphan branch
/// that is only rolled back later is still caught. Claimed prefixes must
/// also be monotone per site (a site may never serve an older snapshot
/// than one it already served — reads would travel back in time).
class read_snapshot_monitor final : public monitor {
 public:
  explicit read_snapshot_monitor(const agreed_prefix_monitor& order)
      : order_(order) {}
  std::string_view name() const override { return "read_snapshot"; }
  void on_view(const view_event& e, sink& s) override;
  void on_read(const read_event& e, sink& s) override;
  void on_run_end(sim_time now, sink& s) override;

 private:
  struct claim {
    std::uint64_t log_len = 0;
    std::uint64_t last_commit_id = 0;
    sim_time at = 0;
  };
  /// Claim vs the agreed order; empty string when consistent.
  std::string check_claim(const claim& c) const;
  /// Re-validates every outstanding claim; raises the first failure.
  void revalidate(sink& s) const;

  const agreed_prefix_monitor& order_;
  std::uint32_t top_id_ = 1;  // highest view id installed anywhere
  /// Per site, the strongest (longest-prefix) claim since the last
  /// revalidation — monotonicity makes it subsume the weaker ones.
  std::map<unsigned, claim> claims_;
};

}  // namespace dbsm::check

#endif  // DBSM_CHECK_MONITORS_HPP
