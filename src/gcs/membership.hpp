// View-synchronous membership (§3.4): crash detection triggers a
// coordinator-driven view change — a simple consensus in the style the
// paper cites (Schiper & Sandoz): propose, collect flush states, agree on
// a delivery cut, flush, install. "View synchrony uses a consensus
// protocol and imposes a negligible overhead during stable operation."
//
// The protocol tolerates lost control messages (periodic retry with fresh
// view ids) and coordinator crashes (takeover by the next lowest id).
// Membership shrinks on suspicion (crash-stop, as in the paper's
// experiments) and — when recovery is enabled — grows again through
// admit(): the recovery layer (gcs/recovery.hpp) catches a rejoining site
// up by state transfer, then asks the coordinator to merge it into the
// next view; the flush consensus still runs among the current members
// only. Only a primary partition — a majority of the current view — may
// install the next view: a minority side stalls with sends stopped rather
// than split-braining the committed sequence.
#ifndef DBSM_GCS_MEMBERSHIP_HPP
#define DBSM_GCS_MEMBERSHIP_HPP

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "csrt/env.hpp"
#include "gcs/config.hpp"
#include "gcs/view.hpp"
#include "gcs/wire.hpp"

namespace dbsm::gcs {

class membership {
 public:
  struct hooks {
    /// Pause new application sends (reliability keeps running).
    std::function<void()> stop_sends;
    /// Pause total-order assignment creation until the next install. The
    /// flush cut is computed from the prefixes reported below; assignments
    /// minted after that report would self-deliver at the sequencer only
    /// (sends are stopped) and break view synchrony — the sequencer must
    /// go quiescent for the duration of the change.
    std::function<void()> quiesce_order;
    /// Per-sender contiguous receive prefixes, aligned with the current
    /// (old) view's member list.
    std::function<std::vector<std::uint64_t>()> get_prefixes;
    /// Recover every stream up to `cut` (requesting from `sources`); call
    /// `done` when reached.
    std::function<void(std::vector<std::uint64_t> cut,
                       std::vector<node_id> sources,
                       std::function<void()> done)>
        ensure_cut;
    std::function<void()> cancel_flush;
    /// Install the agreed view; `cut` is aligned with `old_members`.
    std::function<void(const view& v,
                       const std::vector<node_id>& old_members,
                       const std::vector<std::uint64_t>& cut)>
        install;
    /// This node saw a view install that excludes it. Delivery must stop:
    /// on a slow (not cut) link the group's stream keeps arriving, and an
    /// excluded node must not go on delivering in a view it is not part
    /// of. Fires once, at the moment of discovery.
    std::function<void()> excluded;
    /// Control-plane messaging (self-delivery handled by the caller).
    std::function<void(node_id, util::shared_bytes)> send;
    std::function<void(util::shared_bytes)> mcast;
  };

  membership(csrt::env& env, const group_config& cfg, view initial,
             hooks h);
  ~membership();  // cancels the retry timer (safe mid-run teardown)

  membership(const membership&) = delete;
  membership& operator=(const membership&) = delete;

  /// Failure-detector input; triggers / widens a view change.
  void suspect(node_id n);

  /// Coordinator-side view merge (membership recovery): include `joiner`
  /// in the next proposed view. The flush consensus still runs among the
  /// current members only — the joiner's catch-up is the recovery
  /// protocol's job, not the flush's. No-op while a change is in progress
  /// (the recovery layer re-requests until the joiner is in).
  void admit(node_id joiner);

  /// Joiner-side: adopt the merged view wholesale. It arrived through the
  /// join protocol, already agreed by the primary partition — there is
  /// nothing to flush here, and the caller rebuilds the streams itself
  /// (no install hook fires).
  void force_view(const view& v);

  bool changing() const { return changing_; }
  const view& current() const { return current_; }
  std::uint64_t view_changes() const { return view_changes_; }

  /// True after this node saw a view install that excluded it (asymmetric
  /// cut: inbound alive, outbound dead). An excluded node stalls — it may
  /// not coordinate, donate state transfers, or admit joiners, even
  /// though its stale current() still lists it first.
  bool excluded() const { return excluded_; }

  // Control-message dispatch (from the group facade).
  void on_propose(const view_propose_msg& m);
  void on_state(const view_state_msg& m);
  void on_cut(const view_cut_msg& m);
  void on_flush_ok(const view_flush_ok_msg& m);
  void on_install(const view_install_msg& m);

  /// Called with the header view id of every incoming message. Traffic
  /// tagged with a view this node never installed (and is not mid-flush
  /// toward) reveals a missed exclusion: a view only installs with every
  /// member's flush report, so a view this node did not participate in
  /// cannot include it. The install message itself is unreliable — a
  /// partitioned-off node that missed it would otherwise never learn it
  /// was voted out and keep extending its own branch forever.
  void on_foreign_view(std::uint32_t id);

 private:
  void discover_excluded(std::uint32_t view_id);
  std::vector<node_id> alive_members() const;
  /// Primary-partition rule: true iff `members` sites are a majority of
  /// the current view, i.e. allowed to form the next view.
  bool is_primary(std::size_t members) const;
  void start_change();
  void propose();
  void maybe_send_cut();
  void maybe_install();
  void arm_retry();
  void retry_fire();
  void finish_install(const view_install_msg& m);
  /// Makes `v` the current view and ends any change in progress: clears
  /// the exclusion, suspicions, joiners and flush state, counts the view
  /// change and disarms the retry timer.
  void adopt(const view& v);

  csrt::env& env_;
  const group_config& cfg_;
  hooks hooks_;

  view current_;
  std::set<node_id> suspected_;
  /// Rejoining sites to include in the next proposed view (admit()).
  std::set<node_id> join_candidates_;
  std::uint64_t view_changes_ = 0;
  bool excluded_ = false;

  // Change-in-progress state (member role).
  bool changing_ = false;
  std::uint32_t pending_view_ = 0;
  std::vector<node_id> pending_members_;
  node_id coordinator_ = invalid_node;
  bool member_flush_done_ = false;
  csrt::timer_id retry_timer_ = 0;

  // Coordinator role state.
  std::map<node_id, std::vector<std::uint64_t>> states_;
  std::set<node_id> flush_oks_;
  std::vector<std::uint64_t> cut_;
  std::vector<node_id> sources_;
  bool cut_sent_ = false;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_MEMBERSHIP_HPP
