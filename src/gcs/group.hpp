// Group communication facade: atomic (totally ordered, view-synchronous)
// multicast as used by the DBSM termination protocol.
//
// Wires together the reliable multicast layer, gossip stability detection,
// fixed-sequencer total order, heartbeat failure detection, and
// view-change membership — the full §3.4 stack — on top of the env
// abstraction, so the identical protocol code runs simulated (sim_env) or
// on real sockets (native_env).
#ifndef DBSM_GCS_GROUP_HPP
#define DBSM_GCS_GROUP_HPP

#include <deque>
#include <memory>

#include "csrt/env.hpp"
#include "gcs/config.hpp"
#include "gcs/failure_detector.hpp"
#include "gcs/membership.hpp"
#include "gcs/recovery.hpp"
#include "gcs/rmcast.hpp"
#include "gcs/sequencer.hpp"
#include "gcs/stability.hpp"
#include "gcs/view.hpp"

namespace dbsm::gcs {

class group {
 public:
  /// Totally ordered delivery of a contiguous run of application payloads
  /// in one callback: the consumer can amortize per-delivery fixed costs
  /// over the run and pipeline its stages. Run boundaries are a local
  /// timing artifact; the per-payload order is the total order.
  using deliver_fn = std::function<void(std::vector<delivery>&&)>;
  using view_fn = std::function<void(const view&)>;

  /// Application-state marshaling for membership recovery (wired by the
  /// cluster to the replica): the donor side serializes its state, the
  /// joiner side installs a transferred one. Replayed deliveries go
  /// through the deliver callback as runs of one.
  struct state_transfer_hooks {
    /// Marshals donor state for `joiner` — under partial replication the
    /// replica filters the database slice by the joiner's placement, so
    /// the transfer (and its chunk count) shrinks with the degree.
    std::function<util::shared_bytes(node_id joiner)> take_snapshot;
    std::function<void(util::shared_bytes)> install_snapshot;
  };

  group(csrt::env& env, group_config cfg);
  ~group();

  group(const group&) = delete;
  group& operator=(const group&) = delete;

  /// The one delivery consumer: live runs, view-change backlog and
  /// recovery replay all arrive through it.
  void set_deliver(deliver_fn fn) { deliver_ = std::move(fn); }
  void set_view_handler(view_fn fn) { view_cb_ = std::move(fn); }
  /// Requires cfg.enable_recovery; call before start()/start_joining().
  void set_state_transfer(state_transfer_hooks h) { xfer_ = std::move(h); }
  /// Fires on the joiner once it is live in the merged view.
  void set_joined_handler(view_fn fn) { joined_cb_ = std::move(fn); }
  /// Fires once when this node discovers a view install that excludes it
  /// (delivery halts at that instant; rejoin via recovery resumes it).
  void set_excluded_handler(std::function<void()> fn) {
    excluded_cb_ = std::move(fn);
  }
  /// Fires whenever the local failure detector starts suspecting a member
  /// (may fire repeatedly for the same suspect while it stays silent).
  void set_suspicion_handler(std::function<void(node_id)> fn) {
    suspicion_cb_ = std::move(fn);
  }

  /// Boots the protocol stack (registers the datagram handler, arms the
  /// gossip/heartbeat timers, installs the initial view).
  void start();

  /// Boots a *recovering* site instead: only the join protocol runs (no
  /// heartbeats, no gossip, no sends) until the merged view installs, at
  /// which point the full stack comes up seamlessly. Requires
  /// cfg.enable_recovery.
  void start_joining();

  /// Quiesces the stack for teardown mid-run (site crash/restart): stops
  /// the tick timers and makes every queued callback a no-op. The object
  /// can then be destroyed safely once the owning CPU drains.
  void shutdown();

  bool joining() const { return joining_; }

  /// Atomic multicast of an application payload; safe to call from
  /// simulation-side code (enters a real-code job via env.post).
  void submit(util::shared_bytes payload);

  /// Same, but must already run in real-code context.
  void broadcast(util::shared_bytes payload);

  const view& current_view() const;
  bool am_sequencer() const;
  node_id self() const { return env_.self(); }

  // --- probes ---
  const reliable_mcast::stats& rmcast_stats() const;
  std::uint64_t stability_rounds() const;
  std::uint64_t view_changes() const;
  std::uint64_t delivered_count() const;
  /// Agreed (uniform) delivery watermark: the count of totally ordered
  /// deliveries whose underlying datagrams fall within the all-members
  /// gossip-stable prefix. Every current member holds them, so within a
  /// view they can never be rolled back — a partitioned minority cannot
  /// complete a stability round, so its watermark freezes at partition
  /// onset. Resets to the agreed cut at every view install.
  std::uint64_t uniform_delivered() const { return uniform_; }
  std::size_t quota_used() const;
  /// Completed state transfers this node donated (recovery probe).
  std::uint64_t joins_served() const;
  /// Snapshot blob bytes this node donated across join attempts.
  std::uint64_t join_snapshot_bytes() const;
  /// join_chunk payload bytes sent (retransmissions included).
  std::uint64_t join_chunk_bytes() const;
  /// Datagrams dropped because they failed to decode: truncated or
  /// corrupt bytes, or an unknown or retired type. Hostile input is
  /// counted, never fatal.
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }

 private:
  static constexpr std::uint8_t kind_user = 0;
  static constexpr std::uint8_t kind_assignment_batch = 1;

  void dispatch(node_id from, util::shared_bytes raw);
  void on_app_msg(node_id sender, std::uint64_t app_seq,
                  util::shared_bytes payload, std::uint64_t last_dgram);
  void stability_tick();
  void heartbeat_tick();
  void send_ctl(node_id to, util::shared_bytes raw);
  void mcast_ctl(util::shared_bytes raw);
  void do_install(const view& v, const std::vector<node_id>& old_members,
                  const std::vector<std::uint64_t>& cut);
  /// Fresh rmcast/order/stability at `v` with the global sequence
  /// continuing at `delivered` + 1 (view merges restart every stream).
  void build_stack(const view& v, std::uint64_t delivered);
  void rebuild_for_merge(const view& v, std::uint64_t delivered,
                         std::vector<util::shared_bytes> resend);
  void install_merged(const view& v, std::uint64_t delivered);
  void wire_recovery();
  static util::shared_bytes wrap(std::uint8_t kind,
                                 const util::shared_bytes& payload);
  /// The body of a wrapped message, without its kind byte.
  static util::shared_bytes unwrap(const util::shared_bytes& wrapped);

  /// One gossip-period sample: how far total order had delivered when the
  /// local contiguously-received prefixes stood at `prefixes`. Once the
  /// all-members stable vector dominates `prefixes`, every delivery up to
  /// `delivered` is agreed (assignments travel in the sequencer's own
  /// stream, so a stable prefix implies deliverability everywhere).
  struct uniform_sample {
    std::uint64_t delivered = 0;
    std::vector<std::uint64_t> prefixes;
  };

  void reset_uniform();
  void advance_uniform();

  csrt::env& env_;
  group_config cfg_;
  deliver_fn deliver_;
  view_fn view_cb_;
  view_fn joined_cb_;
  std::function<void()> excluded_cb_;
  std::function<void(node_id)> suspicion_cb_;
  state_transfer_hooks xfer_;

  std::unique_ptr<reliable_mcast> rmcast_;
  std::unique_ptr<total_order> order_;
  std::unique_ptr<stability_tracker> stability_;
  std::unique_ptr<failure_detector> fd_;
  std::unique_ptr<membership> membership_;
  std::unique_ptr<recovery> recovery_;

  std::deque<uniform_sample> uniform_ring_;
  std::uint64_t uniform_ = 0;
  std::uint64_t malformed_dropped_ = 0;

  bool started_ = false;
  bool stopped_ = false;
  bool joining_ = false;
  csrt::timer_id stab_timer_ = 0;
  csrt::timer_id hb_timer_ = 0;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_GROUP_HPP
