// Membership recovery: crash/partition rejoin with state transfer.
//
// The paper treats failed sites as crash-stop (§5.3) — a healed or
// excluded site stays out forever. This module adds the missing half of
// the cycle, in the style of view-synchronous rejoin (Derecho's
// specification work runtime-checks exactly this mechanism): a recovering
// site requests readmission, the primary partition's coordinator (its
// lowest-id member, the "donor") transfers a state snapshot — database +
// certification last-writer index + commit log, marshaled by the replica
// layer — in acknowledged chunks, forwards every totally ordered delivery
// made after the snapshot so the joiner replays the exact committed
// sequence under concurrent load, and finally asks membership to merge
// the joiner into the next view. The join_commit message then tells the
// joiner the precise delivery position at which the merged view began;
// when its replay reaches it, the joiner installs the view with fresh
// streams and is indistinguishable from a member that never left.
//
// Both ends are timeout-driven: a joiner that dies mid-transfer is
// forgotten by the donor, a donor that dies is replaced when the joiner
// restarts the attempt (fresh incarnation) against the next coordinator.
// Everything rides the same unreliable datagram service as the rest of
// the GCS — chunks stop-and-wait, forwarded deliveries go-back-N.
#ifndef DBSM_GCS_RECOVERY_HPP
#define DBSM_GCS_RECOVERY_HPP

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "csrt/env.hpp"
#include "gcs/view.hpp"
#include "gcs/wire.hpp"

namespace dbsm::gcs {

class recovery {
 public:
  /// Everything the protocol needs from its group (and, through it, the
  /// replica): state marshaling, delivery replay, membership control.
  struct hooks {
    /// Donor: marshal the application state at the current delivery
    /// position (atomic — called between deliveries), filtered to what
    /// `joiner` replicates (full replication ignores the argument).
    std::function<util::shared_bytes(node_id joiner)> take_snapshot;
    /// Joiner: install a transferred snapshot.
    std::function<void(util::shared_bytes)> install_snapshot;
    /// Joiner: replay one forwarded delivery into the application.
    std::function<void(node_id sender, std::uint64_t global_seq,
                       util::shared_bytes payload)>
        replay;
    /// Current global delivery position.
    std::function<std::uint64_t()> delivered;
    /// True iff this node currently coordinates the primary partition
    /// (lowest id of the installed view).
    std::function<bool()> is_coordinator;
    std::function<bool()> membership_changing;
    /// Ask membership to merge the joiner into the next view.
    std::function<void(node_id joiner)> admit;
    /// Joiner: enter the merged view at the given delivered position
    /// (rebuilds the protocol stack).
    std::function<void(const view& v, std::uint64_t delivered)>
        install_merged;
    std::function<void(node_id to, util::shared_bytes raw)> send;
    std::function<void(util::shared_bytes raw)> mcast;
  };

  recovery(csrt::env& env, hooks h);
  ~recovery();  // cancels both tick timers

  recovery(const recovery&) = delete;
  recovery& operator=(const recovery&) = delete;

  // --- joiner side ---
  /// Starts (or restarts) a join attempt; called once by start_joining().
  void begin_join();
  void on_chunk(const join_chunk_msg& m);
  void on_fwd(const join_fwd_msg& m);
  void on_commit(const join_commit_msg& m);
  bool joining() const { return joining_; }

  // --- donor side ---
  void on_join_request(const join_request_msg& m);
  void on_chunk_ack(const join_chunk_ack_msg& m);
  void on_fwd_ack(const join_fwd_ack_msg& m);
  void on_done(const join_done_msg& m);
  /// Every local totally ordered delivery (donor forwards post-snapshot
  /// ones to its joiner).
  void on_local_deliver(node_id sender, std::uint64_t global_seq,
                        util::shared_bytes payload);
  /// A view was installed locally; if it merged our joiner in, freeze the
  /// commit position and tell the joiner.
  void on_view_installed(const view& v, std::uint64_t delivered);
  std::uint64_t joins_served() const { return joins_served_; }
  /// Sum of snapshot blob sizes this node donated (one per served join
  /// attempt) — under partial replication this is the placement-filtered
  /// size, not the full database.
  std::uint64_t snapshot_bytes_donated() const {
    return snapshot_bytes_donated_;
  }
  /// join_chunk payload bytes actually sent, retransmissions included.
  std::uint64_t chunk_bytes_sent() const { return chunk_bytes_sent_; }

 private:
  struct fwd_entry {
    std::uint64_t seq;
    node_id sender;
    util::shared_bytes payload;
  };

  struct donor_state {
    node_id joiner = invalid_node;
    std::uint64_t incarnation = 0;
    enum class phase { transfer, catchup, committing } ph = phase::transfer;
    util::shared_bytes blob;          // full snapshot
    std::uint64_t snap_pos = 0;       // delivered position it captures
    std::uint32_t chunks = 1;
    std::uint32_t next_chunk = 0;     // first unacked chunk
    std::deque<fwd_entry> fwd;        // deliveries after snap_pos, in order
    std::uint64_t acked = 0;          // joiner's replayed_to
    std::uint64_t commit_seq = 0;     // delivered at the merge install
    view merged;                      // the view that includes the joiner
    sim_time last_progress = 0;
  };

  // Donor.
  void donor_tick();
  void arm_donor_tick();
  void send_chunk(std::uint32_t idx);
  void send_fwd_window();
  void send_commit();
  void abandon_join(const char* why);

  // Joiner.
  void joiner_tick();
  void arm_joiner_tick();
  void restart_join(const char* why);
  void note_progress() { last_progress_ = env_.now(); }
  void drain_replay();
  void maybe_finish_join();
  void send_fwd_ack();

  csrt::env& env_;
  hooks hooks_;

  // Donor side (one joiner at a time; others keep retrying).
  std::optional<donor_state> donor_;
  csrt::timer_id donor_timer_ = 0;
  std::uint64_t joins_served_ = 0;
  std::uint64_t snapshot_bytes_donated_ = 0;
  std::uint64_t chunk_bytes_sent_ = 0;

  // Joiner side.
  bool joining_ = false;
  std::uint64_t incarnation_ = 0;
  std::vector<util::shared_bytes> chunks_;
  std::uint32_t chunks_have_ = 0;
  bool snapshot_installed_ = false;
  std::uint64_t replay_pos_ = 0;
  node_id donor_id_ = invalid_node;
  std::map<std::uint64_t, fwd_entry> fwd_buf_;
  bool commit_ready_ = false;
  view commit_view_;
  std::uint64_t commit_seq_ = 0;
  sim_time last_progress_ = 0;
  csrt::timer_id joiner_timer_ = 0;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_RECOVERY_HPP
