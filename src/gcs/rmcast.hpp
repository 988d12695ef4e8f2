// View-synchronous reliable multicast, bottom layer of the GCS (§3.4).
//
//   * Dissemination uses the transport's multicast (IP multicast on a LAN,
//     unicast fan-out elsewhere), with rate-based flow control.
//   * Reliability is a window-based receiver-initiated mechanism: gaps in
//     per-sender datagram sequences trigger NAKs (with backoff); senders
//     retransmit from their unstable-message buffers.
//   * Application messages larger than one datagram are fragmented;
//     complete messages are handed up in per-sender order.
//   * Each sender owns a share of the group's buffer space for unstable
//     (not yet garbage-collectable) datagrams; when the share fills, the
//     sender blocks — the fairness rule behind the paper's §5.3 analysis.
//     Datagrams queued behind the block hold only a reference to their
//     application message: a datagram is encoded when first transmitted,
//     and its bytes are kept while it is unstable.
//   * Stability garbage collection and view-change flushing are driven
//     from above (the group facade).
#ifndef DBSM_GCS_RMCAST_HPP
#define DBSM_GCS_RMCAST_HPP

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "csrt/env.hpp"
#include "gcs/config.hpp"
#include "gcs/flow_control.hpp"
#include "gcs/wire.hpp"

namespace dbsm::gcs {

class reliable_mcast {
 public:
  /// Complete application message, delivered in per-sender order.
  /// `last_dgram` is the sequence number of its final fragment (used by
  /// view-change cuts).
  using app_msg_fn =
      std::function<void(node_id sender, std::uint64_t app_seq,
                         util::shared_bytes payload, std::uint64_t last_dgram)>;

  /// Maximum payload carried by one DATA datagram; the prototype restricts
  /// packets to a safe size well under the Ethernet MTU (§4.2).
  static constexpr std::size_t max_fragment = 1024;

  reliable_mcast(csrt::env& env, group_config cfg,
                 std::vector<node_id> members);
  ~reliable_mcast();  // cancels all armed timers (safe mid-run teardown)

  reliable_mcast(const reliable_mcast&) = delete;
  reliable_mcast& operator=(const reliable_mcast&) = delete;

  void set_app_handler(app_msg_fn fn) { app_handler_ = std::move(fn); }
  void set_view_id(std::uint32_t id) { view_id_ = id; }

  /// Datagrams (and NAKs) stamped with a view id below this are dropped.
  /// Raised only when the stack is rebuilt at a view merge: streams restart
  /// from zero there, so a stale in-flight datagram of the previous epoch
  /// must not be mistaken for new-stream traffic. 0 (the default) accepts
  /// everything — the historical behavior.
  void set_min_accept_view(std::uint32_t id) { min_accept_view_ = id; }

  /// Evidence of `sender`'s send-stream high water (heartbeat piggyback,
  /// recovery mode): reveals datagrams this node never saw even when no
  /// later traffic arrives to expose the gap, and NAKs for them.
  void note_sender_high(node_id sender, std::uint64_t high);

  /// Own send-stream high water (advertised in recovery-mode heartbeats).
  std::uint64_t sent_high() const { return my_dgram_seq_; }

  /// Application messages accepted by broadcast() but not yet covered by
  /// `cut_self` (this node's flush cut): they never reached the other
  /// members, and a view-merge rebuild would otherwise drop them. The
  /// caller re-broadcasts them through the fresh stack, in order.
  std::vector<util::shared_bytes> unflushed_app_msgs(
      std::uint64_t cut_self) const;

  /// Reliably multicasts an application message (must run as real code).
  /// The local copy is delivered immediately.
  void broadcast(util::shared_bytes payload);

  /// Datagram inputs (dispatched by the group facade).
  void on_data(const data_msg& m, const util::shared_bytes& raw);
  void on_nak(const nak_msg& m);

  /// Per-sender contiguously received prefixes, aligned with members()
  /// (own stream: last assigned sequence number).
  std::vector<std::uint64_t> prefixes() const;

  /// Garbage-collects buffers up to the per-sender stable prefixes and
  /// unblocks transmission.
  void collect_garbage(const std::vector<std::uint64_t>& stable);

  // --- view-change support ---
  void stop_sending();
  void resume_sending();

  /// Drives recovery until prefixes reach `cut`; missing datagrams are
  /// requested from `sources` (one serving member per old-view sender).
  /// `done` fires once every prefix reached its cut.
  void ensure_up_to(std::vector<std::uint64_t> cut,
                    std::vector<node_id> sources, std::function<void()> done);
  void cancel_flush();

  /// Installs a new membership (a subset of the old); state of removed
  /// senders is truncated at the agreed cut.
  void install_view(const std::vector<node_id>& new_members);

  const std::vector<node_id>& members() const { return members_; }

  struct stats {
    std::uint64_t app_msgs_sent = 0;
    std::uint64_t app_msgs_delivered = 0;
    std::uint64_t dgrams_sent = 0;
    std::uint64_t naks_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t blocked_episodes = 0;
    sim_duration blocked_time = 0;
  };
  const stats& get_stats() const { return stats_; }
  std::size_t quota_used() const { return quota_.used(); }
  std::size_t tx_backlog() const { return my_dgram_seq_ + 1 - next_tx_; }
  bool blocked() const { return blocked_; }

 private:
  /// One own datagram, from broadcast until stable. The header fields are
  /// fixed at broadcast time; `raw` is set when the datagram is first
  /// transmitted or forced out by a flush NAK.
  struct out_entry {
    util::shared_bytes app;  // the whole application message
    std::uint64_t app_seq = 0;
    std::uint32_t view_id = 0;
    std::uint16_t frag_idx = 0;
    util::shared_bytes raw;
  };

  struct sender_state {
    std::uint64_t prefix = 0;    // contiguous received
    std::uint64_t max_seen = 0;
    std::map<std::uint64_t, data_msg> ooo;  // received, above the prefix
    std::map<std::uint64_t, util::shared_bytes> retention;  // raw, unstable
    // In-order reassembly of the current fragmented message.
    std::vector<util::shared_bytes> partial;
    std::uint64_t partial_app_seq = 0;
    csrt::timer_id nak_timer = 0;
    sim_duration nak_interval = 0;
  };

  std::size_t member_index(node_id n) const;
  /// Sequence number of send_buffer_.front().
  std::uint64_t send_base() const {
    return my_dgram_seq_ + 1 - send_buffer_.size();
  }
  /// Own datagram `seq` while it is unstable, else null.
  out_entry* own_entry(std::uint64_t seq);
  util::shared_bytes encode_entry(std::uint64_t seq,
                                  const out_entry& e) const;
  void pump_tx();
  void pump_retx();
  void advance_prefix(node_id sender, sender_state& st);
  void deliver_fragment(node_id sender, sender_state& st, const data_msg& m);
  void arm_nak(node_id sender, sender_state& st);
  void nak_fire(node_id sender);
  void check_flush_done();
  void flush_fire();

  csrt::env& env_;
  group_config cfg_;
  std::vector<node_id> members_;
  std::uint32_t view_id_ = 1;
  std::uint32_t min_accept_view_ = 0;
  app_msg_fn app_handler_;

  // Send side.
  std::uint64_t my_dgram_seq_ = 0;
  std::uint64_t my_app_seq_ = 0;
  /// Own datagrams not yet stable, ascending and contiguous: the last one
  /// is my_dgram_seq_.
  std::deque<out_entry> send_buffer_;
  std::uint64_t next_tx_ = 1;  // first datagram pump_tx has not handled
  std::deque<std::pair<node_id, util::shared_bytes>> retx_queue_;
  token_bucket bucket_;
  buffer_quota quota_;
  bool sending_allowed_ = true;
  bool blocked_ = false;
  sim_time blocked_since_ = 0;
  csrt::timer_id rate_timer_ = 0;

  // Receive side.
  std::unordered_map<node_id, sender_state> senders_;

  // Flush state.
  bool flushing_ = false;
  std::vector<std::uint64_t> flush_cut_;
  std::vector<node_id> flush_sources_;
  std::vector<node_id> flush_old_members_;
  std::function<void()> flush_done_;
  csrt::timer_id flush_timer_ = 0;

  stats stats_;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_RMCAST_HPP
