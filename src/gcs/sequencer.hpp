// Total order via fixed sequencer (§3.4): "one of the sites issues
// sequence numbers for messages. Other sites buffer and deliver messages
// according to the sequence numbers. View synchrony ensures that a single
// sequencer site is easily chosen and replaced when it fails."
//
// The sequencer — the view's lowest-id member — assigns a global sequence
// number to every complete application message it receives (its own
// included) and disseminates the assignments — one record per batch,
// closed at group_config::batch_max keys or after batch_delay — through
// its own reliable multicast stream, so ordering information is itself
// reliable and flow-controlled. This makes the sequencer multicast far
// more than anyone else, which is precisely the §5.3 bottleneck the paper
// diagnoses (and meets with a dedicated sequencer site,
// core::experiment_config::dedicated_sequencer).
//
// Every site runs the same machinery: it buffers complete messages,
// indexes the wire-visible assignments, delivers contiguous runs, and at
// a view change delivers the flushed backlog by one deterministic
// algorithm (install_view), so every survivor ends the view identically.
// Contract, enforced by tests/gcs_protocol_test.cpp and the fault catalog
// in tests/ordering_test.cpp:
//   * assignments take effect only when wire-visible (self-delivery
//     included), so view-change flushes agree at every survivor;
//   * quiesce() stops minting until install_view(); halt_delivery() stops
//     delivery permanently (node excluded from the group);
//   * install_view() rolls back the open batch (it never reached the
//     wire) and delivers the backlog; the new view's sequencer is set
//     afterwards and rescans everything still unordered.
#ifndef DBSM_GCS_SEQUENCER_HPP
#define DBSM_GCS_SEQUENCER_HPP

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "csrt/env.hpp"
#include "gcs/config.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::gcs {

/// The assignment record, the only ordering wire format: one base global
/// sequence plus the (sender, app_seq) keys it covers, in minting order —
/// key i gets global sequence base + i. 12 bytes per key plus 10, and one
/// wire record (and one handler charge) per batch.
struct assignment_batch {
  std::uint64_t base = 0;
  std::vector<std::pair<node_id, std::uint64_t>> keys;
};

util::shared_bytes encode_assignment_batch(const assignment_batch& b);
assignment_batch decode_assignment_batch(const util::shared_bytes& raw);

/// One totally ordered delivery, as handed to the run consumer.
struct delivery {
  node_id sender = 0;
  std::uint64_t global_seq = 0;
  util::shared_bytes payload;
};

class total_order {
 public:
  /// Final, totally ordered delivery to the application: a contiguous
  /// run of deliveries in one callback (a run of one is the degenerate
  /// case). Run boundaries are a local timing artifact; the per-payload
  /// order is the total order.
  using deliver_fn = std::function<void(std::vector<delivery>&&)>;
  /// Used by the sequencer to disseminate assignment records (wired to
  /// the group facade, which wraps and reliably multicasts them).
  using send_batch_fn = std::function<void(util::shared_bytes batch)>;

  total_order(csrt::env& env, const group_config& cfg);
  ~total_order();  // cancels the batch timer (mid-run teardown)

  total_order(const total_order&) = delete;
  total_order& operator=(const total_order&) = delete;

  /// Rebases a *fresh* instance so delivery and assignment continue at
  /// `next` (used when the stack is rebuilt at a view merge: the global
  /// sequence runs on across the merge while the streams restart).
  void start_at(std::uint64_t next);

  void set_deliver(deliver_fn fn) { deliver_ = std::move(fn); }
  void set_send_batch(send_batch_fn fn) { send_batch_ = std::move(fn); }

  /// Updates the sequencer role (at start and at every view change). When
  /// this node is the sequencer it (re)assigns every complete-but-unordered
  /// message — including ones that arrived while ordering was quiesced for
  /// a view change.
  void set_sequencer(node_id sequencer);

  /// Stops assignment creation and batch dissemination until the next
  /// install_view(). Called when a view change reports its flush state:
  /// the agreed cut covers exactly what was broadcast before the report,
  /// so an assignment minted after it would self-deliver here (sends are
  /// stopped) yet never reach the other members before they install —
  /// delivering it in this view at one site only breaks view synchrony.
  /// Received traffic still buffers and within-cut delivery continues.
  void quiesce() { quiesced_ = true; }

  /// Terminal delivery stop: this node learned it was excluded from the
  /// next view. View synchrony forbids delivering in a view one is not a
  /// member of, so the in-flight stream (which may keep arriving on an
  /// asymmetric or slow link) must not commit here any more. Only a stack
  /// rebuild (recovery rejoin) resumes delivery.
  void halt_delivery() { halted_ = true; }

  /// Complete application message from the reliable layer (user payload).
  void on_user_msg(node_id sender, std::uint64_t app_seq,
                   util::shared_bytes payload, std::uint64_t last_dgram);

  /// Assignment record from the reliable layer.
  void on_assignment_batch(const util::shared_bytes& raw);

  /// View change: rolls back the open batch, removes state of failed
  /// senders beyond the cut and deterministically delivers what remains,
  /// as one run (identically at every survivor — they flushed to the same
  /// state):
  ///   1. assignments whose payload survives are delivered in order;
  ///   2. assignments whose payload is gone (assigned by a crashed
  ///      sequencer to a message nobody holds) are skipped;
  ///   3. complete unassigned messages within the cut are delivered in
  ///      (sender, app_seq) order.
  /// `cut` and `old_members` describe the flushed state.
  void install_view(const std::vector<node_id>& old_members,
                    const std::vector<std::uint64_t>& cut,
                    const std::vector<node_id>& new_members);

  std::uint64_t delivered() const { return next_deliver_ - 1; }
  std::size_t pending_unordered() const { return complete_.size(); }

 private:
  using msg_key = std::pair<node_id, std::uint64_t>;

  struct pending_msg {
    util::shared_bytes payload;
    std::uint64_t last_dgram = 0;
  };

  void maybe_assign(node_id sender, std::uint64_t app_seq);
  void close_batch();
  void cancel_batch_timer();
  void try_deliver();

  csrt::env& env_;
  const group_config cfg_;
  deliver_fn deliver_;
  send_batch_fn send_batch_;

  bool am_sequencer_ = false;
  bool quiesced_ = false;  // view change in progress: no new assignments
  bool halted_ = false;    // excluded from the group: no more delivery

  std::map<msg_key, pending_msg> complete_;       // received, not delivered
  std::map<std::uint64_t, msg_key> order_;        // global -> key
  std::set<msg_key> assigned_;                    // keys with an order
  std::uint64_t next_deliver_ = 1;
  std::uint64_t next_assign_ = 1;

  /// Keys accumulated for the open batch. They are marked assigned (so the
  /// rescan cannot double-add them) but their global sequences are minted
  /// only when the batch closes.
  std::vector<msg_key> batch_keys_;
  csrt::timer_id batch_timer_ = 0;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_SEQUENCER_HPP
