// The ordering-protocol seam: every total-order implementation the group
// can run derives from gcs::ordering, which owns the protocol-independent
// machinery — the complete-message buffer, the global-sequence assignment
// index, contiguous delivery, and the deterministic view-change delivery
// algorithm (drop dead senders beyond the cut, deliver surviving
// assignments, skip orphans, deliver complete-but-unassigned messages in
// key order). Implementations differ only in WHO mints assignments and
// WHEN: the §3.4 fixed sequencer (gcs/sequencer.hpp, the default) and the
// leaderless rotating token (gcs/token_order.hpp).
//
// Interface contract (enforced by tests/ordering_test.cpp, the
// cross-ordering differential conformance suite):
//   * assignments are disseminated through reliable multicast streams and
//     take effect only when wire-visible (self-delivery included), so
//     view-change flushes agree at every survivor;
//   * on_complete() is the single mint hook — it fires per complete
//     application message while ordering is not quiesced;
//   * quiesce() stops minting until install_view(); halt_delivery() stops
//     delivery permanently (node excluded from the group);
//   * install_view() must leave every survivor with identical state:
//     rollback_unflushed() undoes local-only mint state, the base delivers
//     the flushed backlog deterministically, post_install() resets
//     per-protocol timers/batches;
//   * set_roles() re-derives the protocol's leadership from the installed
//     member list alone (no extra agreement round).
#ifndef DBSM_GCS_ORDERING_HPP
#define DBSM_GCS_ORDERING_HPP

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "csrt/env.hpp"
#include "gcs/config.hpp"
#include "gcs/wire.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::gcs {

/// The assignment record, the only ordering wire format: one base global
/// sequence plus the (sender, app_seq) keys it covers, in minting order —
/// key i gets global sequence base + i. 12 bytes per key plus 10, and one
/// wire record (and one handler charge) per batch. The fixed sequencer
/// closes a batch at group_config::batch_max keys or batch_delay; the
/// rotating token mints one per token hold.
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

class ordering {
 public:
  /// Final, totally ordered delivery to the application: a contiguous
  /// run of deliveries in one callback (a run of one is the degenerate
  /// case). Run boundaries are a local timing artifact; the per-payload
  /// order is the total order.
  using deliver_fn = std::function<void(std::vector<delivery>&&)>;
  /// Used by the minting site to disseminate assignment records (wired to
  /// the group facade, which wraps and reliably multicasts them).
  using send_batch_fn = std::function<void(util::shared_bytes batch)>;
  /// Rotating token only: multicasts the token datagram naming the next
  /// holder (raw control plane, outside the reliable streams).
  using send_token_fn = std::function<void(std::uint64_t token_seq,
                                           std::uint64_t next_assign,
                                           node_id next_holder)>;

  ordering(csrt::env& env, const group_config& cfg);
  virtual ~ordering();

  ordering(const ordering&) = delete;
  ordering& operator=(const ordering&) = delete;

  /// Rebases a *fresh* instance so delivery and assignment continue at
  /// `next` (used when the stack is rebuilt at a view merge: the global
  /// sequence runs on across the merge while the streams restart).
  void start_at(std::uint64_t next);

  void set_deliver(deliver_fn fn) { deliver_ = std::move(fn); }
  /// Dissemination of assignment records (the group wraps these under its
  /// own wire kind).
  void set_send_batch(send_batch_fn fn) { send_batch_ = std::move(fn); }
  /// Token dissemination (rotating token only; a fixed sequencer never
  /// calls it).
  void set_send_token(send_token_fn fn) { send_token_ = std::move(fn); }

  /// Updates the protocol's roles from the freshly installed member list
  /// (at start and at every view change/stack rebuild). The fixed
  /// sequencer adopts `lead` as the minting site; the rotating token
  /// deterministically regenerates the token at `lead`. Implementations
  /// must (re)assign every complete-but-unordered message this node is
  /// responsible for — including ones that arrived while ordering was
  /// quiesced for a view change.
  virtual void set_roles(const std::vector<node_id>& members,
                         node_id lead) = 0;

  /// Stops assignment creation and batch dissemination until the next
  /// install_view(). Called when a view change reports its flush state:
  /// the agreed cut covers exactly what was broadcast before the report,
  /// so an assignment minted after it would self-deliver here (sends are
  /// stopped) yet never reach the other members before they install —
  /// delivering it in this view at one site only breaks view synchrony.
  /// Received traffic still buffers and within-cut delivery continues.
  virtual void quiesce();

  /// Terminal delivery stop: this node learned it was excluded from the
  /// next view. View synchrony forbids delivering in a view one is not a
  /// member of, so the in-flight stream (which may keep arriving on an
  /// asymmetric or slow link) must not commit here any more. Only a stack
  /// rebuild (recovery rejoin) resumes delivery.
  void halt_delivery();

  /// Complete application message from the reliable layer (user payload).
  void on_user_msg(node_id sender, std::uint64_t app_seq,
                   util::shared_bytes payload, std::uint64_t last_dgram);

  /// Assignment record from the reliable layer.
  void on_assignment_batch(const util::shared_bytes& raw);

  /// Token datagram from the control plane (rotating token only; the
  /// group gates it on view id and the membership barrier first).
  virtual void on_token(const token_msg& t);

  /// View change: removes state of failed senders beyond the cut and
  /// deterministically delivers what remains, as one run (identically at
  /// every survivor — they flushed to the same state):
  ///   1. assignments whose payload survives are delivered in order;
  ///   2. assignments whose payload is gone (assigned by a crashed
  ///      minter to a message nobody holds) are skipped;
  ///   3. complete unassigned messages within the cut are delivered in
  ///      (sender, app_seq) order.
  /// `cut` and `old_members` describe the flushed state.
  void install_view(const std::vector<node_id>& old_members,
                    const std::vector<std::uint64_t>& cut,
                    const std::vector<node_id>& new_members);

  std::uint64_t delivered() const { return next_deliver_ - 1; }
  std::size_t pending_unordered() const { return complete_.size(); }
  std::size_t pending_assignments() const { return order_.size(); }

 protected:
  using msg_key = std::pair<node_id, std::uint64_t>;

  struct pending_msg {
    util::shared_bytes payload;
    std::uint64_t last_dgram = 0;
  };

  /// The mint hook: one complete application message buffered, ordering
  /// not quiesced. The implementation decides whether this site assigns
  /// it (and when the assignment record goes to the wire).
  virtual void on_complete(node_id sender, std::uint64_t app_seq) = 0;

  /// install_view() entry: undo mint state that never reached the wire
  /// (the open, unminted batch) so the deterministic backlog delivery
  /// sees only wire-visible assignments.
  virtual void rollback_unflushed() = 0;

  /// install_view() exit (after the renumber): reset per-protocol batch
  /// state and timers for the new view.
  virtual void post_install(const std::vector<node_id>& new_members) = 0;

  void try_deliver();

  csrt::env& env_;
  const group_config cfg_;
  deliver_fn deliver_;
  send_batch_fn send_batch_;
  send_token_fn send_token_;

  bool quiesced_ = false;  // view change in progress: no new assignments
  bool halted_ = false;    // excluded from the group: no more delivery

  std::map<msg_key, pending_msg> complete_;       // received, not delivered
  std::map<std::uint64_t, msg_key> order_;        // global -> key
  std::set<msg_key> assigned_;                    // keys with an order
  std::uint64_t next_deliver_ = 1;
  std::uint64_t next_assign_ = 1;
};

/// Instantiates the configured ordering protocol (cfg.ordering).
std::unique_ptr<ordering> make_ordering(csrt::env& env,
                                        const group_config& cfg);

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_ORDERING_HPP
