#include "gcs/sequencer.hpp"

#include "util/check.hpp"

namespace dbsm::gcs {

total_order::total_order(csrt::env& env, const group_config& cfg)
    : ordering(env, cfg) {}

total_order::~total_order() {
  if (batch_timer_ != 0) env_.cancel_timer(batch_timer_);
}

void total_order::set_roles(const std::vector<node_id>& members,
                            node_id lead) {
  (void)members;
  set_sequencer(lead);
}

void total_order::set_sequencer(node_id sequencer) {
  sequencer_ = sequencer;
  am_sequencer_ = sequencer == env_.self();
  if (am_sequencer_ && !quiesced_) {
    // Assign everything complete but unordered, deterministically. This
    // runs on every role update (not just takeovers): after a view change
    // the continuing sequencer must pick up messages that completed while
    // ordering was quiesced for the flush. The keys are collected first: a
    // batch closing mid-scan self-delivers its record, and that delivery
    // erases from complete_.
    std::vector<msg_key> unassigned;
    for (const auto& [key, msg] : complete_)
      if (!assigned_.count(key)) unassigned.push_back(key);
    for (const msg_key& key : unassigned) maybe_assign(key.first, key.second);
    close_batch();
  }
}

void total_order::on_complete(node_id sender, std::uint64_t app_seq) {
  if (am_sequencer_) maybe_assign(sender, app_seq);
}

void total_order::maybe_assign(node_id sender, std::uint64_t app_seq) {
  const msg_key key{sender, app_seq};
  if (assigned_.count(key)) return;
  // Accumulate the key; global sequences are minted consecutively when
  // the batch closes (size or delay bound). Marking it assigned now keeps
  // the sequencer rescan from double-adding it; install_view() rolls the
  // open batch back.
  assigned_.insert(key);
  batch_keys_.push_back(key);
  if (batch_keys_.size() >= cfg_.batch_max) {
    close_batch();
  } else if (batch_timer_ == 0) {
    batch_timer_ = env_.set_timer(cfg_.batch_delay, [this] {
      batch_timer_ = 0;
      close_batch();
    });
  }
}

void total_order::close_batch() {
  // Quiesced for a view change: hold the batch. Nothing in it reached the
  // wire, so install_view() rolls it back cleanly and the post-install
  // rescan re-issues the keys under the new view.
  if (quiesced_) return;
  if (batch_keys_.empty()) return;
  if (batch_timer_ != 0) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
  assignment_batch b;
  b.base = next_assign_;
  next_assign_ += batch_keys_.size();
  b.keys.swap(batch_keys_);
  // The assignments take effect only when the record returns through the
  // sequencer's own reliable stream (self-delivery): everyone, the
  // sequencer included, orders from wire-visible assignments, which keeps
  // view-change flushes consistent.
  if (send_batch_) send_batch_(encode_assignment_batch(b));
}

void total_order::rollback_unflushed() {
  // The open batch never reached the wire, so no survivor (this node
  // included) acted on it; the post-install rescan re-accumulates whatever
  // survived the cut.
  for (const msg_key& key : batch_keys_) assigned_.erase(key);
  batch_keys_.clear();
}

void total_order::post_install(const std::vector<node_id>& new_members) {
  (void)new_members;
  batch_keys_.clear();
  if (batch_timer_ != 0) {
    env_.cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
}

}  // namespace dbsm::gcs
