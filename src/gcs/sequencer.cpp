#include "gcs/sequencer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dbsm::gcs {

util::shared_bytes encode_assignment_batch(const assignment_batch& b) {
  util::buffer_writer w(10 + 12 * b.keys.size());
  w.put_u64(b.base);
  w.put_u16(static_cast<std::uint16_t>(b.keys.size()));
  for (const auto& [sender, app_seq] : b.keys) {
    w.put_u32(sender);
    w.put_u64(app_seq);
  }
  return w.take();
}

assignment_batch decode_assignment_batch(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  assignment_batch b;
  b.base = r.get_u64();
  const std::uint16_t n = r.get_u16();
  b.keys.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    const node_id sender = r.get_u32();
    const std::uint64_t app_seq = r.get_u64();
    b.keys.emplace_back(sender, app_seq);
  }
  return b;
}

total_order::total_order(csrt::env& env, const group_config& cfg)
    : env_(env), cfg_(cfg) {}

total_order::~total_order() { cancel_batch_timer(); }

void total_order::start_at(std::uint64_t next) {
  DBSM_CHECK(complete_.empty() && order_.empty() && assigned_.empty());
  DBSM_CHECK(next >= 1);
  next_deliver_ = next;
  next_assign_ = next;
}

void total_order::set_sequencer(node_id sequencer) {
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

void total_order::on_user_msg(node_id sender, std::uint64_t app_seq,
                              util::shared_bytes payload,
                              std::uint64_t last_dgram) {
  const msg_key key{sender, app_seq};
  complete_.emplace(key, pending_msg{std::move(payload), last_dgram});
  if (!quiesced_ && am_sequencer_) maybe_assign(sender, app_seq);
  try_deliver();
}

void total_order::on_assignment_batch(const util::shared_bytes& raw) {
  const assignment_batch b = decode_assignment_batch(raw);
  std::uint64_t seq = b.base;
  for (const auto& [sender, app_seq] : b.keys) {
    const msg_key key{sender, app_seq};
    order_.emplace(seq, key);
    assigned_.insert(key);
    ++seq;
  }
  if (seq > next_assign_) next_assign_ = seq;
  try_deliver();
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
  cancel_batch_timer();
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

void total_order::cancel_batch_timer() {
  if (batch_timer_ == 0) return;
  env_.cancel_timer(batch_timer_);
  batch_timer_ = 0;
}

void total_order::try_deliver() {
  if (halted_) return;
  // Hand the whole contiguous deliverable run out in one callback. Run
  // boundaries differ per site with arrival timing; the per-payload state
  // transitions do not, so decisions downstream cannot depend on them
  // (only amortized CPU does).
  std::vector<delivery> run;
  auto it = order_.find(next_deliver_);
  while (it != order_.end()) {
    auto mit = complete_.find(it->second);
    if (mit == complete_.end()) break;  // payload not yet received
    const msg_key key = it->second;
    pending_msg msg = std::move(mit->second);
    complete_.erase(mit);
    order_.erase(it);
    assigned_.erase(key);
    run.push_back({key.first, next_deliver_++, std::move(msg.payload)});
    it = order_.find(next_deliver_);
  }
  if (!run.empty() && deliver_) deliver_(std::move(run));
}

void total_order::install_view(const std::vector<node_id>& old_members,
                               const std::vector<std::uint64_t>& cut,
                               const std::vector<node_id>& new_members) {
  DBSM_CHECK(old_members.size() == cut.size());
  quiesced_ = false;  // the flush is over; ordering resumes in the new view
  // Roll back the open batch: it never reached the wire, so no survivor
  // (this node included) acted on it. The new view's sequencer rescan
  // re-accumulates whatever survives the cut.
  for (const msg_key& key : batch_keys_) assigned_.erase(key);
  batch_keys_.clear();
  cancel_batch_timer();
  auto cut_of = [&](node_id n) -> std::uint64_t {
    const auto it = std::find(old_members.begin(), old_members.end(), n);
    if (it == old_members.end()) return 0;
    return cut[static_cast<std::size_t>(it - old_members.begin())];
  };
  auto survives = [&](node_id n) {
    return std::binary_search(new_members.begin(), new_members.end(), n);
  };

  // 1. Drop messages of failed senders beyond the cut (no survivor holds
  //    their remaining fragments).
  for (auto it = complete_.begin(); it != complete_.end();) {
    const node_id sender = it->first.first;
    if (!survives(sender) && it->second.last_dgram > cut_of(sender)) {
      assigned_.erase(it->first);
      it = complete_.erase(it);
    } else {
      ++it;
    }
  }

  // 2. Walk the assignment sequence; deliver what survives, skip orphaned
  //    assignments. Every survivor has the same state, so this is
  //    deterministic and identical group-wide. The whole backlog goes out
  //    as one run.
  std::vector<delivery> backlog;
  std::uint64_t last_assigned = next_assign_ - 1;
  for (auto it = order_.begin(); it != order_.end();) {
    auto mit = complete_.find(it->second);
    if (mit != complete_.end()) {
      pending_msg msg = std::move(mit->second);
      const msg_key key = it->second;
      complete_.erase(mit);
      assigned_.erase(key);
      last_assigned = std::max(last_assigned, it->first);
      it = order_.erase(it);
      backlog.push_back({key.first, next_deliver_++, std::move(msg.payload)});
    } else {
      // Orphan: assigned by a crashed sequencer to a message nobody holds.
      last_assigned = std::max(last_assigned, it->first);
      assigned_.erase(it->second);
      it = order_.erase(it);
    }
  }

  // 3. Deliver remaining complete-but-unassigned messages within the cut
  //    in deterministic (sender, app_seq) order.
  for (auto it = complete_.begin(); it != complete_.end();) {
    if (it->second.last_dgram <= cut_of(it->first.first)) {
      const msg_key key = it->first;
      pending_msg msg = std::move(it->second);
      it = complete_.erase(it);
      backlog.push_back({key.first, next_deliver_++, std::move(msg.payload)});
    } else {
      ++it;
    }
  }
  if (!backlog.empty() && deliver_) deliver_(std::move(backlog));

  // Renumber: the new sequencer continues after everything delivered.
  next_assign_ = std::max(last_assigned + 1, next_deliver_);
}

}  // namespace dbsm::gcs
