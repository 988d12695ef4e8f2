#include "gcs/ordering.hpp"

#include <algorithm>

#include "gcs/sequencer.hpp"
#include "gcs/token_order.hpp"
#include "util/check.hpp"

namespace dbsm::gcs {

const char* ordering_name(ordering_kind k) {
  switch (k) {
    case ordering_kind::fixed_sequencer:
      return "fixed_sequencer";
    case ordering_kind::rotating_token:
      return "rotating_token";
  }
  return "?";
}

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

ordering::ordering(csrt::env& env, const group_config& cfg)
    : env_(env), cfg_(cfg) {}

ordering::~ordering() = default;

void ordering::start_at(std::uint64_t next) {
  DBSM_CHECK(complete_.empty() && order_.empty() && assigned_.empty());
  DBSM_CHECK(next >= 1);
  next_deliver_ = next;
  next_assign_ = next;
}

void ordering::quiesce() { quiesced_ = true; }

void ordering::halt_delivery() { halted_ = true; }

void ordering::on_token(const token_msg&) {}

void ordering::on_user_msg(node_id sender, std::uint64_t app_seq,
                           util::shared_bytes payload,
                           std::uint64_t last_dgram) {
  const msg_key key{sender, app_seq};
  complete_.emplace(key, pending_msg{std::move(payload), last_dgram});
  if (!quiesced_) on_complete(sender, app_seq);
  try_deliver();
}

void ordering::on_assignment_batch(const util::shared_bytes& raw) {
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

void ordering::try_deliver() {
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

void ordering::install_view(const std::vector<node_id>& old_members,
                            const std::vector<std::uint64_t>& cut,
                            const std::vector<node_id>& new_members) {
  DBSM_CHECK(old_members.size() == cut.size());
  quiesced_ = false;  // the flush is over; ordering resumes in the new view
  // Roll back mint state that never reached the wire, so no survivor (this
  // node included) acted on it.
  rollback_unflushed();
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
      // Orphan: assigned by a crashed minter to a message nobody holds.
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

  // Renumber: the new minter continues after everything delivered.
  next_assign_ = std::max(last_assigned + 1, next_deliver_);
  post_install(new_members);
}

std::unique_ptr<ordering> make_ordering(csrt::env& env,
                                        const group_config& cfg) {
  switch (cfg.ordering) {
    case ordering_kind::fixed_sequencer:
      return std::make_unique<total_order>(env, cfg);
    case ordering_kind::rotating_token:
      return std::make_unique<token_order>(env, cfg);
  }
  DBSM_CHECK_MSG(false, "unknown ordering kind");
  return nullptr;
}

}  // namespace dbsm::gcs
