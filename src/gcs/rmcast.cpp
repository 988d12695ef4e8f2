#include "gcs/rmcast.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::gcs {

namespace {

// NAKs back off exponentially up to this interval while a gap persists.
constexpr sim_duration nak_backoff_max = milliseconds(100);
// Most sequence numbers one NAK asks for.
constexpr std::size_t nak_batch = 64;
// Rate-based flow control of the dissemination phase.
constexpr double send_rate_bytes_per_s = 8e6;
constexpr std::size_t send_burst_bytes = 32 * 1024;

constexpr std::size_t max_fragment = reliable_mcast::max_fragment;

std::size_t fragment_count(std::size_t bytes) {
  return bytes == 0 ? 1 : (bytes + max_fragment - 1) / max_fragment;
}

/// Bytes in fragment `idx` of an application message of `bytes` bytes.
std::size_t fragment_size(std::size_t bytes, std::size_t idx) {
  return std::min(max_fragment, bytes - idx * max_fragment);
}

}  // namespace

reliable_mcast::reliable_mcast(csrt::env& env, group_config cfg,
                               std::vector<node_id> members)
    : env_(env), cfg_(std::move(cfg)), members_(std::move(members)),
      bucket_(send_rate_bytes_per_s, send_burst_bytes),
      quota_(std::max<std::size_t>(
                 1, cfg_.total_buffer_msgs /
                        std::max<std::size_t>(1, members_.size())),
             std::max<std::size_t>(
                 1, cfg_.total_buffer_bytes /
                        std::max<std::size_t>(1, members_.size()))) {
  DBSM_CHECK(std::is_sorted(members_.begin(), members_.end()));
  for (node_id m : members_)
    if (m != env_.self()) senders_.emplace(m, sender_state{});
}

reliable_mcast::~reliable_mcast() {
  // The stack can be torn down mid-run (site restart, view-merge rebuild):
  // every armed timer holds a callback into this object and must die first.
  if (rate_timer_ != 0) env_.cancel_timer(rate_timer_);
  if (flush_timer_ != 0) env_.cancel_timer(flush_timer_);
  for (auto& [sender, st] : senders_)
    if (st.nak_timer != 0) env_.cancel_timer(st.nak_timer);
}

void reliable_mcast::note_sender_high(node_id sender, std::uint64_t high) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) return;
  sender_state& st = sit->second;
  if (high <= st.max_seen) return;
  st.max_seen = high;
  if (st.prefix < st.max_seen) arm_nak(sender, st);
}

std::vector<util::shared_bytes> reliable_mcast::unflushed_app_msgs(
    std::uint64_t cut_self) const {
  // A message whose last datagram lies past the cut has its datagrams
  // past the cut still unstable: walk them, one payload per message.
  std::vector<util::shared_bytes> out;
  std::uint64_t last_app_seq = 0;
  for (std::uint64_t seq = std::max(send_base(), cut_self + 1);
       seq <= my_dgram_seq_; ++seq) {
    const out_entry& e = send_buffer_[seq - send_base()];
    if (e.app_seq == last_app_seq) continue;
    last_app_seq = e.app_seq;
    out.push_back(e.app);
  }
  return out;
}

reliable_mcast::out_entry* reliable_mcast::own_entry(std::uint64_t seq) {
  if (seq < send_base() || seq > my_dgram_seq_) return nullptr;
  return &send_buffer_[seq - send_base()];
}

util::shared_bytes reliable_mcast::encode_entry(std::uint64_t seq,
                                                const out_entry& e) const {
  data_msg m;
  m.hdr = {msg_type::data, e.view_id, env_.self()};
  m.dgram_seq = seq;
  m.app_seq = e.app_seq;
  m.frag_idx = e.frag_idx;
  m.frag_cnt = static_cast<std::uint16_t>(fragment_count(e.app->size()));
  if (m.frag_cnt == 1) {
    m.payload = e.app;  // the whole message: no fragment copy
  } else {
    util::buffer_reader r(e.app);
    r.skip(e.frag_idx * max_fragment);
    m.payload = r.get_buffer(fragment_size(e.app->size(), e.frag_idx));
  }
  return encode(m);
}

std::size_t reliable_mcast::member_index(node_id n) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), n);
  DBSM_CHECK_MSG(it != members_.end() && *it == n, "unknown member " << n);
  return static_cast<std::size_t>(it - members_.begin());
}

void reliable_mcast::broadcast(util::shared_bytes payload) {
  DBSM_CHECK(payload != nullptr);
  const std::size_t count = fragment_count(payload->size());
  DBSM_CHECK_MSG(count <= 0xffff, "app message too large");

  const std::uint64_t app_seq = ++my_app_seq_;
  for (std::size_t i = 0; i < count; ++i) {
    send_buffer_.push_back(
        {payload, app_seq, view_id_, static_cast<std::uint16_t>(i), nullptr});
  }
  my_dgram_seq_ += count;
  ++stats_.app_msgs_sent;
  // Local copy delivered immediately (the transport does not loop back).
  ++stats_.app_msgs_delivered;
  if (app_handler_)
    app_handler_(env_.self(), app_seq, std::move(payload), my_dgram_seq_);
  pump_tx();
}

void reliable_mcast::pump_tx() {
  while (sending_allowed_ && next_tx_ <= my_dgram_seq_) {
    out_entry* e = own_entry(next_tx_);
    if (e == nullptr || e->raw != nullptr) {
      // Already stable (single-member group) or force-sent during a flush.
      ++next_tx_;
      continue;
    }
    const std::size_t bytes =
        data_msg_size(fragment_size(e->app->size(), e->frag_idx));
    if (!quota_.fits(bytes)) {
      // Window flow control: the share of the group buffer is exhausted;
      // block until stability detection garbage-collects (§5.3).
      if (!blocked_) {
        blocked_ = true;
        blocked_since_ = env_.now();
        ++stats_.blocked_episodes;
      }
      return;
    }
    if (!bucket_.try_consume(env_.now(), bytes)) {
      // Rate-based flow control: try again when tokens accumulate.
      if (rate_timer_ == 0) {
        const sim_duration wait = bucket_.wait_time(env_.now(), bytes);
        rate_timer_ = env_.set_timer(wait, [this] {
          rate_timer_ = 0;
          pump_tx();
          pump_retx();
        });
      }
      return;
    }
    if (blocked_) {
      blocked_ = false;
      stats_.blocked_time += env_.now() - blocked_since_;
    }
    e->raw = encode_entry(next_tx_, *e);
    quota_.add(bytes);
    ++next_tx_;
    ++stats_.dgrams_sent;
    env_.multicast(e->raw);
  }
  if (blocked_ && next_tx_ > my_dgram_seq_) {
    blocked_ = false;
    stats_.blocked_time += env_.now() - blocked_since_;
  }
}

void reliable_mcast::pump_retx() {
  while (!retx_queue_.empty()) {
    const auto& [dest, raw] = retx_queue_.front();
    if (!bucket_.try_consume(env_.now(), raw->size())) {
      if (rate_timer_ == 0) {
        const sim_duration wait = bucket_.wait_time(env_.now(), raw->size());
        rate_timer_ = env_.set_timer(wait, [this] {
          rate_timer_ = 0;
          pump_retx();
          pump_tx();
        });
      }
      return;
    }
    ++stats_.retransmissions;
    env_.send(dest, raw);
    retx_queue_.pop_front();
  }
}

void reliable_mcast::on_data(const data_msg& m, const util::shared_bytes& raw) {
  const node_id sender = m.hdr.sender;
  if (sender == env_.self()) return;  // own datagram echoed back
  if (m.hdr.view_id < min_accept_view_) return;  // pre-merge epoch
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) return;  // not (or no longer) a member
  sender_state& st = sit->second;

  if (m.dgram_seq <= st.prefix || st.ooo.count(m.dgram_seq)) {
    ++stats_.duplicates;
    return;
  }
  st.retention.emplace(m.dgram_seq, raw);
  st.ooo.emplace(m.dgram_seq, m);
  st.max_seen = std::max(st.max_seen, m.dgram_seq);
  advance_prefix(sender, st);

  if (st.prefix < st.max_seen) {
    arm_nak(sender, st);
  } else if (st.nak_timer != 0) {
    env_.cancel_timer(st.nak_timer);
    st.nak_timer = 0;
    st.nak_interval = 0;
  }
  if (flushing_) check_flush_done();
}

void reliable_mcast::advance_prefix(node_id sender, sender_state& st) {
  auto next = st.ooo.find(st.prefix + 1);
  while (next != st.ooo.end()) {
    data_msg m = std::move(next->second);
    st.ooo.erase(next);
    ++st.prefix;
    deliver_fragment(sender, st, m);
    next = st.ooo.find(st.prefix + 1);
  }
}

void reliable_mcast::deliver_fragment(node_id sender, sender_state& st,
                                      const data_msg& m) {
  if (m.frag_cnt == 1) {
    DBSM_CHECK(st.partial.empty());
    ++stats_.app_msgs_delivered;
    if (app_handler_) app_handler_(sender, m.app_seq, m.payload, m.dgram_seq);
    return;
  }
  if (m.frag_idx == 0) {
    DBSM_CHECK_MSG(st.partial.empty(),
                   "fragment interleaving from sender " << sender);
    st.partial_app_seq = m.app_seq;
  } else {
    DBSM_CHECK(st.partial_app_seq == m.app_seq);
    DBSM_CHECK(st.partial.size() == m.frag_idx);
  }
  st.partial.push_back(m.payload);
  if (st.partial.size() == m.frag_cnt) {
    util::shared_bytes whole = util::concat(st.partial);
    st.partial.clear();
    ++stats_.app_msgs_delivered;
    if (app_handler_) app_handler_(sender, m.app_seq, whole, m.dgram_seq);
  }
}

void reliable_mcast::arm_nak(node_id sender, sender_state& st) {
  if (st.nak_timer != 0) return;  // already pending
  if (st.nak_interval == 0) st.nak_interval = cfg_.nak_delay;
  st.nak_timer = env_.set_timer(st.nak_interval,
                                [this, sender] { nak_fire(sender); });
}

void reliable_mcast::nak_fire(node_id sender) {
  auto sit = senders_.find(sender);
  if (sit == senders_.end()) return;
  sender_state& st = sit->second;
  st.nak_timer = 0;
  if (st.prefix >= st.max_seen) {
    st.nak_interval = 0;
    return;  // gap closed meanwhile
  }
  nak_msg nak;
  nak.hdr = {msg_type::nak, view_id_, env_.self()};
  nak.target_sender = sender;
  for (std::uint64_t s = st.prefix + 1;
       s <= st.max_seen && nak.missing.size() < nak_batch; ++s) {
    if (!st.ooo.count(s)) nak.missing.push_back(s);
  }
  if (!nak.missing.empty()) {
    ++stats_.naks_sent;
    env_.send(sender, encode(nak));
  }
  // Exponential backoff while the gap persists.
  st.nak_interval = std::min(st.nak_interval * 2, nak_backoff_max);
  st.nak_timer = env_.set_timer(st.nak_interval,
                                [this, sender] { nak_fire(sender); });
}

void reliable_mcast::on_nak(const nak_msg& m) {
  const node_id requester = m.hdr.sender;
  if (m.hdr.view_id < min_accept_view_) return;  // pre-merge epoch
  if (m.target_sender == env_.self()) {
    for (std::uint64_t seq : m.missing) {
      out_entry* e = own_entry(seq);
      if (e == nullptr) continue;
      if (e->raw == nullptr) {
        // View-change flush can legitimately request datagrams still queued
        // behind flow control (the cut covers everything assigned): force
        // them out, accounting the quota so garbage collection balances.
        e->raw = encode_entry(seq, *e);
        quota_.add(e->raw->size());
      }
      retx_queue_.emplace_back(requester, e->raw);
    }
  } else {
    // Flush-time forwarding: serve another sender's datagrams from the
    // retention buffer.
    auto sit = senders_.find(m.target_sender);
    if (sit == senders_.end()) return;
    for (std::uint64_t seq : m.missing) {
      auto it = sit->second.retention.find(seq);
      if (it == sit->second.retention.end()) continue;
      retx_queue_.emplace_back(requester, it->second);
    }
  }
  pump_retx();
}

std::vector<std::uint64_t> reliable_mcast::prefixes() const {
  std::vector<std::uint64_t> out(members_.size(), 0);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const node_id m = members_[i];
    if (m == env_.self()) {
      out[i] = my_dgram_seq_;
    } else {
      auto it = senders_.find(m);
      out[i] = it == senders_.end() ? 0 : it->second.prefix;
    }
  }
  return out;
}

void reliable_mcast::collect_garbage(
    const std::vector<std::uint64_t>& stable) {
  DBSM_CHECK(stable.size() == members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const node_id m = members_[i];
    if (m == env_.self()) {
      while (!send_buffer_.empty() && send_base() <= stable[i]) {
        const out_entry& e = send_buffer_.front();
        if (e.raw != nullptr) quota_.remove(e.raw->size());
        send_buffer_.pop_front();
      }
    } else {
      auto sit = senders_.find(m);
      if (sit == senders_.end()) continue;
      auto& retention = sit->second.retention;
      auto it = retention.begin();
      while (it != retention.end() && it->first <= stable[i])
        it = retention.erase(it);
    }
  }
  pump_tx();  // freed quota may unblock transmission
}

void reliable_mcast::stop_sending() { sending_allowed_ = false; }

void reliable_mcast::resume_sending() {
  sending_allowed_ = true;
  pump_tx();
}

void reliable_mcast::ensure_up_to(std::vector<std::uint64_t> cut,
                                  std::vector<node_id> sources,
                                  std::function<void()> done) {
  DBSM_CHECK(cut.size() == members_.size());
  flushing_ = true;
  flush_cut_ = std::move(cut);
  flush_sources_ = std::move(sources);
  flush_old_members_ = members_;
  flush_done_ = std::move(done);
  flush_fire();
}

void reliable_mcast::cancel_flush() {
  flushing_ = false;
  flush_done_ = nullptr;
  if (flush_timer_ != 0) {
    env_.cancel_timer(flush_timer_);
    flush_timer_ = 0;
  }
}

void reliable_mcast::flush_fire() {
  if (!flushing_) return;
  check_flush_done();
  if (!flushing_) return;
  // Request everything still missing below the cut from the agreed source.
  for (std::size_t i = 0; i < flush_old_members_.size(); ++i) {
    const node_id m = flush_old_members_[i];
    if (m == env_.self()) continue;
    auto sit = senders_.find(m);
    if (sit == senders_.end()) continue;
    sender_state& st = sit->second;
    if (st.prefix >= flush_cut_[i]) continue;
    nak_msg nak;
    nak.hdr = {msg_type::nak, view_id_, env_.self()};
    nak.target_sender = m;
    for (std::uint64_t s = st.prefix + 1;
         s <= flush_cut_[i] && nak.missing.size() < nak_batch; ++s) {
      if (!st.ooo.count(s)) nak.missing.push_back(s);
    }
    if (!nak.missing.empty()) {
      ++stats_.naks_sent;
      const node_id source =
          flush_sources_[i] == env_.self() ? m : flush_sources_[i];
      env_.send(source, encode(nak));
    }
  }
  if (flush_timer_ != 0) env_.cancel_timer(flush_timer_);
  flush_timer_ =
      env_.set_timer(cfg_.nak_delay * 4, [this] { flush_fire(); });
}

void reliable_mcast::check_flush_done() {
  if (!flushing_) return;
  for (std::size_t i = 0; i < flush_old_members_.size(); ++i) {
    const node_id m = flush_old_members_[i];
    if (m == env_.self()) continue;
    auto sit = senders_.find(m);
    if (sit == senders_.end()) continue;
    if (sit->second.prefix < flush_cut_[i]) return;
  }
  flushing_ = false;
  if (flush_timer_ != 0) {
    env_.cancel_timer(flush_timer_);
    flush_timer_ = 0;
  }
  auto done = std::move(flush_done_);
  flush_done_ = nullptr;
  if (done) done();
}

void reliable_mcast::install_view(const std::vector<node_id>& new_members) {
  DBSM_CHECK(std::is_sorted(new_members.begin(), new_members.end()));
  // Drop state of removed senders; everything up to the cut was processed
  // during the flush, and nothing beyond the cut may survive.
  for (auto it = senders_.begin(); it != senders_.end();) {
    if (std::binary_search(new_members.begin(), new_members.end(),
                           it->first)) {
      ++it;
      continue;
    }
    sender_state& st = it->second;
    if (st.nak_timer != 0) env_.cancel_timer(st.nak_timer);
    it = senders_.erase(it);
  }
  members_ = new_members;
}

}  // namespace dbsm::gcs
