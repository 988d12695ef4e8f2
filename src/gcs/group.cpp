#include "gcs/group.hpp"

#include <algorithm>
#include <variant>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::gcs {

group::group(csrt::env& env, group_config cfg)
    : env_(env), cfg_(std::move(cfg)) {
  DBSM_CHECK(!cfg_.members.empty());
  std::sort(cfg_.members.begin(), cfg_.members.end());
  DBSM_CHECK_MSG(cfg_.max_fragment + 64 <= env_.max_datagram(),
                 "fragment size too large for the transport");

  view initial;
  initial.id = 1;
  initial.members = cfg_.members;

  fd_ = std::make_unique<failure_detector>(
      cfg_.members, env_.self(), cfg_.suspect_timeout, env_.now(),
      cfg_.heartbeat_period, cfg_.suspect_misses);

  membership::hooks h;
  h.stop_sends = [this] { rmcast_->stop_sending(); };
  h.quiesce_order = [this] { order_->quiesce(); };
  h.get_prefixes = [this] { return rmcast_->prefixes(); };
  h.ensure_cut = [this](std::vector<std::uint64_t> cut,
                        std::vector<node_id> sources,
                        std::function<void()> done) {
    rmcast_->ensure_up_to(std::move(cut), std::move(sources),
                          std::move(done));
  };
  h.cancel_flush = [this] { rmcast_->cancel_flush(); };
  h.install = [this](const view& v, const std::vector<node_id>& old_members,
                     const std::vector<std::uint64_t>& cut) {
    do_install(v, old_members, cut);
  };
  h.excluded = [this] {
    order_->halt_delivery();
    if (excluded_cb_) excluded_cb_();
  };
  h.send = [this](node_id to, util::shared_bytes raw) { send_ctl(to, raw); };
  h.mcast = [this](util::shared_bytes raw) { mcast_ctl(raw); };
  membership_ =
      std::make_unique<membership>(env_, cfg_, initial, std::move(h));

  build_stack(initial, 0);
  if (cfg_.enable_recovery) wire_recovery();
}

group::~group() {
  stopped_ = true;
  if (stab_timer_ != 0) env_.cancel_timer(stab_timer_);
  if (hb_timer_ != 0) env_.cancel_timer(hb_timer_);
}

void group::shutdown() {
  stopped_ = true;
  if (stab_timer_ != 0) {
    env_.cancel_timer(stab_timer_);
    stab_timer_ = 0;
  }
  if (hb_timer_ != 0) {
    env_.cancel_timer(hb_timer_);
    hb_timer_ = 0;
  }
}

void group::build_stack(const view& v, std::uint64_t delivered) {
  rmcast_ = std::make_unique<reliable_mcast>(env_, cfg_, v.members);
  rmcast_->set_view_id(v.id);
  // Streams restart from zero at every merge, so traffic of earlier
  // epochs must be rejected (the initial build keeps the permissive
  // historical behavior — nothing older than view 1 exists).
  if (v.id > 1) rmcast_->set_min_accept_view(v.id);
  rmcast_->set_app_handler([this](node_id sender, std::uint64_t app_seq,
                                  util::shared_bytes payload,
                                  std::uint64_t last_dgram) {
    on_app_msg(sender, app_seq, std::move(payload), last_dgram);
  });

  order_ = std::make_unique<total_order>(env_, cfg_);
  if (delivered > 0) order_->start_at(delivered + 1);
  order_->set_deliver([this](std::vector<delivery>&& run) {
    // Strip the kind byte; hand the user payloads up (and, when donating a
    // state transfer, forward them to the rejoining site).
    for (delivery& d : run) {
      d.payload = std::make_shared<util::bytes>(d.payload->begin() + 1,
                                                d.payload->end());
      if (recovery_)
        recovery_->on_local_deliver(d.sender, d.global_seq, d.payload);
    }
    if (deliver_) deliver_(std::move(run));
  });
  order_->set_send_batch([this](util::shared_bytes batch) {
    rmcast_->broadcast(wrap(kind_assignment_batch, batch));
  });
  order_->set_sequencer(v.sequencer());

  stability_ = std::make_unique<stability_tracker>(v.members, env_.self());
  reset_uniform();
}

void group::reset_uniform() {
  // A view install (or stack rebuild) makes the agreed cut itself uniform:
  // the flush consensus guarantees every member of the new view delivered
  // exactly this prefix. Samples of the old streams are meaningless
  // against the new stability vector, so the ring restarts empty.
  uniform_ring_.clear();
  uniform_ = order_ ? order_->delivered() : 0;
}

void group::advance_uniform() {
  const std::vector<std::uint64_t>& stable = stability_->stable();
  while (!uniform_ring_.empty()) {
    const uniform_sample& s = uniform_ring_.front();
    if (s.prefixes.size() != stable.size()) {
      uniform_ring_.pop_front();  // sampled against an older member list
      continue;
    }
    bool covered = true;
    for (std::size_t i = 0; i < stable.size(); ++i)
      if (stable[i] < s.prefixes[i]) {
        covered = false;
        break;
      }
    if (!covered) break;
    if (s.delivered > uniform_) uniform_ = s.delivered;
    uniform_ring_.pop_front();
  }
}

void group::wire_recovery() {
  recovery::hooks rh;
  rh.take_snapshot = [this](node_id joiner) {
    DBSM_CHECK_MSG(xfer_.take_snapshot, "state transfer hooks not wired");
    return xfer_.take_snapshot(joiner);
  };
  rh.install_snapshot = [this](util::shared_bytes blob) {
    DBSM_CHECK_MSG(xfer_.install_snapshot, "state transfer hooks not wired");
    xfer_.install_snapshot(std::move(blob));
  };
  rh.replay = [this](node_id sender, std::uint64_t seq,
                     util::shared_bytes payload) {
    if (!deliver_) return;
    std::vector<delivery> one;
    one.push_back({sender, seq, std::move(payload)});
    deliver_(std::move(one));
  };
  rh.delivered = [this] { return order_->delivered(); };
  rh.is_coordinator = [this] {
    if (membership_->excluded()) return false;  // stalled: may not donate
    const view& v = membership_->current();
    return !v.members.empty() && v.members.front() == env_.self();
  };
  rh.membership_changing = [this] { return membership_->changing(); };
  rh.admit = [this](node_id joiner) { membership_->admit(joiner); };
  rh.install_merged = [this](const view& v, std::uint64_t delivered) {
    install_merged(v, delivered);
  };
  rh.send = [this](node_id to, util::shared_bytes raw) {
    send_ctl(to, std::move(raw));
  };
  rh.mcast = [this](util::shared_bytes raw) { env_.multicast(std::move(raw)); };
  recovery_ = std::make_unique<recovery>(env_, cfg_, std::move(rh));
}

util::shared_bytes group::wrap(std::uint8_t kind,
                               const util::shared_bytes& payload) {
  util::buffer_writer w(1 + payload->size());
  w.put_u8(kind);
  w.put_bytes(payload->data(), payload->size());
  return w.take();
}

void group::start() {
  DBSM_CHECK(!started_);
  started_ = true;
  env_.set_handler([this](node_id from, util::shared_bytes raw) {
    dispatch(from, std::move(raw));
  });
  env_.post([this] {
    stability_tick();
    heartbeat_tick();
  });
}

void group::start_joining() {
  DBSM_CHECK(!started_);
  DBSM_CHECK_MSG(cfg_.enable_recovery && recovery_,
                 "start_joining() requires enable_recovery");
  started_ = true;
  joining_ = true;
  env_.set_handler([this](node_id from, util::shared_bytes raw) {
    dispatch(from, std::move(raw));
  });
  env_.post([this] {
    if (!stopped_) recovery_->begin_join();
  });
}

void group::install_merged(const view& v, std::uint64_t delivered) {
  DBSM_CHECK(joining_);
  joining_ = false;
  membership_->force_view(v);
  build_stack(v, delivered);
  fd_->reset(v.members, env_.now());
  // Live from here on: gossip and heartbeats run like any member's.
  stability_tick();
  heartbeat_tick();
  if (view_cb_) view_cb_(v);
  if (joined_cb_) joined_cb_(v);
}

void group::submit(util::shared_bytes payload) {
  env_.post([this, payload = std::move(payload)]() mutable {
    broadcast(std::move(payload));
  });
}

void group::broadcast(util::shared_bytes payload) {
  DBSM_CHECK(payload != nullptr);
  rmcast_->broadcast(wrap(kind_user, payload));
}

void group::on_app_msg(node_id sender, std::uint64_t app_seq,
                       util::shared_bytes payload, std::uint64_t last_dgram) {
  DBSM_CHECK(!payload->empty());
  const std::uint8_t kind = (*payload)[0];
  switch (kind) {
    case kind_user:
      order_->on_user_msg(sender, app_seq, std::move(payload), last_dgram);
      break;
    case kind_assignment_batch: {
      auto body = std::make_shared<util::bytes>(payload->begin() + 1,
                                                payload->end());
      order_->on_assignment_batch(body);
      break;
    }
    default:
      DBSM_CHECK_MSG(false, "unknown app message kind "
                                << static_cast<int>(kind));
  }
}

void group::dispatch(node_id from, util::shared_bytes raw) {
  (void)from;
  if (stopped_) return;
  env_.charge(cfg_.handler_cpu_cost);
  // Decode first and handle after: a datagram that does not decode is
  // dropped and counted, while an invariant failure inside a handler still
  // stops the run.
  message msg;
  try {
    msg = decode(raw);
  } catch (const invariant_violation&) {
    ++malformed_dropped_;
    return;
  }
  const header& hdr =
      std::visit([](const auto& m) -> const header& { return m.hdr; }, msg);
  if (joining_) {
    // A recovering site runs nothing but the join protocol: the rest of
    // the stack is rebuilt when the merged view installs.
    switch (hdr.type) {
      case msg_type::join_chunk:
        recovery_->on_chunk(std::get<join_chunk_msg>(msg));
        break;
      case msg_type::join_fwd:
        recovery_->on_fwd(std::get<join_fwd_msg>(msg));
        break;
      case msg_type::join_commit:
        recovery_->on_commit(std::get<join_commit_msg>(msg));
        break;
      default:
        break;
    }
    return;
  }
  // A header from a view we never installed means we missed the install
  // that voted us out (see membership::on_foreign_view) — e.g. it was
  // multicast while a partition cut us off. Discovering it here halts
  // delivery instead of letting the node ride (or extend) a dead branch.
  membership_->on_foreign_view(hdr.view_id);
  fd_->heard_from(hdr.sender, env_.now());
  switch (hdr.type) {
    case msg_type::data:
      rmcast_->on_data(std::get<data_msg>(msg), raw);
      break;
    case msg_type::nak:
      rmcast_->on_nak(std::get<nak_msg>(msg));
      break;
    case msg_type::stab: {
      const stab_msg& m = std::get<stab_msg>(msg);
      // Only merge gossip from the same view (vector layout must match).
      if (m.hdr.view_id == membership_->current().id &&
          m.stable.size() == stability_->members().size()) {
        if (stability_->merge(m)) {
          rmcast_->collect_garbage(stability_->stable());
          advance_uniform();
        }
      }
      break;
    }
    case msg_type::heartbeat: {
      // Liveness already recorded; in recovery mode the heartbeat also
      // advertises the sender's stream high water, exposing datagram gaps
      // that no later traffic would reveal (a rejoined member's blind
      // spot between the members' install and its own).
      const heartbeat_msg& hb = std::get<heartbeat_msg>(msg);
      if (cfg_.enable_recovery && hb.sent_high &&
          hb.hdr.view_id == membership_->current().id)
        rmcast_->note_sender_high(hb.hdr.sender, *hb.sent_high);
      break;
    }
    case msg_type::view_propose:
      membership_->on_propose(std::get<view_propose_msg>(msg));
      break;
    case msg_type::view_state:
      membership_->on_state(std::get<view_state_msg>(msg));
      break;
    case msg_type::view_cut:
      membership_->on_cut(std::get<view_cut_msg>(msg));
      break;
    case msg_type::view_flush_ok:
      membership_->on_flush_ok(std::get<view_flush_ok_msg>(msg));
      break;
    case msg_type::view_install:
      membership_->on_install(std::get<view_install_msg>(msg));
      break;
    case msg_type::join_request:
      if (recovery_)
        recovery_->on_join_request(std::get<join_request_msg>(msg));
      break;
    case msg_type::join_chunk_ack:
      if (recovery_)
        recovery_->on_chunk_ack(std::get<join_chunk_ack_msg>(msg));
      break;
    case msg_type::join_fwd_ack:
      if (recovery_) recovery_->on_fwd_ack(std::get<join_fwd_ack_msg>(msg));
      break;
    case msg_type::join_done:
      if (recovery_) recovery_->on_done(std::get<join_done_msg>(msg));
      break;
    case msg_type::join_chunk:
    case msg_type::join_fwd:
    case msg_type::join_commit:
      break;  // stale join traffic to a live member
  }
}

void group::stability_tick() {
  if (stopped_) return;
  stability_->set_local_prefixes(rmcast_->prefixes());
  // Snapshot (delivered, prefixes) for the uniform watermark: once a
  // future stability round covers these prefixes at every member, the
  // deliveries counted here are agreed. A sample that cannot move the
  // watermark — delivery hasn't advanced past the watermark, or past the
  // previous sample (which carries lower-or-equal prefixes, i.e. covers
  // first) — is skipped.
  const std::uint64_t delivered = order_->delivered();
  const bool redundant =
      delivered <= uniform_ ||
      (!uniform_ring_.empty() &&
       uniform_ring_.back().delivered == delivered);
  if (!redundant)
    uniform_ring_.push_back({delivered, rmcast_->prefixes()});
  const stab_msg gossip =
      stability_->make_gossip(membership_->current().id);
  env_.multicast(encode(gossip));
  stab_timer_ =
      env_.set_timer(cfg_.stability_period, [this] { stability_tick(); });
}

void group::heartbeat_tick() {
  if (stopped_) return;
  heartbeat_msg hb;
  hb.hdr = {msg_type::heartbeat, membership_->current().id, env_.self()};
  if (cfg_.enable_recovery) hb.sent_high = rmcast_->sent_high();
  env_.multicast(encode(hb));
  // Failure detection shares the heartbeat cadence.
  fd_->tick(env_.now());
  for (node_id s : fd_->suspects(env_.now())) {
    membership_->suspect(s);
    if (suspicion_cb_) suspicion_cb_(s);
  }
  hb_timer_ =
      env_.set_timer(cfg_.heartbeat_period, [this] { heartbeat_tick(); });
}

void group::send_ctl(node_id to, util::shared_bytes raw) {
  if (to == env_.self()) {
    dispatch(to, std::move(raw));
    return;
  }
  env_.send(to, std::move(raw));
}

void group::mcast_ctl(util::shared_bytes raw) {
  env_.multicast(raw);
  dispatch(env_.self(), std::move(raw));  // self-delivery of control plane
}

void group::do_install(const view& v,
                       const std::vector<node_id>& old_members,
                       const std::vector<std::uint64_t>& cut) {
  bool merge = false;
  for (node_id n : v.members)
    if (std::find(old_members.begin(), old_members.end(), n) ==
        old_members.end())
      merge = true;

  if (merge) {
    // View merge (a site rejoined): deliver the flushed backlog exactly as
    // every member does, then restart every stream from zero — the joiner
    // cannot hold the old epoch's datagram history, so the whole group
    // begins a fresh one at the agreed position. Messages this node
    // accepted but never flushed to the others are re-broadcast through
    // the fresh streams; the rebuild itself is deferred one job because
    // the install can be reached from inside an rmcast frame.
    order_->install_view(old_members, cut, v.members);
    const std::uint64_t delivered = order_->delivered();
    const auto self_it =
        std::find(old_members.begin(), old_members.end(), env_.self());
    std::uint64_t cut_self = 0;
    if (self_it != old_members.end())
      cut_self = cut[static_cast<std::size_t>(self_it - old_members.begin())];
    std::vector<util::shared_bytes> resend =
        rmcast_->unflushed_app_msgs(cut_self);
    env_.post([this, v, delivered, resend = std::move(resend)]() mutable {
      if (stopped_) return;
      rebuild_for_merge(v, delivered, std::move(resend));
    });
    return;
  }

  // Truncate reliable-multicast state of failed senders.
  rmcast_->install_view(v.members);
  rmcast_->set_view_id(v.id);

  // Deterministic delivery of the flushed backlog.
  order_->install_view(old_members, cut, v.members);

  // Everything up to the cut is at every survivor: it is stable by
  // definition of the flush. Seed the new stability tracker with it.
  std::vector<std::uint64_t> stable_init(v.members.size(), 0);
  for (std::size_t i = 0; i < v.members.size(); ++i) {
    const auto it =
        std::find(old_members.begin(), old_members.end(), v.members[i]);
    if (it != old_members.end())
      stable_init[i] = cut[static_cast<std::size_t>(it - old_members.begin())];
  }
  stability_ = std::make_unique<stability_tracker>(v.members, env_.self(),
                                                   stable_init);
  reset_uniform();
  rmcast_->collect_garbage(stable_init);
  fd_->reset(v.members, env_.now());
  rmcast_->resume_sending();
  if (view_cb_) view_cb_(v);
  // The sequencer role comes last: a new sequencer's first record is
  // self-delivered at once, and it orders messages sent after the cut, so
  // it must not land before the view handler has seen delivery stand
  // exactly at the cut.
  order_->set_sequencer(v.sequencer());
}

void group::rebuild_for_merge(const view& v, std::uint64_t delivered,
                              std::vector<util::shared_bytes> resend) {
  build_stack(v, delivered);
  fd_->reset(v.members, env_.now());
  if (recovery_) recovery_->on_view_installed(v, delivered);
  if (view_cb_) view_cb_(v);
  // The salvaged payloads are already wrapped; re-inject only user
  // messages — assignment batches of the dead epoch would poison the
  // fresh sequencer state.
  for (auto& payload : resend) {
    if (!payload->empty() && (*payload)[0] == kind_user)
      rmcast_->broadcast(std::move(payload));
  }
}

const view& group::current_view() const { return membership_->current(); }

bool group::am_sequencer() const {
  return current_view().sequencer() == env_.self();
}

const reliable_mcast::stats& group::rmcast_stats() const {
  return rmcast_->get_stats();
}

std::uint64_t group::stability_rounds() const {
  return stability_->rounds_completed();
}

std::uint64_t group::view_changes() const {
  return membership_->view_changes();
}

std::uint64_t group::delivered_count() const { return order_->delivered(); }

std::size_t group::quota_used() const { return rmcast_->quota_used(); }

bool group::send_blocked() const { return rmcast_->blocked(); }

std::uint64_t group::joins_served() const {
  return recovery_ ? recovery_->joins_served() : 0;
}

std::uint64_t group::join_snapshot_bytes() const {
  return recovery_ ? recovery_->snapshot_bytes_donated() : 0;
}

std::uint64_t group::join_chunk_bytes() const {
  return recovery_ ? recovery_->chunk_bytes_sent() : 0;
}

}  // namespace dbsm::gcs
