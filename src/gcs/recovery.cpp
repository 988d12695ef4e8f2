#include "gcs/recovery.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::gcs {

namespace {

// State-transfer chunk payload (must fit the transport datagram limit).
constexpr std::size_t join_chunk_bytes = 32 * 1024;
// Retransmission cadence of chunks, forwarded deliveries and the commit
// message; the joiner checks on its attempt at four times this.
constexpr sim_duration join_retry = milliseconds(40);
// A join attempt with no progress for this long is abandoned (donor side)
// or restarted with a fresh incarnation (joiner side): a second failure
// during transfer must not wedge either end.
constexpr sim_duration join_timeout = seconds(2);
// Forwarded-delivery window (go-back-N) during catch-up.
constexpr std::uint64_t join_fwd_window = 32;
// The donor asks membership to merge the joiner in once the joiner's
// replay lags the live delivery position by at most this much.
constexpr std::uint64_t join_merge_lag = 16;

}  // namespace

recovery::recovery(csrt::env& env, hooks h)
    : env_(env), hooks_(std::move(h)) {}

recovery::~recovery() {
  if (donor_timer_ != 0) env_.cancel_timer(donor_timer_);
  if (joiner_timer_ != 0) env_.cancel_timer(joiner_timer_);
}

// ------------------------------------------------------------- donor side

void recovery::on_join_request(const join_request_msg& m) {
  if (joining_) return;                 // a joiner cannot donate
  if (!hooks_.is_coordinator()) return; // only the primary's coordinator
  const node_id joiner = m.hdr.sender;
  if (donor_) {
    if (donor_->joiner != joiner) return;  // busy; that joiner keeps retrying
    if (m.incarnation == donor_->incarnation) {
      // Duplicate request (our last chunk may have been lost): nudge.
      if (donor_->ph == donor_state::phase::transfer)
        send_chunk(donor_->next_chunk);
      return;
    }
    if (m.incarnation < donor_->incarnation) return;  // stale attempt
    // The joiner restarted its attempt; drop ours and serve afresh.
  }
  donor_state d;
  d.joiner = joiner;
  d.incarnation = m.incarnation;
  // Snapshot atomically with the delivery position: both reads happen
  // between deliveries (one handler job), so the blob captures exactly
  // the state after delivery `snap_pos`.
  d.snap_pos = hooks_.delivered();
  d.blob = hooks_.take_snapshot(joiner);
  DBSM_CHECK(d.blob != nullptr);
  snapshot_bytes_donated_ += d.blob->size();
  d.chunks = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>((d.blob->size() + join_chunk_bytes - 1) /
                                    join_chunk_bytes));
  d.acked = d.snap_pos;
  d.last_progress = env_.now();
  donor_ = std::move(d);
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " donates state to joiner " << joiner
                   << " at position " << donor_->snap_pos << " ("
                   << donor_->blob->size() << " bytes, " << donor_->chunks
                   << " chunks)");
  send_chunk(0);
  arm_donor_tick();
}

void recovery::send_chunk(std::uint32_t idx) {
  DBSM_CHECK(donor_ && idx < donor_->chunks);
  const std::size_t lo = static_cast<std::size_t>(idx) * join_chunk_bytes;
  const std::size_t hi = std::min(donor_->blob->size(), lo + join_chunk_bytes);
  join_chunk_msg m;
  m.hdr = {msg_type::join_chunk, 0, env_.self()};
  m.incarnation = donor_->incarnation;
  m.snap_pos = donor_->snap_pos;
  m.chunk_idx = idx;
  m.chunk_cnt = donor_->chunks;
  util::buffer_reader r(donor_->blob);
  r.skip(lo);
  m.payload = r.get_buffer(hi - lo);
  chunk_bytes_sent_ += m.payload->size();
  hooks_.send(donor_->joiner, encode(m));
}

void recovery::on_chunk_ack(const join_chunk_ack_msg& m) {
  if (!donor_ || m.hdr.sender != donor_->joiner ||
      m.incarnation != donor_->incarnation)
    return;
  if (donor_->ph != donor_state::phase::transfer) return;
  if (m.chunk_idx != donor_->next_chunk) return;  // stale ack
  donor_->last_progress = env_.now();
  if (++donor_->next_chunk < donor_->chunks) {
    send_chunk(donor_->next_chunk);
    return;
  }
  donor_->ph = donor_state::phase::catchup;
  send_fwd_window();
}

void recovery::on_local_deliver(node_id sender, std::uint64_t global_seq,
                                util::shared_bytes payload) {
  if (!donor_) return;
  if (global_seq <= donor_->snap_pos) return;  // inside the snapshot
  if (donor_->ph == donor_state::phase::committing &&
      global_seq > donor_->commit_seq)
    return;  // new-epoch traffic the joiner receives as a member
  donor_->fwd.push_back({global_seq, sender, std::move(payload)});
  if (donor_->ph != donor_state::phase::transfer &&
      global_seq <= donor_->acked + join_fwd_window) {
    const fwd_entry& e = donor_->fwd.back();
    join_fwd_msg m;
    m.hdr = {msg_type::join_fwd, 0, env_.self()};
    m.incarnation = donor_->incarnation;
    m.global_seq = e.seq;
    m.orig_sender = e.sender;
    m.payload = e.payload;
    hooks_.send(donor_->joiner, encode(m));
  }
}

void recovery::send_fwd_window() {
  DBSM_CHECK(donor_.has_value());
  const std::uint64_t hi = donor_->acked + join_fwd_window;
  for (const fwd_entry& e : donor_->fwd) {
    if (e.seq <= donor_->acked) continue;
    if (e.seq > hi) break;
    join_fwd_msg m;
    m.hdr = {msg_type::join_fwd, 0, env_.self()};
    m.incarnation = donor_->incarnation;
    m.global_seq = e.seq;
    m.orig_sender = e.sender;
    m.payload = e.payload;
    hooks_.send(donor_->joiner, encode(m));
  }
}

void recovery::on_fwd_ack(const join_fwd_ack_msg& m) {
  if (!donor_ || m.hdr.sender != donor_->joiner ||
      m.incarnation != donor_->incarnation)
    return;
  if (m.replayed_to > donor_->acked) {
    donor_->acked = m.replayed_to;
    donor_->last_progress = env_.now();
    while (!donor_->fwd.empty() && donor_->fwd.front().seq <= donor_->acked)
      donor_->fwd.pop_front();
  }
}

void recovery::on_view_installed(const view& v, std::uint64_t delivered) {
  if (!donor_) return;
  if (donor_->ph != donor_state::phase::catchup) return;
  if (!v.contains(donor_->joiner)) return;  // unrelated change; re-admit later
  // The merge is in: everything up to `delivered` was flushed and the
  // streams restarted. Freeze the handover position and tell the joiner.
  donor_->ph = donor_state::phase::committing;
  donor_->commit_seq = delivered;
  donor_->merged = v;
  donor_->last_progress = env_.now();
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " merged joiner " << donor_->joiner
                   << " into view " << v.id << " at position " << delivered);
  send_commit();
}

void recovery::send_commit() {
  DBSM_CHECK(donor_.has_value());
  join_commit_msg m;
  m.hdr = {msg_type::join_commit, donor_->merged.id, env_.self()};
  m.incarnation = donor_->incarnation;
  m.commit_seq = donor_->commit_seq;
  m.view_id = donor_->merged.id;
  m.members = donor_->merged.members;
  hooks_.send(donor_->joiner, encode(m));
}

void recovery::on_done(const join_done_msg& m) {
  if (!donor_ || m.hdr.sender != donor_->joiner ||
      m.incarnation != donor_->incarnation)
    return;
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " completed join of " << donor_->joiner);
  donor_.reset();
  ++joins_served_;
}

void recovery::abandon_join(const char* why) {
  DBSM_CHECK(donor_.has_value());
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " abandons join of " << donor_->joiner
                   << ": " << why);
  donor_.reset();
}

void recovery::arm_donor_tick() {
  if (donor_timer_ != 0) return;
  donor_timer_ = env_.set_timer(join_retry, [this] {
    donor_timer_ = 0;
    donor_tick();
  });
}

void recovery::donor_tick() {
  if (!donor_) return;
  if (env_.now() - donor_->last_progress > join_timeout) {
    // Second failure during transfer: the joiner went silent. Forget it —
    // a fresh recovery restarts the protocol cleanly.
    abandon_join("no progress from joiner");
    return;
  }
  switch (donor_->ph) {
    case donor_state::phase::transfer:
      send_chunk(donor_->next_chunk);
      break;
    case donor_state::phase::catchup:
      send_fwd_window();
      // Caught up close enough? Ask membership for the view merge. The
      // request is repeated every tick until an install includes the
      // joiner (membership ignores it while another change runs).
      if (hooks_.delivered() - donor_->acked <= join_merge_lag &&
          hooks_.is_coordinator() && !hooks_.membership_changing()) {
        hooks_.admit(donor_->joiner);
      }
      break;
    case donor_state::phase::committing:
      // Forwards lost around the install must still be retransmitted —
      // the joiner cannot reach commit_seq without them (the buffer only
      // holds seqs up to commit_seq in this phase).
      send_fwd_window();
      send_commit();
      break;
  }
  arm_donor_tick();
}

// ------------------------------------------------------------ joiner side

void recovery::begin_join() {
  joining_ = true;
  incarnation_ = static_cast<std::uint64_t>(env_.now());
  chunks_.clear();
  chunks_have_ = 0;
  snapshot_installed_ = false;
  replay_pos_ = 0;
  donor_id_ = invalid_node;
  fwd_buf_.clear();
  commit_ready_ = false;
  note_progress();
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " requests rejoin (incarnation "
                   << incarnation_ << ")");
  join_request_msg m;
  m.hdr = {msg_type::join_request, 0, env_.self()};
  m.incarnation = incarnation_;
  hooks_.mcast(encode(m));
  arm_joiner_tick();
}

void recovery::restart_join(const char* why) {
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " restarts join attempt: " << why);
  begin_join();
}

void recovery::arm_joiner_tick() {
  if (joiner_timer_ != 0) return;
  joiner_timer_ = env_.set_timer(join_retry * 4, [this] {
    joiner_timer_ = 0;
    joiner_tick();
  });
}

void recovery::joiner_tick() {
  if (!joining_) return;
  if (env_.now() - last_progress_ > join_timeout) {
    // The donor went silent (it may have crashed, or our request/either
    // side's traffic was lost): restart against the current coordinator
    // with a fresh incarnation — stale chunks can never mix in.
    restart_join("no progress from donor");
    return;
  }
  arm_joiner_tick();
}

void recovery::on_chunk(const join_chunk_msg& m) {
  if (!joining_ || m.incarnation != incarnation_) return;
  // One donor per attempt: the first server of this incarnation is
  // pinned; a second responder (e.g. a stalled ex-coordinator that still
  // thinks it leads) must not interleave a different snapshot.
  if (donor_id_ != invalid_node && m.hdr.sender != donor_id_) return;
  donor_id_ = m.hdr.sender;
  note_progress();
  if (snapshot_installed_) {
    // Duplicate of an already-assembled snapshot (our ack was lost):
    // re-ack without touching the replay position.
    join_chunk_ack_msg ack;
    ack.hdr = {msg_type::join_chunk_ack, 0, env_.self()};
    ack.incarnation = incarnation_;
    ack.chunk_idx = m.chunk_idx;
    hooks_.send(donor_id_, encode(ack));
    return;
  }
  if (chunks_.empty()) {
    DBSM_CHECK(m.chunk_cnt >= 1);
    chunks_.assign(m.chunk_cnt, nullptr);
    replay_pos_ = m.snap_pos;  // provisional until the snapshot installs
  }
  if (m.chunk_idx < chunks_.size() && chunks_[m.chunk_idx] == nullptr) {
    chunks_[m.chunk_idx] = m.payload;
    ++chunks_have_;
  }
  join_chunk_ack_msg ack;
  ack.hdr = {msg_type::join_chunk_ack, 0, env_.self()};
  ack.incarnation = incarnation_;
  ack.chunk_idx = m.chunk_idx;
  hooks_.send(donor_id_, encode(ack));

  if (chunks_have_ == chunks_.size()) {
    util::shared_bytes blob = util::concat(chunks_);
    chunks_.clear();
    chunks_have_ = 0;
    hooks_.install_snapshot(std::move(blob));
    snapshot_installed_ = true;
    DBSM_LOG(info, "gcs.recovery",
             "node " << env_.self() << " installed snapshot at position "
                     << replay_pos_);
    drain_replay();
    send_fwd_ack();
    maybe_finish_join();
  }
}

void recovery::on_fwd(const join_fwd_msg& m) {
  if (!joining_ || m.incarnation != incarnation_) return;
  if (donor_id_ != invalid_node && m.hdr.sender != donor_id_) return;
  donor_id_ = m.hdr.sender;
  note_progress();
  if (m.global_seq > replay_pos_)
    fwd_buf_.emplace(m.global_seq,
                     fwd_entry{m.global_seq, m.orig_sender, m.payload});
  if (snapshot_installed_) {
    drain_replay();
    send_fwd_ack();
    maybe_finish_join();
  }
}

void recovery::drain_replay() {
  DBSM_CHECK(snapshot_installed_);
  while (!fwd_buf_.empty()) {
    auto it = fwd_buf_.begin();
    if (it->first <= replay_pos_) {
      fwd_buf_.erase(it);  // duplicate from before the snapshot landed
      continue;
    }
    if (it->first != replay_pos_ + 1) break;  // gap: wait for go-back-N
    fwd_entry e = std::move(it->second);
    fwd_buf_.erase(it);
    ++replay_pos_;
    hooks_.replay(e.sender, e.seq, std::move(e.payload));
  }
}

void recovery::send_fwd_ack() {
  if (donor_id_ == invalid_node) return;
  join_fwd_ack_msg m;
  m.hdr = {msg_type::join_fwd_ack, 0, env_.self()};
  m.incarnation = incarnation_;
  m.replayed_to = replay_pos_;
  hooks_.send(donor_id_, encode(m));
}

void recovery::on_commit(const join_commit_msg& m) {
  if (!joining_ || m.incarnation != incarnation_) return;
  if (donor_id_ != invalid_node && m.hdr.sender != donor_id_) return;
  donor_id_ = m.hdr.sender;
  note_progress();
  commit_view_.id = m.view_id;
  commit_view_.members = m.members;
  std::sort(commit_view_.members.begin(), commit_view_.members.end());
  commit_seq_ = m.commit_seq;
  commit_ready_ = true;
  maybe_finish_join();
}

void recovery::maybe_finish_join() {
  if (!commit_ready_ || !snapshot_installed_) return;
  DBSM_CHECK_MSG(replay_pos_ <= commit_seq_,
                 "joiner replayed past the merge position");
  if (replay_pos_ < commit_seq_) return;  // keep replaying
  joining_ = false;
  if (joiner_timer_ != 0) {
    env_.cancel_timer(joiner_timer_);
    joiner_timer_ = 0;
  }
  join_done_msg done;
  done.hdr = {msg_type::join_done, commit_view_.id, env_.self()};
  done.incarnation = incarnation_;
  hooks_.send(donor_id_, encode(done));
  DBSM_LOG(info, "gcs.recovery",
           "node " << env_.self() << " rejoins in view " << commit_view_.id
                   << " at position " << commit_seq_);
  hooks_.install_merged(commit_view_, commit_seq_);
}

}  // namespace dbsm::gcs
