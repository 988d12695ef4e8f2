#include "gcs/membership.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::gcs {

namespace {

// A view change that has not installed by then is proposed again.
constexpr sim_duration view_change_retry = milliseconds(500);

}  // namespace

membership::membership(csrt::env& env, const group_config& cfg, view initial,
                       hooks h)
    : env_(env), cfg_(cfg), hooks_(std::move(h)),
      current_(std::move(initial)) {
  DBSM_CHECK(!current_.members.empty());
  DBSM_CHECK(std::is_sorted(current_.members.begin(),
                            current_.members.end()));
}

membership::~membership() {
  if (retry_timer_ != 0) env_.cancel_timer(retry_timer_);
}

std::vector<node_id> membership::alive_members() const {
  std::vector<node_id> out;
  for (node_id m : current_.members)
    if (!suspected_.count(m)) out.push_back(m);
  return out;
}

bool membership::is_primary(std::size_t members) const {
  // Testing backdoor (group_config::unsafe_no_primary_partition): let any
  // non-empty partition claim primacy so the check layer's split-brain
  // detection can be exercised end to end.
  if (cfg_.unsafe_no_primary_partition) return members > 0;
  return members * 2 > current_.members.size();
}

void membership::suspect(node_id n) {
  if (n == env_.self() || suspected_.count(n)) return;
  if (!current_.contains(n)) return;
  suspected_.insert(n);
  DBSM_LOG(info, "gcs.membership",
           "node " << env_.self() << " suspects " << n);
  start_change();
}

void membership::admit(node_id joiner) {
  if (changing_) return;  // merge after the pending change settles
  if (current_.contains(joiner)) return;
  if (!join_candidates_.insert(joiner).second) return;
  DBSM_LOG(info, "gcs.membership",
           "node " << env_.self() << " admits joiner " << joiner);
  start_change();
}

void membership::force_view(const view& v) {
  DBSM_CHECK(!v.members.empty());
  DBSM_CHECK(std::is_sorted(v.members.begin(), v.members.end()));
  adopt(v);
}

void membership::adopt(const view& v) {
  current_ = v;
  excluded_ = false;
  changing_ = false;
  member_flush_done_ = false;
  pending_view_ = v.id;
  suspected_.clear();
  join_candidates_.clear();
  states_.clear();
  flush_oks_.clear();
  cut_sent_ = false;
  ++view_changes_;
  if (retry_timer_ != 0) {
    env_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
}

void membership::start_change() {
  const auto alive = alive_members();
  DBSM_CHECK(!alive.empty());
  changing_ = true;
  if (hooks_.stop_sends) hooks_.stop_sends();
  if (alive.front() == env_.self()) {
    propose();
  }
  arm_retry();
}

void membership::propose() {
  const auto alive = alive_members();
  // Primary-partition rule: only a majority of the current view may form
  // the next one. A minority side (a partitioned node suspecting everyone
  // else) stalls with sends stopped — it must not install a solo view and
  // split-brain the committed sequence. The retry timer keeps firing, so
  // it recovers if suspicions turn out wrong before exclusion.
  if (!is_primary(alive.size())) {
    DBSM_LOG(info, "gcs.membership",
             "node " << env_.self() << " in minority (" << alive.size()
                     << "/" << current_.members.size()
                     << "), withholding view proposal");
    return;
  }
  pending_view_ = std::max(pending_view_, current_.id) + 1;
  pending_members_ = alive;
  // View merge: rejoining sites ride the proposal; they take no part in
  // the flush (their state arrives by transfer, not by cut recovery).
  for (node_id j : join_candidates_)
    if (!current_.contains(j)) pending_members_.push_back(j);
  std::sort(pending_members_.begin(), pending_members_.end());
  coordinator_ = env_.self();
  states_.clear();
  flush_oks_.clear();
  cut_sent_ = false;
  member_flush_done_ = false;

  view_propose_msg m;
  m.hdr = {msg_type::view_propose, current_.id, env_.self()};
  m.new_view_id = pending_view_;
  m.proposed_members = pending_members_;
  DBSM_LOG(info, "gcs.membership",
           "node " << env_.self() << " proposes view " << pending_view_);
  hooks_.mcast(encode(m));
}

void membership::on_propose(const view_propose_msg& m) {
  if (m.new_view_id <= current_.id) return;  // stale
  // Primary-partition rule over the *current* view's members only: a
  // proposal cannot vote itself into a majority by listing joiners.
  std::size_t current_members = 0;
  for (node_id n : m.proposed_members)
    if (current_.contains(n)) ++current_members;
  if (!is_primary(current_members)) return;  // minority view
  if (changing_ && (m.new_view_id < pending_view_ ||
                    (m.new_view_id == pending_view_ &&
                     m.hdr.sender > coordinator_)))
    return;  // keep the stronger proposal

  changing_ = true;
  pending_view_ = m.new_view_id;
  pending_members_ = m.proposed_members;
  coordinator_ = m.hdr.sender;
  member_flush_done_ = false;
  if (hooks_.stop_sends) hooks_.stop_sends();
  // The prefixes reported below seed the agreed cut; everything ordered
  // after this instant belongs to the next view, so the sequencer stops
  // minting assignments until the install.
  if (hooks_.quiesce_order) hooks_.quiesce_order();
  if (hooks_.cancel_flush) hooks_.cancel_flush();

  view_state_msg reply;
  reply.hdr = {msg_type::view_state, current_.id, env_.self()};
  reply.new_view_id = pending_view_;
  reply.prefixes = hooks_.get_prefixes();
  hooks_.send(coordinator_, encode(reply));
  arm_retry();
}

void membership::on_state(const view_state_msg& m) {
  if (!changing_ || coordinator_ != env_.self()) return;
  if (m.new_view_id != pending_view_) return;
  states_[m.hdr.sender] = m.prefixes;
  maybe_send_cut();
}

void membership::maybe_send_cut() {
  if (cut_sent_) return;
  // Joiners (pending members outside the current view) do not flush.
  for (node_id n : pending_members_)
    if (current_.contains(n) && !states_.count(n)) return;

  const std::size_t width = current_.members.size();
  cut_.assign(width, 0);
  sources_.assign(width, env_.self());
  for (const auto& [member, prefixes] : states_) {
    if (prefixes.size() != width) continue;  // stale layout; ignore
    for (std::size_t i = 0; i < width; ++i) {
      if (prefixes[i] > cut_[i]) {
        cut_[i] = prefixes[i];
        sources_[i] = member;
      }
    }
  }
  cut_sent_ = true;

  view_cut_msg m;
  m.hdr = {msg_type::view_cut, current_.id, env_.self()};
  m.new_view_id = pending_view_;
  m.new_members = pending_members_;
  m.cut = cut_;
  m.sources = sources_;
  hooks_.mcast(encode(m));
}

void membership::on_cut(const view_cut_msg& m) {
  if (!changing_ || m.new_view_id != pending_view_) return;
  const node_id coord = m.hdr.sender;
  if (member_flush_done_) {
    // Duplicate (retry): our earlier flush_ok may have been lost.
    view_flush_ok_msg ok;
    ok.hdr = {msg_type::view_flush_ok, current_.id, env_.self()};
    ok.new_view_id = pending_view_;
    hooks_.send(coord, encode(ok));
    return;
  }
  const std::uint32_t vid = pending_view_;
  hooks_.ensure_cut(m.cut, m.sources, [this, vid, coord] {
    if (!changing_ || pending_view_ != vid) return;
    member_flush_done_ = true;
    view_flush_ok_msg ok;
    ok.hdr = {msg_type::view_flush_ok, current_.id, env_.self()};
    ok.new_view_id = vid;
    hooks_.send(coord, encode(ok));
  });
}

void membership::on_flush_ok(const view_flush_ok_msg& m) {
  if (!changing_ || coordinator_ != env_.self()) return;
  if (m.new_view_id != pending_view_) return;
  flush_oks_.insert(m.hdr.sender);
  maybe_install();
}

void membership::maybe_install() {
  if (!cut_sent_) return;
  for (node_id n : pending_members_)
    if (current_.contains(n) && !flush_oks_.count(n)) return;

  view_install_msg m;
  m.hdr = {msg_type::view_install, current_.id, env_.self()};
  m.new_view_id = pending_view_;
  m.new_members = pending_members_;
  m.cut = cut_;
  hooks_.mcast(encode(m));
}

void membership::on_install(const view_install_msg& m) {
  if (m.new_view_id <= current_.id) return;
  if (std::find(m.new_members.begin(), m.new_members.end(), env_.self()) ==
      m.new_members.end()) {
    // We were excluded but still hear the majority (an asymmetric cut:
    // our outbound traffic is gone, inbound flows). Stall with sends
    // stopped instead of adopting a view we are not part of — recovery
    // (rejoin with state transfer) is the way back in.
    discover_excluded(m.new_view_id);
    return;
  }
  finish_install(m);
}

void membership::on_foreign_view(std::uint32_t id) {
  if (id <= current_.id) return;
  // Mid-flush toward that view (or a later one) with a primary partition
  // still alive: our own install is in flight, this is just a faster
  // member's traffic arriving first. A minority node gets no such benefit
  // of the doubt — it cannot install anything itself, so a higher view id
  // can only mean the majority moved on without it.
  if (changing_ && pending_view_ >= id &&
      is_primary(alive_members().size())) {
    return;
  }
  discover_excluded(id);
}

void membership::discover_excluded(std::uint32_t view_id) {
  DBSM_LOG(info, "gcs.membership",
           "node " << env_.self() << " sees view " << view_id
                   << " excluding itself; stalling");
  const bool first = !excluded_;
  excluded_ = true;
  if (hooks_.stop_sends) hooks_.stop_sends();
  if (first && hooks_.excluded) hooks_.excluded();
}

void membership::finish_install(const view_install_msg& m) {
  const std::vector<node_id> old_members = current_.members;
  view v;
  v.id = m.new_view_id;
  v.members = m.new_members;
  std::sort(v.members.begin(), v.members.end());
  DBSM_LOG(info, "gcs.membership",
           "node " << env_.self() << " installs view " << v.id);

  adopt(v);
  hooks_.install(v, old_members, m.cut);
}

void membership::arm_retry() {
  if (retry_timer_ != 0) return;
  retry_timer_ = env_.set_timer(view_change_retry, [this] { retry_fire(); });
}

void membership::retry_fire() {
  retry_timer_ = 0;
  if (!changing_) return;
  const auto alive = alive_members();
  DBSM_CHECK(!alive.empty());
  if (alive.front() == env_.self()) {
    // Either we coordinate already (lost messages: re-propose with a fresh
    // id) or the previous coordinator was suspected meanwhile (take over).
    propose();
  }
  arm_retry();
}

}  // namespace dbsm::gcs
