#include "check/monitors.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "db/transaction.hpp"
#include "util/check.hpp"

namespace dbsm::check {
namespace {

std::string view_str(const std::vector<node_id>& members, std::uint32_t id) {
  std::string s = "view " + std::to_string(id) + " {";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(members[i]);
  }
  s += "}";
  return s;
}

std::vector<node_id> all_members(unsigned sites) {
  std::vector<node_id> m(sites);
  for (unsigned i = 0; i < sites; ++i) m[i] = i;
  return m;
}

std::uint64_t site_bit(unsigned site) {
  return site < 64 ? std::uint64_t{1} << site : 0;
}

std::uint64_t mask_of(const std::vector<node_id>& members) {
  if (members.empty()) return ~std::uint64_t{0};  // initial view: everyone
  std::uint64_t m = 0;
  for (node_id n : members) m |= site_bit(n);
  return m;
}

bool member_of(const std::vector<node_id>& members, unsigned site) {
  return members.empty() ||
         std::find(members.begin(), members.end(), site) != members.end();
}

}  // namespace

// --- (1) agreed prefix -------------------------------------------------

bool agreed_prefix_monitor::is_member(unsigned site) const {
  return member_of(members_, site);
}

std::uint64_t agreed_prefix_monitor::member_mask() const {
  return mask_of(members_);
}

void agreed_prefix_monitor::on_decision(const decision_event& e, sink& s) {
  if (!e.commit) return;
  log_len_[e.site] = e.log_len;
  const std::uint64_t idx = e.log_len - 1;  // position this commit filled
  if (!is_member(e.site) && idx >= commit_cut_) {
    // Non-uniform delivery on a doomed branch: the latest primary view
    // excluded this site (whether or not it has learned that yet), so
    // nothing it commits past that view's cut joins the agreed order. The
    // branch is discarded wholesale when the site rejoins — the state
    // transfer reset below re-checks it against the agreed order — and a
    // commit after the site learns of its exclusion is the
    // primary_partition fence's violation, not ours.
    return;
  }
  if (idx < agreed_.size()) {
    entry& en = agreed_[idx];
    if (en.txn_id != e.txn->id) {
      s.raise({std::string(name()), e.site, e.at,
               "commit log position " + std::to_string(idx) + " holds txn " +
                   std::to_string(e.txn->id) + " but the agreed order has " +
                   std::to_string(en.txn_id)});
      return;
    }
    en.committers |= site_bit(e.site);
    return;
  }
  if (idx > agreed_.size()) {
    s.raise({std::string(name()), e.site, e.at,
             "commit log jumped to length " + std::to_string(e.log_len) +
                 " past the agreed order (length " +
                 std::to_string(agreed_.size()) + ")"});
    return;
  }
  agreed_.push_back(entry{e.txn->id, site_bit(e.site)});
}

void agreed_prefix_monitor::on_view(const view_event& e, sink&) {
  if (e.v.id <= top_id_) return;
  top_id_ = e.v.id;
  members_ = e.v.members;
  // The installer delivered exactly the agreed backlog before installing,
  // so its commit-log length right now is the cut in commit positions.
  const auto it = log_len_.find(e.site);
  commit_cut_ = it != log_len_.end() ? it->second : 0;
  // Roll back the excluded branch: entries past the cut committed only by
  // sites outside the new view were non-uniform deliveries the surviving
  // majority never saw; the survivors now redefine those positions.
  const std::uint64_t mask = member_mask();
  for (std::size_t i = commit_cut_; i < agreed_.size(); ++i) {
    if ((agreed_[i].committers & mask) == 0) {
      agreed_.resize(i);
      break;
    }
  }
}

void agreed_prefix_monitor::on_log_reset(const log_reset_event& e, sink& s) {
  const auto& log = *e.log;
  log_len_[e.site] = log.size();
  if (log.size() > agreed_.size()) {
    s.raise({std::string(name()), e.site, e.at,
             "transferred log (length " + std::to_string(log.size()) +
                 ") is longer than the agreed order (length " +
                 std::to_string(agreed_.size()) + ")"});
    return;
  }
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i] != agreed_[i].txn_id) {
      s.raise({std::string(name()), e.site, e.at,
               "transferred log diverges at position " + std::to_string(i) +
                   ": txn " + std::to_string(log[i]) + " vs agreed " +
                   std::to_string(agreed_[i].txn_id)});
      return;
    }
  }
}

// --- (2) view synchrony ------------------------------------------------

void view_synchrony_monitor::on_view(const view_event& e, sink& s) {
  auto [last_it, fresh] = last_.try_emplace(e.site, 0);
  if (!fresh && e.v.id <= last_it->second) {
    s.raise({std::string(name()), e.site, e.at,
             "installed " + view_str(e.v.members, e.v.id) +
                 " after view " + std::to_string(last_it->second) +
                 " (view ids must increase)"});
    return;
  }
  last_it->second = e.v.id;

  auto [it, first] = views_.try_emplace(
      e.v.id, install{e.v.members, e.delivered, e.site});
  if (first) return;
  if (it->second.members != e.v.members) {
    s.raise({std::string(name()), e.site, e.at,
             "installed " + view_str(e.v.members, e.v.id) +
                 " but site " + std::to_string(it->second.first_site) +
                 " installed " +
                 view_str(it->second.members, e.v.id)});
    return;
  }
  if (it->second.delivered != e.delivered) {
    s.raise({std::string(name()), e.site, e.at,
             "installed view " + std::to_string(e.v.id) + " at delivery cut " +
                 std::to_string(e.delivered) + " but site " +
                 std::to_string(it->second.first_site) +
                 " installed it at cut " +
                 std::to_string(it->second.delivered)});
  }
}

// --- (3) primary partition --------------------------------------------

primary_partition_monitor::primary_partition_monitor(unsigned sites)
    : cur_(sites, site_view{1, all_members(sites)}) {}

void primary_partition_monitor::on_view(const view_event& e, sink& s) {
  if (e.site >= cur_.size()) return;
  const site_view& prev = cur_[e.site];
  const std::size_t survivors = static_cast<std::size_t>(std::count_if(
      e.v.members.begin(), e.v.members.end(), [&](node_id m) {
        return std::binary_search(prev.members.begin(), prev.members.end(), m);
      }));
  if (survivors * 2 <= prev.members.size()) {
    s.raise({std::string(name()), e.site, e.at,
             "installed " + view_str(e.v.members, e.v.id) + " retaining only " +
                 std::to_string(survivors) + " of the " +
                 std::to_string(prev.members.size()) + " members of " +
                 view_str(prev.members, prev.id) +
                 " (not a strict majority: a minority partition made "
                 "progress)"});
  }
  cur_[e.site] = site_view{e.v.id, e.v.members};
  excluded_.erase(e.site);  // installing a view means it is a member again
  if (e.v.id > top_id_) top_id_ = e.v.id;
}

void primary_partition_monitor::on_excluded(const excluded_event& e, sink&) {
  excluded_.try_emplace(e.site, e.at);
}

void primary_partition_monitor::on_recovery_start(
    const recovery_start_event& e, sink&) {
  // A recovering site replays the primary partition's agreed stream
  // (state-transfer forwards) before the merged view installs, so its
  // commits are the majority's progress, not a second partition's — and
  // the agreed-prefix and certification-oracle monitors still check each
  // replayed commit element-wise. Lift the fence at the hand-off.
  excluded_.erase(e.site);
}

void primary_partition_monitor::on_decision(const decision_event& e, sink& s) {
  if (!e.commit || e.site >= cur_.size()) return;
  // The exclusion fence. Before a site *learns* of its exclusion it may
  // legitimately keep committing the group's in-flight stream (a slow
  // link delays the install notice along with everything else, and the
  // agreed-prefix monitor still polices that content). Afterwards,
  // delivery must have halted — any further commit is a second partition
  // making progress.
  const auto it = excluded_.find(e.site);
  if (it != excluded_.end()) {
    s.raise({std::string(name()), e.site, e.at,
             "site committed txn " + std::to_string(e.txn->id) +
                 " at position " + std::to_string(e.global_seq) +
                 " after learning at " + std::to_string(to_seconds(it->second)) +
                 "s that view " + std::to_string(top_id_) + " excluded it"});
  }
}

// --- (4) 1SR certification oracle --------------------------------------

cert_oracle_monitor::cert_oracle_monitor(unsigned sites,
                                         const cert::cert_config& cfg)
    : ref_(cfg),
      low_water_(sites, 0),
      all_sites_(mask_of(all_members(sites))) {
  ref_.settle(0);  // opt in to rollback-safe compaction from the start
}

std::uint64_t cert_oracle_monitor::member_mask() const {
  return members_.empty() ? all_sites_ : mask_of(members_);
}

void cert_oracle_monitor::settle(unsigned site, sim_time at, sink& s) {
  const std::uint64_t mask = member_mask();
  std::uint64_t p = ref_.settled();
  for (; p < verdicts_.size() && (verdicts_[p].deciders & mask) == mask; ++p) {
    const verdict& v = verdicts_[p];
    const node_id origin = db::txn_site(v.txn_id);
    DBSM_CHECK_MSG(origin < low_water_.size(),
                   "txn " << v.txn_id << " from site " << origin
                          << " outside the " << low_water_.size()
                          << " sites of the initial view");
    std::uint64_t& lw = low_water_[origin];
    if (v.low_water < lw) {
      s.raise({std::string(name()), site, at,
               "txn " + std::to_string(v.txn_id) + " at position " +
                   std::to_string(p + 1) + " lowers site " +
                   std::to_string(origin) + "'s settled low water from " +
                   std::to_string(lw) + " to " + std::to_string(v.low_water)});
      continue;
    }
    const bool was_min = lw == bound_;
    lw = v.low_water;
    if (was_min)
      bound_ = *std::min_element(low_water_.begin(), low_water_.end());
  }
  ref_.settle(p);
  ref_.forget_through(bound_);
}

void cert_oracle_monitor::on_decision(const decision_event& e, sink& s) {
  const std::uint64_t n = e.global_seq;
  if (n == 0) return;
  const std::uint64_t idx = n - 1;
  if (!member_of(members_, e.site) && idx >= cut_) {
    // Excluded branch past the cut: not part of the agreed order (see the
    // agreed-prefix monitor's branch rule), so the oracle ignores it.
    return;
  }
  if (idx == verdicts_.size()) {
    // First site to reach position n: feed the oracle, which forgot the
    // write sets at or below the bound.
    if (e.txn->begin_pos < bound_) {
      s.raise({std::string(name()), e.site, e.at,
               "txn " + std::to_string(e.txn->id) + " from site " +
                   std::to_string(db::txn_site(e.txn->id)) +
                   " at position " + std::to_string(n) + " has snapshot " +
                   std::to_string(e.txn->begin_pos) +
                   " below the settled low-water bound " +
                   std::to_string(bound_) + " (left uncertified)"});
      return;
    }
    DBSM_CHECK_MSG(
        e.txn->low_water <= std::numeric_limits<std::uint32_t>::max(),
        "low water " << e.txn->low_water << " of txn " << e.txn->id
                     << " past 2^32 - 1");
    verdicts_.push_back(verdict{
        e.txn->id, 0,
        ref_.certify_update(e.txn->begin_pos, e.txn->read_set,
                            e.txn->write_set),
        static_cast<std::uint32_t>(e.txn->low_water)});
  } else if (idx > verdicts_.size()) {
    s.raise({std::string(name()), e.site, e.at,
             "decision at position " + std::to_string(n) +
                 " arrived before any site decided position " +
                 std::to_string(verdicts_.size() + 1)});
    return;
  }
  verdict& v = verdicts_[idx];
  if (v.txn_id != e.txn->id) {
    s.raise({std::string(name()), e.site, e.at,
             "position " + std::to_string(n) + " delivered txn " +
                 std::to_string(e.txn->id) + " but the first decider saw txn " +
                 std::to_string(v.txn_id)});
    return;
  }
  if (v.commit != e.commit) {
    s.raise({std::string(name()), e.site, e.at,
             "txn " + std::to_string(e.txn->id) + " at position " +
                 std::to_string(n) + " decided " +
                 (e.commit ? "commit" : "abort") +
                 " but the reference certifier says " +
                 (v.commit ? "commit" : "abort")});
    return;
  }
  v.deciders |= site_bit(e.site);
  settle(e.site, e.at, s);
}

void cert_oracle_monitor::on_view(const view_event& e, sink& s) {
  if (e.v.id <= top_id_) return;
  top_id_ = e.v.id;
  members_ = e.v.members;
  cut_ = e.delivered;
  const std::uint64_t mask = member_mask();
  for (std::size_t i = cut_; i < verdicts_.size(); ++i) {
    if ((verdicts_[i].deciders & mask) != 0) continue;
    // Positions past the cut decided only by now-excluded sites: roll
    // them back, so the discarded branch's write sets leave the oracle's
    // history and the write sets they evicted come back.
    if (i < ref_.settled()) {
      s.raise({std::string(name()), e.site, e.at,
               view_str(e.v.members, e.v.id) + " rolls back position " +
                   std::to_string(i + 1) +
                   " past its cut, but every member of an earlier primary " +
                   "view decided positions 1.." +
                   std::to_string(ref_.settled()) +
                   " (a view must keep one of them)"});
      return;
    }
    ref_.rollback(i + 1);
    verdicts_.resize(i);
    break;
  }
  settle(e.site, e.at, s);
}

// --- (5) recovery convergence ------------------------------------------

void recovery_convergence_monitor::on_decision(const decision_event& e,
                                               sink&) {
  if (e.commit && e.log_len > max_log_) max_log_ = e.log_len;
}

void recovery_convergence_monitor::on_log_reset(const log_reset_event& e,
                                                sink&) {
  if (e.log->size() > max_log_) max_log_ = e.log->size();
}

void recovery_convergence_monitor::on_recovery_start(
    const recovery_start_event& e, sink&) {
  pending_[e.site] = e.at;
}

void recovery_convergence_monitor::on_rejoin(const rejoin_event& e, sink& s) {
  pending_.erase(e.site);
  const std::uint64_t lag =
      max_log_ > e.log_len ? max_log_ - e.log_len : 0;
  if (lag > max_lag_) {
    s.raise({std::string(name()), e.site, e.at,
             "rejoined with a commit log of " + std::to_string(e.log_len) +
                 " while the longest log is " + std::to_string(max_log_) +
                 " (lag " + std::to_string(lag) + " > bound " +
                 std::to_string(max_lag_) + ")"});
  }
}

void recovery_convergence_monitor::on_run_end(sim_time now, sink& s) {
  for (const auto& [site, started] : pending_) {
    if (now - started > deadline_) {
      s.raise({std::string(name()), site, now,
               "recovery started at " +
                   std::to_string(to_seconds(started)) +
                   "s never produced a rejoin (deadline " +
                   std::to_string(to_seconds(deadline_)) + "s)"});
    }
  }
}

// --- (6) placement consistency -----------------------------------------

void placement_monitor::on_decision(const decision_event& e, sink& s) {
  const auto it = pending_.find(e.site);
  if (it != pending_.end()) {
    s.raise({std::string(name()), e.site, e.at,
             "committed txn " + std::to_string(it->second.txn_id) +
                 " at position " + std::to_string(it->second.global_seq) +
                 " was never made durable (next decision arrived first)"});
    pending_.erase(it);
  }
  if (e.commit) pending_[e.site] = {e.global_seq, e.txn->id};
}

void placement_monitor::on_apply(const apply_event& e, sink& s) {
  const auto it = pending_.find(e.site);
  if (it == pending_.end() || it->second.txn_id != e.txn->id ||
      it->second.global_seq != e.global_seq) {
    s.raise({std::string(name()), e.site, e.at,
             "apply of txn " + std::to_string(e.txn->id) + " at position " +
                 std::to_string(e.global_seq) +
                 " does not match any pending commit decision" +
                 (it != pending_.end()
                      ? " (pending: txn " +
                            std::to_string(it->second.txn_id) + " at " +
                            std::to_string(it->second.global_seq) + ")"
                      : "")});
    return;
  }
  pending_.erase(it);
  // Independent recomputation: the durable slice must be exactly what the
  // placement assigns this site — nothing missing, nothing extra.
  placement_.slice(e.txn->write_set, e.site, expected_);
  if (*e.durable_slice != expected_) {
    s.raise({std::string(name()), e.site, e.at,
             "txn " + std::to_string(e.txn->id) + " durable slice has " +
                 std::to_string(e.durable_slice->size()) +
                 " elements but the placement (" + placement_.describe() +
                 ") assigns " + std::to_string(expected_.size()) +
                 " — committed data stored outside (or missing from) the "
                 "granule's replica set"});
  }
}

void placement_monitor::on_log_reset(const log_reset_event& e, sink&) {
  // State transfer rebuilt the site wholesale; any decision/apply pair in
  // flight on the torn-down incarnation is void.
  pending_.erase(e.site);
}

void placement_monitor::on_run_end(sim_time, sink&) {
  // A decision at the very end of the run may have its apply event fire
  // in the same delivery job but after the simulation's stop was issued;
  // in-flight pairs at run end are therefore not violations.
  pending_.clear();
}

// --- (7) read-snapshot 1SR ----------------------------------------------

std::string read_snapshot_monitor::check_claim(const claim& c) const {
  if (c.log_len == 0) return "";
  const auto& agreed = order_.agreed();
  if (c.log_len > agreed.size()) {
    return "fast read served a committed prefix of length " +
           std::to_string(c.log_len) +
           " that is not (or no longer) part of the agreed order (length " +
           std::to_string(agreed.size()) + ")";
  }
  if (agreed[c.log_len - 1].txn_id != c.last_commit_id) {
    return "fast read served a prefix ending in txn " +
           std::to_string(c.last_commit_id) + " but the agreed order has " +
           std::to_string(agreed[c.log_len - 1].txn_id) + " at position " +
           std::to_string(c.log_len - 1);
  }
  return "";
}

void read_snapshot_monitor::revalidate(sink& s) const {
  for (const auto& [site, c] : claims_) {
    const std::string err = check_claim(c);
    if (!err.empty()) {
      s.raise({std::string(name()), site, c.at, err});
      return;
    }
  }
}

void read_snapshot_monitor::on_read(const read_event& e, sink& s) {
  if (!e.fast) return;  // fallback reads certify; nothing to claim
  const claim c{e.log_len, e.last_commit_id, e.at};
  auto [it, fresh] = claims_.try_emplace(e.site, c);
  if (!fresh) {
    if (e.log_len < it->second.log_len) {
      s.raise({std::string(name()), e.site, e.at,
               "fast read served snapshot length " +
                   std::to_string(e.log_len) + " after the site already " +
                   "served length " + std::to_string(it->second.log_len) +
                   " (reads travelled back in time)"});
      return;
    }
    it->second = c;
  }
  // Immediate check; the claim stays pending for re-validation at later
  // view installs (an orphan-branch prefix can match now and be rolled
  // back later).
  const std::string err = check_claim(c);
  if (!err.empty()) s.raise({std::string(name()), e.site, e.at, err});
}

void read_snapshot_monitor::on_view(const view_event& e, sink& s) {
  if (e.v.id <= top_id_) return;
  top_id_ = e.v.id;
  // Retroactive validation against the order monitor 1 just rolled back:
  // a fast read served off a now-discarded branch is a 1SR violation even
  // though it looked consistent when served.
  revalidate(s);
}

void read_snapshot_monitor::on_run_end(sim_time, sink& s) { revalidate(s); }

}  // namespace dbsm::check
