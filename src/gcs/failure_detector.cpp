#include "gcs/failure_detector.hpp"

namespace dbsm::gcs {

failure_detector::failure_detector(std::vector<node_id> members, node_id self,
                                   sim_duration timeout, sim_time now)
    : self_(self), timeout_(timeout) {
  reset(std::move(members), now);
}

void failure_detector::reset(std::vector<node_id> members, sim_time now) {
  members_.clear();
  for (node_id m : members) members_[m] = member_state{now, 0};
}

void failure_detector::heard_from(node_id n, sim_time now) {
  auto it = members_.find(n);
  if (it == members_.end()) return;
  if (now > it->second.last_heard) it->second.last_heard = now;
  it->second.misses = 0;
}

void failure_detector::tick(sim_time now) {
  for (auto& [n, st] : members_) {
    if (n == self_) continue;
    if (now - st.last_heard > heartbeat_period) {
      ++st.misses;
    } else {
      st.misses = 0;
    }
  }
}

std::vector<node_id> failure_detector::suspects(sim_time now) const {
  std::vector<node_id> out;
  for (const auto& [n, st] : members_) {
    if (n == self_) continue;
    if (now - st.last_heard <= timeout_) continue;
    if (st.misses < suspect_misses) continue;
    out.push_back(n);
  }
  return out;
}

unsigned failure_detector::misses(node_id n) const {
  auto it = members_.find(n);
  return it == members_.end() ? 0 : it->second.misses;
}

}  // namespace dbsm::gcs
