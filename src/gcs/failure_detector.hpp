// Heartbeat failure detector driving view changes.
//
// Suspicion needs two things at once: silence longer than `timeout`, and
// at least `suspect_misses` consecutive heartbeat intervals (ticked by the
// owner every `heartbeat_period`) in which nothing was heard from the
// member. The miss counter is hysteresis against delay faults: one
// datagram arriving late — even later than the timeout — resets the count
// and is not grounds for exclusion on its own; only sustained silence is.
#ifndef DBSM_GCS_FAILURE_DETECTOR_HPP
#define DBSM_GCS_FAILURE_DETECTOR_HPP

#include <unordered_map>
#include <vector>

#include "util/types.hpp"

namespace dbsm::gcs {

class failure_detector {
 public:
  /// The tick cadence. `group` sends its heartbeats at the same period,
  /// so heartbeats also clock failure detection.
  static constexpr sim_duration heartbeat_period = milliseconds(20);
  /// Miss-count hysteresis: a member is only suspected after this many
  /// consecutive heartbeat intervals with no traffic from it — a single
  /// late arrival (one delayed datagram past the timeout) is not enough.
  /// It adds no latency over the plain timeout: any silence longer than
  /// the timeout spans well over 3 heartbeat ticks.
  static constexpr unsigned suspect_misses = 3;

  failure_detector(std::vector<node_id> members, node_id self,
                   sim_duration timeout, sim_time now);

  /// Any protocol traffic from a member counts as a liveness proof (and
  /// clears its consecutive-miss count).
  void heard_from(node_id n, sim_time now);

  /// Called once per heartbeat interval: every member silent for more
  /// than one interval scores a miss; anyone heard from recently resets.
  void tick(sim_time now);

  /// Members not heard from within the timeout and missing for at least
  /// `suspect_misses` consecutive ticks.
  std::vector<node_id> suspects(sim_time now) const;

  /// Current consecutive-miss count (test probe).
  unsigned misses(node_id n) const;

  /// Re-seeds after a view change.
  void reset(std::vector<node_id> members, sim_time now);

 private:
  node_id self_;
  sim_duration timeout_;
  struct member_state {
    sim_time last_heard = 0;
    unsigned misses = 0;
  };
  std::unordered_map<node_id, member_state> members_;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_FAILURE_DETECTOR_HPP
