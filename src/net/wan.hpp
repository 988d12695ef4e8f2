// Wide-area network: full mesh of point-to-point paths with configurable
// one-way latency, host access-link bandwidth, and no IP multicast — the
// protocols fall back to unicast fan-out, which is exactly the WAN mode of
// the paper's dissemination phase (§3.4).
#ifndef DBSM_NET_WAN_HPP
#define DBSM_NET_WAN_HPP

#include <vector>

#include "net/medium.hpp"

namespace dbsm::net {

struct wan_config {
  double access_bandwidth_bps = 10e6;           // per-host access link
  sim_duration default_latency = milliseconds(20);
  std::size_t link_overhead = 12;               // PPP/SONET-ish framing
};

class wan final : public medium {
 public:
  wan(sim::simulator& sim, wan_config cfg, util::rng gen);

  node_id add_host() override;
  void send(node_id from, node_id to, util::shared_bytes payload) override;
  void multicast(node_id from, util::shared_bytes payload) override;
  unsigned multicast_fanout(node_id from) const override;

  /// Overrides the one-way latency between a pair (both directions).
  void set_latency(node_id a, node_id b, sim_duration one_way);

 private:
  /// Serializes one copy on the access link; it arrives one path latency
  /// after its last bit leaves.
  void transmit_one(node_id from, node_id to, util::shared_bytes payload);

  wan_config cfg_;
  std::vector<std::vector<sim_duration>> latency_;  // symmetric matrix
};

}  // namespace dbsm::net

#endif  // DBSM_NET_WAN_HPP
