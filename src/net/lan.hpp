// Switched full-duplex 100 Mbps Ethernet LAN (the paper's testbed network).
//
// Timing model, per datagram:
//   * the datagram is fragmented into MTU-sized IP packets (unlike SSFNet,
//     which did not enforce the MTU for UDP — the divergence the paper's
//     Fig 3 works around by restricting packet sizes);
//   * frames serialize sequentially on the sender's uplink at the link
//     bandwidth, bounded by the medium's egress buffer;
//   * each frame crosses the switch after `switch_latency`, then serializes
//     on the destination's downlink (its own copy for each multicast
//     destination — receive goodput is therefore wire-capped, Fig 3b);
//   * the datagram is delivered when its last frame finishes, as one event.
//
// Downlink capacity is reserved eagerly at send time: when long transfers
// interleave, a later frame can be pushed behind a whole earlier datagram
// rather than between its frames. With the protocols' ≤1.4 KB datagrams the
// error is below one frame time; documented trade-off for O(1) events per
// datagram.
//
// Loss models act on whole datagrams at reception (§5.3 fault semantics),
// never on individual frames.
#ifndef DBSM_NET_LAN_HPP
#define DBSM_NET_LAN_HPP

#include <vector>

#include "net/medium.hpp"

namespace dbsm::net {

struct lan_config {
  double bandwidth_bps = 100e6;                 // Fast Ethernet
  sim_duration switch_latency = microseconds(30);
  std::size_t mtu = 1500;                       // IP packet size limit
  std::size_t frame_overhead = 38;              // Eth hdr+FCS+preamble+IFG
};

class lan final : public medium {
 public:
  lan(sim::simulator& sim, lan_config cfg, util::rng gen);

  node_id add_host() override;
  void send(node_id from, node_id to, util::shared_bytes payload) override;
  void multicast(node_id from, util::shared_bytes payload) override;
  unsigned multicast_fanout(node_id) const override { return 1; }  // IP mcast

 private:
  /// Wire bytes of a datagram of `payload` bytes, all frames included.
  std::size_t wire_size(std::size_t payload) const;

  /// Reserves downlink capacity and schedules delivery at `to`.
  void downlink(node_id from, node_id to, util::shared_bytes payload,
                sim_time at_switch);

  lan_config cfg_;
  std::vector<sim_time> rx_free_at_;  // per host downlink
};

}  // namespace dbsm::net

#endif  // DBSM_NET_LAN_HPP
