#include "net/lan.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::net {

lan::lan(sim::simulator& sim, lan_config cfg, util::rng gen)
    : medium(sim, cfg.bandwidth_bps, gen), cfg_(cfg) {
  DBSM_CHECK(cfg_.mtu > ip_udp_header);
}

node_id lan::add_host() {
  rx_free_at_.push_back(0);
  return medium::add_host();
}

std::size_t lan::wire_size(std::size_t payload) const {
  const std::size_t per_frame = cfg_.mtu - ip_udp_header;
  const std::size_t frames =
      payload == 0 ? 1 : (payload + per_frame - 1) / per_frame;
  return payload + frames * (ip_udp_header + cfg_.frame_overhead);
}

void lan::downlink(node_id from, node_id to, util::shared_bytes payload,
                   sim_time at_switch) {
  if (isolated(to)) return;
  // Degraded-path extra delay (fault injection) is propagation time, not
  // port occupancy: deliver() adds it after the receive-port reservation.
  // Folding it into `at_switch` would book the port `extra` in the future
  // and head-of-line-block every other sender's frames to this host
  // behind one slow link.
  sim_time& rx_free_at = rx_free_at_.at(to);
  const sim_time start = std::max(at_switch, rx_free_at);
  rx_free_at = start + serialization_time(wire_size(payload->size()));
  deliver(from, to, std::move(payload), rx_free_at);
}

void lan::send(node_id from, node_id to, util::shared_bytes payload) {
  if (!may_send(from, payload)) return;
  trace('s', from, to, payload->size());
  const sim_time tx_end =
      transmit(from, payload->size(), wire_size(payload->size()));
  if (tx_end == time_never) return;  // egress overflow
  if (to == from) {
    loopback(from, std::move(payload));
    return;
  }
  downlink(from, to, std::move(payload), tx_end + cfg_.switch_latency);
}

void lan::multicast(node_id from, util::shared_bytes payload) {
  if (!may_send(from, payload)) return;
  trace('s', from, static_cast<node_id>(host_count()), payload->size());
  // One uplink transmission; the switch replicates to every other port.
  const sim_time tx_end =
      transmit(from, payload->size(), wire_size(payload->size()));
  if (tx_end == time_never) return;
  for (node_id to = 0; to < host_count(); ++to) {
    if (to == from) continue;
    downlink(from, to, payload, tx_end + cfg_.switch_latency);
  }
}

}  // namespace dbsm::net
