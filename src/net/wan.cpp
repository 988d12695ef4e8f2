#include "net/wan.hpp"

#include <utility>

namespace dbsm::net {

wan::wan(sim::simulator& sim, wan_config cfg, util::rng gen)
    : medium(sim, cfg.access_bandwidth_bps, gen), cfg_(cfg) {}

node_id wan::add_host() {
  const node_id id = medium::add_host();
  for (auto& row : latency_) row.push_back(cfg_.default_latency);
  latency_.emplace_back(host_count(), cfg_.default_latency);
  return id;
}

void wan::set_latency(node_id a, node_id b, sim_duration one_way) {
  latency_.at(a).at(b) = one_way;
  latency_.at(b).at(a) = one_way;
}

unsigned wan::multicast_fanout(node_id) const {
  return host_count() <= 1 ? 1 : static_cast<unsigned>(host_count() - 1);
}

void wan::transmit_one(node_id from, node_id to,
                       util::shared_bytes payload) {
  const std::size_t bytes = payload->size();
  const sim_time tx_end =
      transmit(from, bytes, bytes + ip_udp_header + cfg_.link_overhead);
  if (tx_end == time_never) return;  // egress overflow
  deliver(from, to, std::move(payload), tx_end + latency_.at(from).at(to));
}

void wan::send(node_id from, node_id to, util::shared_bytes payload) {
  if (!may_send(from, payload)) return;
  trace('s', from, to, payload->size());
  if (to == from) {
    loopback(from, std::move(payload));
    return;
  }
  transmit_one(from, to, std::move(payload));
}

void wan::multicast(node_id from, util::shared_bytes payload) {
  if (!may_send(from, payload)) return;
  // No IP multicast across the wide area: unicast fan-out (§3.4).
  for (node_id to = 0; to < host_count(); ++to) {
    if (to == from) continue;
    trace('s', from, to, payload->size());
    transmit_one(from, to, payload);
  }
}

}  // namespace dbsm::net
