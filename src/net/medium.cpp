#include "net/medium.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::net {

medium::medium(sim::simulator& sim, double bandwidth_bps, util::rng gen)
    : sim_(sim), bandwidth_bps_(bandwidth_bps), rng_(gen) {
  DBSM_CHECK(bandwidth_bps_ > 0);
}

node_id medium::add_host() {
  hosts_.emplace_back();
  return static_cast<node_id>(hosts_.size() - 1);
}

void medium::set_receiver(node_id node, receiver_fn fn) {
  hosts_.at(node).receiver = std::move(fn);
}

void medium::set_rx_loss(node_id node, std::shared_ptr<loss_model> model) {
  hosts_.at(node).rx_loss = std::move(model);
}

void medium::isolate(node_id node) { hosts_.at(node).isolated = true; }

void medium::restore(node_id node) { hosts_.at(node).isolated = false; }

medium::link_fault& medium::link(node_id from, node_id to) {
  DBSM_CHECK(from < hosts_.size() && to < hosts_.size());
  return links_[link_key(from, to)];
}

bool medium::cut(node_id from, node_id to) const {
  const auto it = links_.find(link_key(from, to));
  return it != links_.end() && it->second.cut;
}

void medium::set_link_cut(node_id a, node_id b, bool cut) {
  set_link_cut_oneway(a, b, cut);
  set_link_cut_oneway(b, a, cut);
}

void medium::set_link_cut_oneway(node_id from, node_id to, bool cut) {
  link(from, to).cut = cut;
}

void medium::set_link_extra_delay(node_id a, node_id b, sim_duration extra) {
  set_link_extra_delay_oneway(a, b, extra);
  set_link_extra_delay_oneway(b, a, extra);
}

void medium::set_link_extra_delay_oneway(node_id from, node_id to,
                                         sim_duration extra) {
  DBSM_CHECK(extra >= 0);
  link(from, to).extra_delay = extra;
}

std::uint64_t medium::wire_bytes_sent(node_id node) const {
  return hosts_.at(node).wire_bytes;
}

std::uint64_t medium::total_wire_bytes() const {
  std::uint64_t total = 0;
  for (const host& h : hosts_) total += h.wire_bytes;
  return total;
}

std::uint64_t medium::overflow_drops(node_id node) const {
  return hosts_.at(node).overflow;
}

std::uint64_t medium::injected_losses(node_id node) const {
  return hosts_.at(node).injected_lost;
}

std::uint64_t medium::link_cut_drops(node_id node) const {
  return hosts_.at(node).cut_dropped;
}

void medium::set_tracer(trace_fn fn) { tracer_ = std::move(fn); }

bool medium::may_send(node_id from, const util::shared_bytes& payload) const {
  DBSM_CHECK(payload != nullptr);
  DBSM_CHECK_MSG(payload->size() <= max_datagram_payload,
                 "datagram too large: " << payload->size());
  return !hosts_.at(from).isolated;
}

sim_duration medium::serialization_time(std::size_t wire_bytes) const {
  return static_cast<sim_duration>(static_cast<double>(wire_bytes) * 8.0 /
                                   bandwidth_bps_ * 1e9);
}

sim_time medium::transmit(node_id from, std::size_t payload_bytes,
                          std::size_t wire_bytes) {
  host& sender = hosts_.at(from);
  if (sender.tx_queued_bytes + payload_bytes > tx_buffer_bytes) {
    ++sender.overflow;
    trace('o', from, from, payload_bytes);
    return time_never;
  }
  const sim_time start = std::max(sim_.now(), sender.tx_free_at);
  const sim_time tx_end = start + serialization_time(wire_bytes);
  sender.tx_free_at = tx_end;
  sender.wire_bytes += wire_bytes;
  sender.tx_queued_bytes += payload_bytes;
  sim_.schedule_at(tx_end, [this, from, payload_bytes] {
    host& h = hosts_.at(from);
    DBSM_CHECK(h.tx_queued_bytes >= payload_bytes);
    h.tx_queued_bytes -= payload_bytes;
  });
  return tx_end;
}

void medium::deliver(node_id from, node_id to, util::shared_bytes payload,
                     sim_time at) {
  if (!links_.empty()) {
    const auto it = links_.find(link_key(from, to));
    if (it != links_.end()) at += it->second.extra_delay;
  }
  sim_.schedule_at(at, [this, from, to, payload] {
    host& h = hosts_.at(to);
    if (h.isolated) return;
    if (cut(from, to)) {
      ++h.cut_dropped;
      trace('l', from, to, payload->size());
      return;
    }
    if (h.rx_loss && h.rx_loss->drop(rng_)) {
      ++h.injected_lost;
      trace('l', from, to, payload->size());
      return;
    }
    trace('d', from, to, payload->size());
    if (h.receiver) h.receiver(from, payload);
  });
}

void medium::loopback(node_id node, util::shared_bytes payload) {
  sim_.schedule_at(sim_.now(), [this, node, payload] {
    host& h = hosts_.at(node);
    if (h.receiver) h.receiver(node, payload);
  });
}

}  // namespace dbsm::net
