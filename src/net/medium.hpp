// The simulated datagram network (the SSFNet substitute, §2.1).
//
// A medium connects hosts and moves unreliable unordered datagrams between
// them. This class implements everything the network models share: hosts
// and their receivers, each host's egress queue (a finite buffer drained
// at the host's link bandwidth; overflow drops, which is what a flooding
// UDP sender observes), reception, loopback, the counters behind Fig 6(c)
// and the injection points of §5.3 (per-receiver loss models, host crash
// isolation, directional link cuts for partitions, per-link extra delay).
// A subclass supplies only the wire timing between a sender's uplink and
// the receiver: net::lan the switched Ethernet, net::wan the wide-area
// mesh.
#ifndef DBSM_NET_MEDIUM_HPP
#define DBSM_NET_MEDIUM_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/loss_model.hpp"
#include "sim/simulator.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dbsm::net {

/// IP (20) + UDP (8) header bytes of every datagram (on the LAN, of every
/// MTU fragment).
inline constexpr std::size_t ip_udp_header = 28;
/// A host's egress buffer (socket + driver), in payload bytes.
inline constexpr std::size_t tx_buffer_bytes = 256 * 1024;
/// Largest datagram payload a medium accepts (the UDP payload limit).
inline constexpr std::size_t max_datagram_payload = 62 * 1024;

/// Callback delivering a datagram payload to a host's protocol stack.
using receiver_fn = std::function<void(node_id from, util::shared_bytes)>;

/// Optional per-event trace hook (tcpdump-style observation).
/// kind: 's' sent, 'd' delivered, 'l' lost (fault injection), 'o' overflow.
using trace_fn = std::function<void(char kind, node_id from, node_id to,
                                    std::size_t bytes, sim_time at)>;

class medium {
 public:
  /// `bandwidth_bps` is the rate of every host's link.
  medium(sim::simulator& sim, double bandwidth_bps, util::rng gen);
  virtual ~medium() = default;

  medium(const medium&) = delete;
  medium& operator=(const medium&) = delete;

  /// Adds a host; returns its node id (0, 1, 2, ...).
  virtual node_id add_host();

  /// Registers the datagram receiver of `node`.
  void set_receiver(node_id node, receiver_fn fn);

  /// Sends a unicast datagram. Best-effort: may be dropped by queues,
  /// loss models, or crashed endpoints.
  virtual void send(node_id from, node_id to, util::shared_bytes payload) = 0;

  /// Sends to every other host (IP multicast where the medium supports it).
  virtual void multicast(node_id from, util::shared_bytes payload) = 0;

  /// Transmissions one multicast costs the sending host's CPU/NIC.
  virtual unsigned multicast_fanout(node_id from) const = 0;

  /// Installs a loss model applied to datagrams *received* by `node`
  /// (the paper injects loss upon reception, §5.3).
  void set_rx_loss(node_id node, std::shared_ptr<loss_model> model);

  /// Isolates a crashed host: nothing in, nothing out, from now on.
  void isolate(node_id node);

  /// Reconnects a previously isolated host (site recovery): traffic flows
  /// again from now on; datagrams dropped while isolated stay dropped.
  void restore(node_id node);

  /// Cuts (or heals) the link between two hosts in both directions:
  /// datagrams whose delivery would cross a cut link are discarded at
  /// reception time, so a cut also kills traffic already in flight.
  /// Network partitions are sets of cut links between two host groups.
  void set_link_cut(node_id a, node_id b, bool cut);

  /// Directional cut: only datagrams travelling `from` → `to` are
  /// discarded; the reverse direction keeps flowing. One-way faults
  /// exercise the failure detector's asymmetric-suspicion paths.
  void set_link_cut_oneway(node_id from, node_id to, bool cut);

  /// Adds extra one-way delay (both directions) to datagrams crossing the
  /// link between two hosts; 0 restores nominal timing. Models a degraded
  /// path without dropping traffic.
  void set_link_extra_delay(node_id a, node_id b, sim_duration extra);

  /// Directional extra delay: applies only to datagrams travelling
  /// `from` → `to`.
  void set_link_extra_delay_oneway(node_id from, node_id to,
                                   sim_duration extra);

  /// Wire-level bytes transmitted by `node` (payload + all header overhead).
  std::uint64_t wire_bytes_sent(node_id node) const;
  /// Sum of wire bytes transmitted by all hosts.
  std::uint64_t total_wire_bytes() const;
  /// Datagrams dropped at the sender because the egress buffer was full.
  std::uint64_t overflow_drops(node_id node) const;
  /// Datagrams discarded by the injected loss model at this receiver.
  std::uint64_t injected_losses(node_id node) const;
  /// Datagrams discarded at this receiver because their link was cut.
  std::uint64_t link_cut_drops(node_id node) const;

  /// Installs a trace hook (pass nullptr to disable).
  void set_tracer(trace_fn fn);

 protected:
  std::size_t host_count() const { return hosts_.size(); }
  bool isolated(node_id node) const { return hosts_.at(node).isolated; }

  /// Checks a datagram handed to send()/multicast(); false when the
  /// sender is isolated and sends nothing.
  bool may_send(node_id from, const util::shared_bytes& payload) const;

  void trace(char kind, node_id from, node_id to, std::size_t bytes) const {
    if (tracer_) tracer_(kind, from, to, bytes, sim_.now());
  }

  /// Time `wire_bytes` take to serialize at the link bandwidth.
  sim_duration serialization_time(std::size_t wire_bytes) const;

  /// Queues one transmission of `wire_bytes` on the uplink of `from`,
  /// behind its earlier ones. Returns the time its last bit leaves, or
  /// time_never when `payload_bytes` would overflow the egress buffer
  /// (the datagram is dropped, counted and traced).
  sim_time transmit(node_id from, std::size_t payload_bytes,
                    std::size_t wire_bytes);

  /// Schedules reception of `payload` at `to` at time `at` plus the
  /// link's extra delay. On arrival an isolated receiver, a cut link and
  /// then the receiver's loss model may discard it; otherwise the
  /// receiver runs.
  void deliver(node_id from, node_id to, util::shared_bytes payload,
               sim_time at);

  /// Hands a datagram a host sent to itself back to its receiver now,
  /// off the wire (kernel short-circuit).
  void loopback(node_id node, util::shared_bytes payload);

 private:
  struct host {
    receiver_fn receiver;
    std::shared_ptr<loss_model> rx_loss;
    bool isolated = false;
    sim_time tx_free_at = 0;
    std::size_t tx_queued_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t overflow = 0;
    std::uint64_t injected_lost = 0;
    std::uint64_t cut_dropped = 0;
  };
  /// Fault state of one direction of a link.
  struct link_fault {
    bool cut = false;
    sim_duration extra_delay = 0;
  };

  static std::uint64_t link_key(node_id from, node_id to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  link_fault& link(node_id from, node_id to);
  bool cut(node_id from, node_id to) const;

  sim::simulator& sim_;
  double bandwidth_bps_;
  util::rng rng_;
  std::vector<host> hosts_;
  /// Keyed by ordered (from, to) pair; empty until a link fault is set.
  std::unordered_map<std::uint64_t, link_fault> links_;
  trace_fn tracer_;
};

}  // namespace dbsm::net

#endif  // DBSM_NET_MEDIUM_HPP
