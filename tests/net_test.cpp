// Tests of the network model: LAN timing (serialization, MTU framing,
// receive-side capacity), multicast replication, loss models, WAN latency,
// and the medium's fault paths (cuts, extra delay, isolation, receiver
// loss, egress overflow) run over both the LAN and the WAN.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "net/lan.hpp"
#include "net/loss_model.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"

namespace dbsm::net {
namespace {

util::shared_bytes payload_of(std::size_t n) {
  util::buffer_writer w;
  w.put_padding(n);
  return w.take();
}

struct lan_fixture {
  sim::simulator s;
  std::unique_ptr<lan> net;
  std::vector<std::vector<std::pair<node_id, std::size_t>>> received;
  std::vector<std::vector<sim_time>> arrival_times;

  explicit lan_fixture(unsigned hosts) {
    net = std::make_unique<lan>(s, lan_config{}, util::rng(1));
    received.resize(hosts);
    arrival_times.resize(hosts);
    for (unsigned i = 0; i < hosts; ++i) {
      EXPECT_EQ(net->add_host(), i);
      net->set_receiver(i, [this, i](node_id from, util::shared_bytes p) {
        received[i].emplace_back(from, p->size());
        arrival_times[i].push_back(s.now());
      });
    }
  }
};

TEST(lan, unicast_delivery_and_timing) {
  lan_fixture f(2);
  f.net->send(0, 1, payload_of(1000));
  f.s.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].first, 0u);
  EXPECT_EQ(f.received[1][0].second, 1000u);
  // 1000B + 28 IP/UDP + 38 frame = 1066B wire; tx + switch + rx:
  // 2 * (1066*8/100e6) + 30us = 2*85.28us + 30us ~ 200.56us.
  const double expect_us = 2 * (1066.0 * 8 / 100e6 * 1e6) + 30.0;
  EXPECT_NEAR(to_micros(f.arrival_times[1][0]), expect_us, 1.0);
}

TEST(lan, fragmentation_counts_per_frame_overhead) {
  lan_fixture f(2);
  f.net->send(0, 1, payload_of(4000));  // 3 frames (1472 payload each)
  f.s.run();
  // wire = 4000 + 3*(28+38) = 4198 bytes.
  EXPECT_EQ(f.net->wire_bytes_sent(0), 4198u);
}

TEST(lan, multicast_reaches_all_but_sender_once_on_uplink) {
  lan_fixture f(4);
  f.net->multicast(0, payload_of(500));
  f.s.run();
  EXPECT_TRUE(f.received[0].empty());
  for (unsigned i = 1; i < 4; ++i) {
    ASSERT_EQ(f.received[i].size(), 1u) << "host " << i;
  }
  // Sender pays one transmission: 500+28+38 = 566 wire bytes.
  EXPECT_EQ(f.net->wire_bytes_sent(0), 566u);
  EXPECT_EQ(f.net->multicast_fanout(0), 1u);
}

TEST(lan, receiver_serialization_caps_goodput) {
  // Two senders flooding one receiver: arrival rate is bounded by the
  // receiver downlink (~94 Mbit/s of goodput at 1472-byte fragments).
  lan_fixture f(3);
  const std::size_t msg = 1472;
  for (int i = 0; i < 50; ++i) {
    f.net->send(0, 2, payload_of(msg));
    f.net->send(1, 2, payload_of(msg));
  }
  f.s.run();
  ASSERT_EQ(f.received[2].size(), 100u);
  const double seconds = to_seconds(f.arrival_times[2].back());
  const double goodput_bps = 100.0 * msg * 8 / seconds;
  EXPECT_LT(goodput_bps, 100e6);
  EXPECT_GT(goodput_bps, 85e6);
}

TEST(lan, egress_buffer_overflow_drops) {
  // 300 KiB handed to the 256 KiB egress buffer at one instant.
  lan_fixture f(2);
  for (int i = 0; i < 300; ++i) f.net->send(0, 1, payload_of(1024));
  f.s.run();
  EXPECT_GT(f.net->overflow_drops(0), 0u);
  EXPECT_LT(f.received[1].size(), 300u);
  EXPECT_GT(f.received[1].size(), 5u);
}

TEST(lan, loopback_send_to_self) {
  lan_fixture f(2);
  f.net->send(1, 1, payload_of(64));
  f.s.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].first, 1u);
}

TEST(lan, isolation_cuts_both_directions) {
  lan_fixture f(3);
  f.net->isolate(1);
  f.net->send(0, 1, payload_of(100));
  f.net->send(1, 0, payload_of(100));
  f.net->multicast(2, payload_of(100));
  f.s.run();
  EXPECT_TRUE(f.received[1].empty());
  ASSERT_EQ(f.received[0].size(), 1u);  // only host 2's multicast
  EXPECT_EQ(f.received[0][0].first, 2u);
}

TEST(lan, rx_loss_model_applied) {
  lan_fixture f(2);
  f.net->set_rx_loss(1, random_loss(1.0));
  for (int i = 0; i < 10; ++i) f.net->send(0, 1, payload_of(100));
  f.s.run();
  EXPECT_TRUE(f.received[1].empty());
  EXPECT_EQ(f.net->injected_losses(1), 10u);
}

TEST(lan, tracer_sees_events) {
  lan_fixture f(2);
  std::vector<char> kinds;
  f.net->set_tracer([&](char k, node_id, node_id, std::size_t, sim_time) {
    kinds.push_back(k);
  });
  f.net->send(0, 1, payload_of(100));
  f.s.run();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], 's');
  EXPECT_EQ(kinds[1], 'd');
  // A datagram the receiver's loss model drops is seen as a loss.
  f.net->set_rx_loss(1, random_loss(1.0));
  f.net->send(0, 1, payload_of(100));
  f.s.run();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[2], 's');
  EXPECT_EQ(kinds[3], 'l');
}

TEST(loss_models, random_loss_rate_converges) {
  util::rng g(5);
  auto m = random_loss(0.05);
  int dropped = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (m->drop(g)) ++dropped;
  EXPECT_NEAR(dropped / static_cast<double>(n), 0.05, 0.005);
}

TEST(loss_models, bursty_loss_rate_and_burstiness) {
  util::rng g(6);
  auto m = bursty_loss(0.05, 5.0);
  int dropped = 0, bursts = 0;
  bool prev = false;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const bool d = m->drop(g);
    if (d && !prev) ++bursts;
    if (d) ++dropped;
    prev = d;
  }
  EXPECT_NEAR(dropped / static_cast<double>(n), 0.05, 0.01);
  // Mean burst length ~5 messages.
  EXPECT_NEAR(dropped / static_cast<double>(bursts), 5.0, 1.0);
}

TEST(wan, latency_and_fanout) {
  sim::simulator s;
  wan_config cfg;
  cfg.default_latency = milliseconds(25);
  wan w(s, cfg, util::rng(1));
  std::vector<std::vector<sim_time>> at(3);
  for (unsigned i = 0; i < 3; ++i) {
    w.add_host();
    w.set_receiver(i, [&at, i, &s](node_id, util::shared_bytes) {
      at[i].push_back(s.now());
    });
  }
  w.set_latency(0, 2, milliseconds(80));
  EXPECT_EQ(w.multicast_fanout(0), 2u);

  w.multicast(0, payload_of(100));
  s.run();
  ASSERT_EQ(at[1].size(), 1u);
  ASSERT_EQ(at[2].size(), 1u);
  EXPECT_NEAR(to_millis(at[1][0]), 25.0, 1.0);
  EXPECT_NEAR(to_millis(at[2][0]), 80.0, 1.0);
}

// --- the medium's fault paths, on both media ---

template <class Medium>
class medium_faults : public ::testing::Test {
 protected:
  using config = std::conditional_t<std::is_same_v<Medium, lan>, lan_config,
                                    wan_config>;
  struct arrival {
    node_id from;
    sim_time at;
  };

  medium_faults() {
    for (node_id i = 0; i < 3; ++i) {
      EXPECT_EQ(net.add_host(), i);
      net.set_receiver(i, [this, i](node_id from, util::shared_bytes) {
        arrivals[i].push_back({from, s.now()});
      });
    }
  }

  /// Delivers one datagram over the idle network; returns its transit
  /// time (-1 if it never arrived).
  sim_duration transit(node_id from, node_id to) {
    const sim_time sent = s.now();
    const std::size_t before = arrivals[to].size();
    net.send(from, to, payload_of(200));
    s.run();
    if (arrivals[to].size() != before + 1) return -1;
    return arrivals[to].back().at - sent;
  }

  sim::simulator s;
  Medium net{s, config{}, util::rng(1)};
  std::vector<arrival> arrivals[3];
};

using media = ::testing::Types<lan, wan>;
TYPED_TEST_SUITE(medium_faults, media);

TYPED_TEST(medium_faults, symmetric_cut_drops_in_flight_datagrams) {
  auto& f = *this;
  f.net.send(0, 1, payload_of(200));
  f.net.send(1, 0, payload_of(200));
  // Both datagrams are on the wire when the link goes down.
  f.s.schedule_at(1, [&f] { f.net.set_link_cut(0, 1, true); });
  f.s.run();
  EXPECT_TRUE(f.arrivals[0].empty());
  EXPECT_TRUE(f.arrivals[1].empty());
  EXPECT_EQ(f.net.link_cut_drops(0), 1u);
  EXPECT_EQ(f.net.link_cut_drops(1), 1u);
  EXPECT_GT(f.transit(2, 1), 0);  // other links keep flowing
  f.net.set_link_cut(0, 1, false);
  EXPECT_GT(f.transit(0, 1), 0);
  EXPECT_GT(f.transit(1, 0), 0);
  EXPECT_EQ(f.net.link_cut_drops(0) + f.net.link_cut_drops(1), 2u);
}

TYPED_TEST(medium_faults, oneway_cut_drops_only_its_direction) {
  auto& f = *this;
  f.net.send(0, 1, payload_of(200));
  f.net.send(1, 0, payload_of(200));
  f.s.schedule_at(1, [&f] { f.net.set_link_cut_oneway(0, 1, true); });
  f.s.run();
  EXPECT_TRUE(f.arrivals[1].empty());
  ASSERT_EQ(f.arrivals[0].size(), 1u);
  EXPECT_EQ(f.arrivals[0][0].from, 1u);
  EXPECT_EQ(f.net.link_cut_drops(1), 1u);
  EXPECT_EQ(f.net.link_cut_drops(0), 0u);
}

TYPED_TEST(medium_faults, extra_delay_moves_arrival_by_exactly_the_delay) {
  auto& f = *this;
  const sim_duration forward = f.transit(0, 1);
  const sim_duration back = f.transit(1, 0);
  ASSERT_GT(forward, 0);
  ASSERT_GT(back, 0);
  const sim_duration extra = milliseconds(7);
  f.net.set_link_extra_delay(0, 1, extra);
  EXPECT_EQ(f.transit(0, 1), forward + extra);
  EXPECT_EQ(f.transit(1, 0), back + extra);
  f.net.set_link_extra_delay(0, 1, 0);
  f.net.set_link_extra_delay_oneway(1, 0, extra);
  EXPECT_EQ(f.transit(0, 1), forward);
  EXPECT_EQ(f.transit(1, 0), back + extra);
  EXPECT_EQ(f.transit(2, 0), f.transit(2, 1));  // other links untouched
}

TYPED_TEST(medium_faults, isolate_and_restore) {
  auto& f = *this;
  f.net.send(0, 1, payload_of(200));
  f.s.schedule_at(1, [&f] { f.net.isolate(1); });  // dies in flight
  f.s.run();
  f.net.send(0, 1, payload_of(200));
  f.net.send(1, 0, payload_of(200));
  f.net.multicast(2, payload_of(200));
  f.s.run();
  EXPECT_TRUE(f.arrivals[1].empty());
  ASSERT_EQ(f.arrivals[0].size(), 1u);  // only host 2's multicast
  EXPECT_EQ(f.arrivals[0][0].from, 2u);
  EXPECT_EQ(f.net.wire_bytes_sent(1), 0u);  // nothing out
  f.net.restore(1);
  EXPECT_GT(f.transit(0, 1), 0);
  EXPECT_GT(f.transit(1, 0), 0);
  EXPECT_EQ(f.arrivals[1].size(), 1u);  // dropped datagrams stay dropped
}

TYPED_TEST(medium_faults, receiver_loss_counts_injected_losses) {
  auto& f = *this;
  f.net.set_rx_loss(1, random_loss(1.0));
  for (int i = 0; i < 10; ++i) f.net.send(0, 1, payload_of(200));
  f.net.multicast(2, payload_of(200));
  f.s.run();
  EXPECT_TRUE(f.arrivals[1].empty());
  EXPECT_EQ(f.net.injected_losses(1), 11u);
  EXPECT_EQ(f.arrivals[0].size(), 1u);  // other receivers unaffected
  // A cut link discards a datagram before the loss model sees it.
  f.net.set_link_cut_oneway(0, 1, true);
  EXPECT_EQ(f.transit(0, 1), -1);
  EXPECT_EQ(f.net.link_cut_drops(1), 1u);
  EXPECT_EQ(f.net.injected_losses(1), 11u);
  f.net.set_link_cut_oneway(0, 1, false);
  f.net.set_rx_loss(1, nullptr);
  EXPECT_GT(f.transit(0, 1), 0);
  EXPECT_EQ(f.net.injected_losses(1), 11u);
}

TYPED_TEST(medium_faults, egress_overflow_is_counted_and_traced_at_the_sender) {
  auto& f = *this;
  std::vector<std::pair<node_id, node_id>> overflows;
  f.net.set_tracer(
      [&](char kind, node_id from, node_id to, std::size_t, sim_time) {
        if (kind == 'o') overflows.emplace_back(from, to);
      });
  // 300 KiB handed over at one instant: the egress buffer takes 256 KiB.
  for (int i = 0; i < 300; ++i) f.net.send(0, 1, payload_of(1024));
  f.s.run();
  EXPECT_EQ(f.arrivals[1].size(), tx_buffer_bytes / 1024);
  EXPECT_EQ(f.net.overflow_drops(0), 300 - tx_buffer_bytes / 1024);
  ASSERT_EQ(overflows.size(), f.net.overflow_drops(0));
  for (const auto& [from, to] : overflows) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(to, 0u);
  }
  EXPECT_GT(f.transit(0, 1), 0);  // the buffer drained
}

}  // namespace
}  // namespace dbsm::net
