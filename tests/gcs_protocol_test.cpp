// Protocol-level unit tests of the reliable multicast and total order
// layers, and of the group's datagram dispatch under malformed input,
// driven by a scripted fake env: exact control over datagram delivery,
// loss, reordering, and timer firing.
#include <gtest/gtest.h>

#include "fake_env.hpp"
#include "gcs/group.hpp"
#include "gcs/rmcast.hpp"
#include "gcs/sequencer.hpp"
#include "util/check.hpp"

namespace dbsm::gcs {
namespace {

using test::fake_env;

util::shared_bytes text_payload(const std::string& s) {
  return std::make_shared<util::bytes>(s.begin(), s.end());
}

struct rmcast_fixture {
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  std::unique_ptr<reliable_mcast> rm;
  struct delivered_msg {
    node_id sender;
    std::uint64_t app_seq;
    std::string text;
    std::uint64_t last_dgram;
  };
  std::vector<delivered_msg> delivered;

  explicit rmcast_fixture(group_config c = {}) : cfg(c) {
    rm = std::make_unique<reliable_mcast>(env, cfg, std::vector<node_id>{
                                                        0, 1, 2});
    rm->set_app_handler([this](node_id sender, std::uint64_t app_seq,
                               util::shared_bytes payload,
                               std::uint64_t last_dgram) {
      delivered.push_back({sender, app_seq,
                           std::string(payload->begin(), payload->end()),
                           last_dgram});
    });
  }

  /// Crafts a DATA datagram as peer `sender` would send it.
  static std::pair<data_msg, util::shared_bytes> make_data(
      node_id sender, std::uint64_t dgram_seq, std::uint64_t app_seq,
      const std::string& text, std::uint16_t frag_idx = 0,
      std::uint16_t frag_cnt = 1) {
    data_msg m;
    m.hdr = {msg_type::data, 1, sender};
    m.dgram_seq = dgram_seq;
    m.app_seq = app_seq;
    m.frag_idx = frag_idx;
    m.frag_cnt = frag_cnt;
    m.payload = text_payload(text);
    return {m, encode(m)};
  }

  void receive(node_id sender, std::uint64_t dgram_seq,
               std::uint64_t app_seq, const std::string& text,
               std::uint16_t frag_idx = 0, std::uint16_t frag_cnt = 1) {
    auto [m, raw] = make_data(sender, dgram_seq, app_seq, text, frag_idx,
                              frag_cnt);
    rm->on_data(m, raw);
  }
};

TEST(rmcast_protocol, broadcast_self_delivers_and_transmits) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("hello"));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].sender, 0u);
  EXPECT_EQ(f.delivered[0].app_seq, 1u);
  EXPECT_EQ(f.delivered[0].text, "hello");
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, invalid_node);  // multicast
  const data_msg m = decode_data(out[0].payload);
  EXPECT_EQ(m.dgram_seq, 1u);
  EXPECT_EQ(m.frag_cnt, 1);
}

TEST(rmcast_protocol, large_payload_fragments) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload(std::string(2500, 'x')));  // 1024 max frag
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    const data_msg m = decode_data(out[i].payload);
    EXPECT_EQ(m.frag_idx, i);
    EXPECT_EQ(m.frag_cnt, 3);
    EXPECT_EQ(m.app_seq, 1u);
    EXPECT_EQ(m.dgram_seq, i + 1);
  }
}

TEST(rmcast_protocol, in_order_app_delivery) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 2, 2, "b");
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].text, "a");
  EXPECT_EQ(f.delivered[1].text, "b");
  EXPECT_EQ(f.rm->prefixes(), (std::vector<std::uint64_t>{0, 2, 0}));
}

TEST(rmcast_protocol, gap_blocks_delivery_until_filled) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 3, 3, "c");  // gap at 2
  EXPECT_EQ(f.delivered.size(), 1u);
  f.receive(1, 2, 2, "b");  // fills the gap
  ASSERT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.delivered[1].text, "b");
  EXPECT_EQ(f.delivered[2].text, "c");
}

TEST(rmcast_protocol, gap_triggers_nak_with_backoff) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 4, 4, "d");  // gaps at 2, 3
  f.env.take_outbox();
  f.env.advance(f.cfg.nak_delay + 1);
  auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1u);  // unicast to the sender
  const nak_msg nak = decode_nak(out[0].payload);
  EXPECT_EQ(nak.target_sender, 1u);
  EXPECT_EQ(nak.missing, (std::vector<std::uint64_t>{2, 3}));
  // Still missing: the next NAK fires after a doubled interval.
  f.env.advance(f.cfg.nak_delay);
  EXPECT_TRUE(f.env.take_outbox().empty());
  f.env.advance(f.cfg.nak_delay + 1);
  out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(decode_nak(out[0].payload).missing.size(), 2u);
  EXPECT_GT(f.rm->get_stats().naks_sent, 1u);
}

TEST(rmcast_protocol, nak_stops_after_gap_closes) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 3, 3, "c");
  f.receive(1, 2, 2, "b");
  f.env.take_outbox();
  f.env.advance(seconds(1));
  EXPECT_TRUE(f.env.take_outbox().empty());
}

TEST(rmcast_protocol, duplicates_are_counted_and_dropped) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  f.receive(1, 1, 1, "a");
  f.receive(1, 1, 1, "a");
  EXPECT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.rm->get_stats().duplicates, 2u);
}

TEST(rmcast_protocol, serves_retransmissions_from_send_buffer) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("keepme"));
  f.env.take_outbox();
  nak_msg nak;
  nak.hdr = {msg_type::nak, 1, 2};  // node 2 asks
  nak.target_sender = 0;
  nak.missing = {1};
  f.rm->on_nak(nak);
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  const data_msg m = decode_data(out[0].payload);
  EXPECT_EQ(m.dgram_seq, 1u);
  EXPECT_EQ(f.rm->get_stats().retransmissions, 1u);
}

TEST(rmcast_protocol, forwards_foreign_datagrams_from_retention) {
  // Flush-time forwarding: node 0 retains node 1's datagram and serves it
  // to node 2 on request.
  rmcast_fixture f;
  f.receive(1, 1, 1, "kept");
  f.env.take_outbox();
  nak_msg nak;
  nak.hdr = {msg_type::nak, 1, 2};
  nak.target_sender = 1;
  nak.missing = {1};
  f.rm->on_nak(nak);
  const auto out = f.env.take_outbox();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  const data_msg m = decode_data(out[0].payload);
  EXPECT_EQ(m.hdr.sender, 1u);  // original sender preserved
}

TEST(rmcast_protocol, garbage_collection_frees_quota) {
  rmcast_fixture f;
  f.rm->broadcast(text_payload("a"));
  f.rm->broadcast(text_payload("b"));
  f.env.take_outbox();
  EXPECT_GT(f.rm->quota_used(), 0u);
  f.rm->collect_garbage({2, 0, 0});  // own stream stable through seq 2
  EXPECT_EQ(f.rm->quota_used(), 0u);
}

TEST(rmcast_protocol, quota_exhaustion_blocks_then_gc_unblocks) {
  group_config cfg;
  cfg.total_buffer_msgs = 3 * 2;  // share: 2 datagrams
  rmcast_fixture f(cfg);
  f.rm->broadcast(text_payload("m1"));
  f.rm->broadcast(text_payload("m2"));
  f.rm->broadcast(text_payload("m3"));  // exceeds the share
  EXPECT_EQ(f.env.take_outbox().size(), 2u);
  EXPECT_TRUE(f.rm->blocked());
  EXPECT_EQ(f.rm->tx_backlog(), 1u);
  f.rm->collect_garbage({2, 0, 0});
  EXPECT_FALSE(f.rm->blocked());
  EXPECT_EQ(f.env.take_outbox().size(), 1u);
  EXPECT_GT(f.rm->get_stats().blocked_time, -1);
  EXPECT_EQ(f.rm->get_stats().blocked_episodes, 1u);
}

TEST(rmcast_protocol, fragments_reassemble_in_order_only) {
  rmcast_fixture f;
  // Fragments arrive out of order; the message completes when the prefix
  // reaches the last fragment.
  f.receive(1, 2, 1, "B", 1, 2);
  EXPECT_TRUE(f.delivered.empty());
  f.receive(1, 1, 1, "A", 0, 2);
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].text, "AB");
  EXPECT_EQ(f.delivered[0].last_dgram, 2u);
}

TEST(rmcast_protocol, flush_reaches_cut_and_reports) {
  rmcast_fixture f;
  f.receive(1, 1, 1, "a");
  bool done = false;
  f.rm->ensure_up_to({0, 3, 0}, {0, 2, 0}, [&] { done = true; });
  EXPECT_FALSE(done);
  // The flush NAKs the designated source (node 2) for 2 and 3.
  auto out = f.env.take_outbox();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].to, 2u);
  const nak_msg nak = decode_nak(out[0].payload);
  EXPECT_EQ(nak.target_sender, 1u);
  EXPECT_EQ(nak.missing, (std::vector<std::uint64_t>{2, 3}));
  f.receive(1, 2, 2, "b");
  f.receive(1, 3, 3, "c");
  EXPECT_TRUE(done);
}

// ---------- total order ----------

struct order_fixture {
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  total_order to{env, cfg};
  std::vector<std::pair<std::uint64_t, std::string>> delivered;
  std::vector<util::shared_bytes> sent_batches;

  order_fixture() {
    to.set_deliver([this](std::vector<delivery>&& run) {
      for (const delivery& d : run)
        delivered.emplace_back(
            d.global_seq, std::string(d.payload->begin(), d.payload->end()));
    });
    to.set_send_batch([this](util::shared_bytes batch) {
      sent_batches.push_back(std::move(batch));
    });
  }
};

/// An assignment record as a remote sequencer would send it: `keys` get
/// consecutive global sequences from `base`.
util::shared_bytes record(
    std::uint64_t base,
    std::vector<std::pair<node_id, std::uint64_t>> keys) {
  assignment_batch b;
  b.base = base;
  b.keys = std::move(keys);
  return encode_assignment_batch(b);
}

TEST(total_order, non_sequencer_waits_for_assignments) {
  order_fixture f;
  f.to.set_sequencer(1);  // someone else
  f.to.on_user_msg(2, 1, text_payload("x"), 1);
  EXPECT_TRUE(f.delivered.empty());
  f.to.on_assignment_batch(record(1, {{2, 1}}));
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, 1u);
}

TEST(total_order, sequencer_assignments_take_effect_via_wire_echo) {
  order_fixture f;
  f.to.set_sequencer(0);  // we are the sequencer
  f.to.on_user_msg(1, 1, text_payload("x"), 1);
  // The batch closes on the timer; nothing delivered until the record
  // comes back through our own reliable stream.
  f.env.advance(f.cfg.batch_delay + 1);
  ASSERT_EQ(f.sent_batches.size(), 1u);
  EXPECT_TRUE(f.delivered.empty());
  f.to.on_assignment_batch(f.sent_batches[0]);
  ASSERT_EQ(f.delivered.size(), 1u);
}

TEST(total_order, batch_flushes_at_size_threshold) {
  order_fixture f;
  f.to.set_sequencer(0);
  for (std::uint64_t i = 1; i <= f.cfg.batch_max; ++i)
    f.to.on_user_msg(1, i, text_payload("m"), i);
  // Full batch closed without waiting for the timer.
  ASSERT_EQ(f.sent_batches.size(), 1u);
  EXPECT_EQ(decode_assignment_batch(f.sent_batches[0]).keys.size(),
            f.cfg.batch_max);
}

TEST(total_order, batch_of_one_closes_per_payload) {
  // batch_max = 1, the degenerate case: every key is its own record, with
  // no timer wait.
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  cfg.batch_max = 1;
  total_order to{env, cfg};
  std::vector<util::shared_bytes> sent;
  to.set_send_batch([&](util::shared_bytes b) { sent.push_back(b); });
  to.set_sequencer(0);
  to.on_user_msg(1, 1, text_payload("a"), 1);
  to.on_user_msg(2, 1, text_payload("b"), 1);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(decode_assignment_batch(sent[1]).base, 2u);
  EXPECT_EQ(env.pending_timers(), 0u);
}

TEST(total_order, takeover_rescan_survives_records_self_delivering) {
  // A new sequencer assigns its whole complete-but-unordered backlog. With
  // one-key batches every record closes inside the rescan, and its
  // self-delivery (the echo below, synchronous as in the group) delivers
  // and erases messages of the map being scanned.
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  cfg.batch_max = 1;
  total_order to{env, cfg};
  std::vector<std::string> delivered;
  to.set_deliver([&](std::vector<delivery>&& run) {
    for (const delivery& d : run)
      delivered.emplace_back(d.payload->begin(), d.payload->end());
  });
  to.set_send_batch([&](util::shared_bytes b) { to.on_assignment_batch(b); });
  to.set_sequencer(1);
  for (std::uint64_t i = 1; i <= 5; ++i)
    to.on_user_msg(2, i, text_payload("m" + std::to_string(i)), i);
  to.set_sequencer(0);  // takeover
  EXPECT_EQ(delivered,
            (std::vector<std::string>{"m1", "m2", "m3", "m4", "m5"}));
  EXPECT_EQ(to.pending_unordered(), 0u);
}

TEST(total_order, delivery_strictly_follows_global_sequence) {
  order_fixture f;
  f.to.set_sequencer(1);
  f.to.on_user_msg(2, 1, text_payload("second"), 1);
  f.to.on_user_msg(1, 1, text_payload("first"), 1);
  // Assignments: (1,1)->1, (2,1)->2; payload for 2 arrived first.
  f.to.on_assignment_batch(record(1, {{1, 1}, {2, 1}}));
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].second, "first");
  EXPECT_EQ(f.delivered[1].second, "second");
}

TEST(total_order, missing_payload_stalls_subsequent_deliveries) {
  order_fixture f;
  f.to.set_sequencer(1);
  f.to.on_assignment_batch(record(1, {{1, 1}, {2, 1}}));
  f.to.on_user_msg(2, 1, text_payload("later"), 1);
  EXPECT_TRUE(f.delivered.empty());  // seq 1's payload still missing
  f.to.on_user_msg(1, 1, text_payload("now"), 1);
  ASSERT_EQ(f.delivered.size(), 2u);
}

TEST(total_order, install_view_delivers_backlog_deterministically) {
  // Two replicas with identical flushed state must deliver identical
  // sequences at view installation, including unassigned messages.
  auto run = [](const char* tag) {
    order_fixture f;
    f.to.set_sequencer(2);  // sequencer about to be excluded
    f.to.on_user_msg(1, 1, text_payload(std::string("u1") + tag), 5);
    f.to.on_user_msg(2, 1, text_payload("u2"), 3);
    // One wire-visible assignment for (2,1); (1,1) never got ordered.
    f.to.on_assignment_batch(record(1, {{2, 1}}));
    // Old view {0,1,2} with cuts; sender 2 crashed; new view {0,1}.
    f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
    std::vector<std::string> texts;
    for (const auto& [seq, text] : f.delivered) texts.push_back(text);
    return texts;
  };
  const auto a = run("");
  const auto b = run("");
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);  // both messages survive (within the cut)
}

TEST(total_order, install_view_drops_dead_senders_beyond_cut) {
  order_fixture f;
  f.to.set_sequencer(0);
  // Message from node 2 with last fragment beyond the agreed cut.
  f.to.on_user_msg(2, 5, text_payload("ghost"), 42);
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
  for (const auto& [seq, text] : f.delivered) {
    EXPECT_NE(text, "ghost");
  }
  EXPECT_EQ(f.to.pending_unordered(), 0u);
}

TEST(total_order, quiesce_holds_the_flush_until_view_install) {
  // The flush-quiesce barrier directly: once a view change quiesces
  // ordering, a firing close timer must mint nothing; the held batch
  // rolls back at install and surfaces as deterministic unassigned
  // backlog, and the continuing sequencer numbers past it.
  order_fixture f;
  f.to.set_sequencer(0);
  f.to.on_user_msg(1, 1, text_payload("held"), 1);
  f.to.quiesce();
  f.env.advance(f.cfg.batch_delay + 1);
  EXPECT_TRUE(f.sent_batches.empty());  // the fired timer minted nothing
  // A message completing mid-flush stays unassigned too.
  f.to.on_user_msg(2, 1, text_payload("late"), 1);
  EXPECT_TRUE(f.sent_batches.empty());
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1, 2});
  ASSERT_EQ(f.delivered.size(), 2u);  // backlog, (sender, app_seq) order
  EXPECT_EQ(f.delivered[0].second, "held");
  EXPECT_EQ(f.delivered[1].second, "late");
  f.to.set_sequencer(0);  // re-elected after the install
  f.to.on_user_msg(1, 2, text_payload("next"), 2);
  f.env.advance(f.cfg.batch_delay + 1);
  ASSERT_EQ(f.sent_batches.size(), 1u);
  const assignment_batch b = decode_assignment_batch(f.sent_batches[0]);
  ASSERT_EQ(b.keys.size(), 1u);
  EXPECT_EQ(b.base, 3u);  // continues past the two delivered
}

TEST(total_order, view_change_rolls_back_the_open_batch) {
  // Keys accumulated in an open batch are marked assigned but unminted; a
  // close firing mid-quiesce must hold, and the install must roll the
  // marks back so the keys are delivered as plain backlog — in one run —
  // with nothing minted and nothing lost.
  order_fixture f;
  std::size_t runs = 0;
  f.to.set_deliver([&](std::vector<delivery>&& run) {
    ++runs;
    for (const delivery& d : run)
      f.delivered.emplace_back(
          d.global_seq, std::string(d.payload->begin(), d.payload->end()));
  });
  f.to.set_sequencer(0);
  f.to.on_user_msg(1, 1, text_payload("a"), 1);
  f.to.on_user_msg(2, 1, text_payload("b"), 1);
  EXPECT_TRUE(f.sent_batches.empty());  // open batch: under size and delay
  f.to.quiesce();
  f.env.advance(f.cfg.batch_delay + 1);  // close timer fires while quiesced
  EXPECT_TRUE(f.sent_batches.empty());   // barrier holds: no mint mid-flush
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1, 2});
  ASSERT_EQ(f.delivered.size(), 2u);  // rolled back and delivered as backlog
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(f.delivered[0].second, "a");
  EXPECT_EQ(f.delivered[1].second, "b");
  f.to.set_sequencer(0);
  f.to.on_user_msg(1, 2, text_payload("c"), 2);
  f.env.advance(f.cfg.batch_delay + 1);
  ASSERT_EQ(f.sent_batches.size(), 1u);
  EXPECT_EQ(decode_assignment_batch(f.sent_batches[0]).base,
            3u);  // numbering runs on
  f.to.on_assignment_batch(f.sent_batches[0]);
  ASSERT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.delivered.back().first, 3u);
  EXPECT_EQ(f.delivered.back().second, "c");
}

TEST(total_order, orphan_assignments_are_skipped_consistently) {
  order_fixture f;
  f.to.set_sequencer(2);
  // The crashed sequencer ordered a message nobody holds.
  f.to.on_assignment_batch(record(1, {{2, 9}, {1, 1}}));
  f.to.on_user_msg(1, 1, text_payload("real"), 4);
  // Only seq 1 is missing its payload; delivery stalls.
  EXPECT_TRUE(f.delivered.empty());
  f.to.install_view({0, 1, 2}, {10, 10, 10}, {0, 1});
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, "real");
}

// ---------- malformed datagrams at the group dispatch ----------

/// One well-formed encoding of every wire type, as member 2 would send it
/// in view 1.
std::vector<util::shared_bytes> one_of_each_type() {
  auto hdr = [](msg_type t) { return header{t, 1, 2}; };
  std::vector<util::shared_bytes> out;
  data_msg d;
  d.hdr = hdr(msg_type::data);
  d.dgram_seq = 1;
  d.app_seq = 1;
  d.payload = text_payload("payload");
  out.push_back(encode(d));
  nak_msg n;
  n.hdr = hdr(msg_type::nak);
  n.target_sender = 1;
  n.missing = {3, 4};
  out.push_back(encode(n));
  stab_msg st;
  st.hdr = hdr(msg_type::stab);
  st.stable = {1, 2, 3};
  st.min_received = {1, 2, 3};
  out.push_back(encode(st));
  heartbeat_msg hb;
  hb.hdr = hdr(msg_type::heartbeat);
  hb.sent_high = 9;
  out.push_back(encode(hb));
  view_propose_msg vp;
  vp.hdr = hdr(msg_type::view_propose);
  vp.new_view_id = 2;
  vp.proposed_members = {1, 2};
  out.push_back(encode(vp));
  view_state_msg vs;
  vs.hdr = hdr(msg_type::view_state);
  vs.new_view_id = 2;
  vs.prefixes = {0, 0, 1};
  out.push_back(encode(vs));
  view_cut_msg vc;
  vc.hdr = hdr(msg_type::view_cut);
  vc.new_view_id = 2;
  vc.new_members = {1, 2};
  vc.cut = {0, 0, 1};
  vc.sources = {2, 2, 2};
  out.push_back(encode(vc));
  view_flush_ok_msg vf;
  vf.hdr = hdr(msg_type::view_flush_ok);
  vf.new_view_id = 2;
  out.push_back(encode(vf));
  view_install_msg vi;
  vi.hdr = hdr(msg_type::view_install);
  vi.new_view_id = 2;
  vi.new_members = {1, 2};
  vi.cut = {0, 0, 1};
  out.push_back(encode(vi));
  join_request_msg jr;
  jr.hdr = hdr(msg_type::join_request);
  jr.incarnation = 5;
  out.push_back(encode(jr));
  join_chunk_msg jc;
  jc.hdr = hdr(msg_type::join_chunk);
  jc.incarnation = 5;
  jc.payload = text_payload("chunk");
  out.push_back(encode(jc));
  join_chunk_ack_msg ja;
  ja.hdr = hdr(msg_type::join_chunk_ack);
  ja.incarnation = 5;
  out.push_back(encode(ja));
  join_fwd_msg jf;
  jf.hdr = hdr(msg_type::join_fwd);
  jf.incarnation = 5;
  jf.payload = text_payload("fwd");
  out.push_back(encode(jf));
  join_fwd_ack_msg jfa;
  jfa.hdr = hdr(msg_type::join_fwd_ack);
  jfa.incarnation = 5;
  out.push_back(encode(jfa));
  join_commit_msg jcm;
  jcm.hdr = hdr(msg_type::join_commit);
  jcm.incarnation = 5;
  jcm.members = {0, 1, 2};
  out.push_back(encode(jcm));
  join_done_msg jd;
  jd.hdr = hdr(msg_type::join_done);
  jd.incarnation = 5;
  out.push_back(encode(jd));
  return out;
}

TEST(group_dispatch, malformed_datagrams_are_dropped_and_counted) {
  fake_env env{0, {0, 1, 2}};
  group_config cfg;
  cfg.members = {0, 1, 2};
  group g(env, cfg);
  std::vector<std::string> delivered;
  g.set_deliver([&](std::vector<delivery>&& run) {
    for (const delivery& d : run)
      delivered.emplace_back(d.payload->begin(), d.payload->end());
  });
  g.start();

  // Every type truncated at every shorter length. Each prefix fails to
  // decode except one: a heartbeat cut back to its bare header is itself
  // a valid heartbeat (the high-water field is optional).
  const std::vector<util::shared_bytes> all = one_of_each_type();
  ASSERT_EQ(all.size(), 16u);  // wire types 1-16
  std::uint64_t expected = 0;
  for (const util::shared_bytes& raw : all) {
    EXPECT_EQ(decode_header(raw).view_id, 1u);
    for (std::size_t len = 0; len < raw->size(); ++len) {
      auto cut = std::make_shared<util::bytes>(raw->begin(),
                                               raw->begin() + len);
      EXPECT_NO_THROW(env.deliver(2, cut)) << "type " << int((*raw)[0])
                                           << " at " << len << " bytes";
      ++expected;
    }
  }
  --expected;  // the bare heartbeat header
  // The retired token type (17, in its old 29-byte layout) and a type
  // byte never assigned.
  for (const std::uint8_t type : {std::uint8_t{17}, std::uint8_t{200}}) {
    util::buffer_writer w(29);
    w.put_u8(type);
    w.put_u32(1);  // view
    w.put_u32(2);  // sender
    w.put_u64(1);
    w.put_u64(1);
    w.put_u32(0);
    EXPECT_NO_THROW(env.deliver(2, w.take())) << "type " << int(type);
    ++expected;
  }
  // A payload length far past the datagram's end is rejected before
  // anything is allocated.
  util::buffer_writer huge(33);
  huge.put_u8(static_cast<std::uint8_t>(msg_type::data));
  huge.put_u32(1);  // view
  huge.put_u32(2);  // sender
  huge.put_u64(1);  // dgram_seq
  huge.put_u64(1);  // app_seq
  huge.put_u16(0);  // frag_idx
  huge.put_u16(1);  // frag_cnt
  huge.put_u32(0xffffffffu);
  EXPECT_NO_THROW(env.deliver(2, huge.take()));
  ++expected;
  EXPECT_EQ(g.malformed_dropped(), expected);
  EXPECT_EQ(g.view_changes(), 0u);

  // Valid traffic still flows: member 2's message is ordered by this
  // node (the sequencer) and delivered once the batch closes.
  data_msg m;
  m.hdr = {msg_type::data, 1, 2};
  m.dgram_seq = 1;
  m.app_seq = 1;
  m.payload = std::make_shared<util::bytes>(util::bytes{0, 'o', 'k'});
  env.deliver(2, encode(m));
  env.advance(cfg.batch_delay + 1);
  EXPECT_EQ(delivered, (std::vector<std::string>{"ok"}));
  EXPECT_EQ(g.malformed_dropped(), expected);

  // A datagram that decodes but breaks an invariant inside its handler
  // (an application message of unknown kind) still stops the run.
  m.dgram_seq = 2;
  m.app_seq = 2;
  m.payload = std::make_shared<util::bytes>(util::bytes{7, 'x'});
  EXPECT_THROW(env.deliver(2, encode(m)), invariant_violation);
}

}  // namespace
}  // namespace dbsm::gcs
