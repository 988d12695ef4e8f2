// Unit tests of group-communication building blocks: wire codecs,
// stability gossip rounds, flow control, failure detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <typeinfo>
#include <utility>

#include "gcs/failure_detector.hpp"
#include "gcs/flow_control.hpp"
#include "gcs/stability.hpp"
#include "gcs/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dbsm::gcs {
namespace {

util::shared_bytes bytes_of(std::size_t n) {
  util::buffer_writer w;
  w.put_padding(n);
  return w.take();
}

TEST(wire, data_round_trip) {
  data_msg m;
  m.hdr = {msg_type::data, 7, 3};
  m.dgram_seq = 100;
  m.app_seq = 42;
  m.frag_idx = 1;
  m.frag_cnt = 3;
  m.payload = bytes_of(50);
  const auto raw = encode(m);
  const data_msg d = std::get<data_msg>(decode(raw));
  EXPECT_EQ(d.hdr.view_id, 7u);
  EXPECT_EQ(d.hdr.sender, 3u);
  EXPECT_EQ(d.dgram_seq, 100u);
  EXPECT_EQ(d.app_seq, 42u);
  EXPECT_EQ(d.frag_idx, 1);
  EXPECT_EQ(d.frag_cnt, 3);
  EXPECT_EQ(d.payload->size(), 50u);
}

TEST(wire, nak_and_stab_round_trip) {
  nak_msg n;
  n.hdr = {msg_type::nak, 1, 2};
  n.target_sender = 9;
  n.missing = {4, 5, 9};
  const nak_msg n2 = std::get<nak_msg>(decode(encode(n)));
  EXPECT_EQ(n2.target_sender, 9u);
  EXPECT_EQ(n2.missing, n.missing);

  stab_msg s;
  s.hdr = {msg_type::stab, 1, 0};
  s.round = 12;
  s.voters_bitmap = 0b101;
  s.stable = {1, 2, 3};
  s.min_received = {4, 5, 6};
  const stab_msg s2 = std::get<stab_msg>(decode(encode(s)));
  EXPECT_EQ(s2.round, 12u);
  EXPECT_EQ(s2.voters_bitmap, 0b101u);
  EXPECT_EQ(s2.stable, s.stable);
  EXPECT_EQ(s2.min_received, s.min_received);
}

TEST(wire, view_messages_round_trip) {
  view_cut_msg c;
  c.hdr = {msg_type::view_cut, 3, 1};
  c.new_view_id = 4;
  c.new_members = {0, 2};
  c.cut = {10, 20, 30};
  c.sources = {0, 2, 2};
  const view_cut_msg c2 = std::get<view_cut_msg>(decode(encode(c)));
  EXPECT_EQ(c2.new_view_id, 4u);
  EXPECT_EQ(c2.new_members, c.new_members);
  EXPECT_EQ(c2.cut, c.cut);
  EXPECT_EQ(c2.sources, c.sources);
}

// ---------- codec properties over every format ----------

// Random field values, by field kind. The header's type byte is set from
// the format afterwards (random_format).
template <std::integral T> void fill(util::rng& g, T& v) {
  v = static_cast<T>(g.next_u64());
}
void fill(util::rng&, msg_type&) {}
// A blob stores up to 40 random bytes and, half the time, keeps up to 40
// zeros after them as a count (the codec's value padding).
void fill(util::rng& g, util::shared_bytes& v) {
  util::bytes stored(static_cast<std::size_t>(g.uniform_int(0, 40)));
  for (std::uint8_t& b : stored) b = static_cast<std::uint8_t>(g.next_u64());
  const auto padding =
      static_cast<std::size_t>(g.bernoulli(0.5) ? g.uniform_int(0, 40) : 0);
  v = std::make_shared<const util::byte_buffer>(std::move(stored), padding);
}
template <class A, class B> void fill(util::rng& g, std::pair<A, B>& v) {
  fill(g, v.first);
  fill(g, v.second);
}
template <class T> void fill(util::rng& g, std::vector<T>& v) {
  v.resize(g.uniform_int(0, 4));
  for (T& x : v) fill(g, x);
}
template <class T> void fill(util::rng& g, std::optional<T>& v) {
  v.reset();
  if (g.bernoulli(0.5)) fill(g, v.emplace());
}
template <class T>
  requires requires(T& m) { T::fields(m); }
void fill(util::rng& g, T& m) {
  std::apply([&g](auto&... f) { (fill(g, f), ...); }, T::fields(m));
}

/// A random valid instance of format T: the header names T's wire type,
/// and the vectors the cross-field rules pair up have equal lengths.
template <class T> T random_format(util::rng& g) {
  T m;
  fill(g, m);
  if constexpr (requires { T::wire_type; }) m.hdr.type = T::wire_type;
  if constexpr (std::is_same_v<T, stab_msg>)
    m.min_received.resize(m.stable.size());
  if constexpr (std::is_same_v<T, view_cut_msg>)
    m.sources.resize(m.cut.size());
  return m;
}

template <class T> util::shared_bytes encode_format(const T& m) {
  if constexpr (std::is_same_v<T, assignment_batch>)
    return encode_assignment_batch(m);
  else
    return encode(m);
}

template <class T> util::shared_bytes reencode(const util::shared_bytes& raw) {
  if constexpr (std::is_same_v<T, assignment_batch>)
    return encode_assignment_batch(decode_assignment_batch(raw));
  else
    return encode(decode(raw));
}

/// Calls f(T{}) for every datagram format, in wire-type order, then for
/// the assignment record.
template <class F> void for_each_format(F&& f) {
  [&f]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::variant_alternative_t<I, message>{}), ...);
  }(std::make_index_sequence<std::variant_size_v<message>>{});
  f(assignment_batch{});
}

TEST(wire, type_mismatch_throws) {
  // decode() returns the alternative its type byte names (alternative i is
  // wire type i + 1), and no per-type decoder is left to mismatch: the
  // same bytes under another type byte parse as that type or not at all.
  util::rng g(15);
  for_each_format([&g](auto proto) {
    using T = decltype(proto);
    if constexpr (!std::is_same_v<T, assignment_batch>) {
      const util::shared_bytes raw = encode(random_format<T>(g));
      EXPECT_EQ(decode(raw).index() + 1, raw->written_out()[0]);
      EXPECT_EQ(decode_header(raw).type, T::wire_type);
    }
  });
  heartbeat_msg hb;
  hb.hdr = {msg_type::heartbeat, 1, 0};
  util::bytes relabeled = encode(hb)->written_out();
  relabeled[0] = static_cast<std::uint8_t>(msg_type::data);
  EXPECT_THROW(
      decode(std::make_shared<const util::byte_buffer>(std::move(relabeled))),
      invariant_violation);
}

// Random valid messages of every format survive encode -> decode ->
// encode byte for byte, and a blob's zeros stay a count through both.
// Each encoding is then mutated — every byte flipped, every truncation,
// 1-8 appended bytes, every u16 window (so every count field) set to
// 0xFFFF — and each mutant either decodes to a message that re-encodes
// to exactly its bytes or throws invariant_violation. Any other
// exception fails the test.
TEST(wire, every_format_round_trips_and_rejects_mutations) {
  util::rng g(16);
  for_each_format([&g](auto proto) {
    using T = decltype(proto);
    const auto exact_or_rejected = [](const util::bytes& b) {
      try {
        EXPECT_EQ(
            reencode<T>(std::make_shared<const util::byte_buffer>(b))
                ->written_out(),
            b)
            << typeid(T).name();
      } catch (const invariant_violation&) {
      }
    };
    for (int rep = 0; rep < 40; ++rep) {
      const T msg = random_format<T>(g);
      const util::shared_bytes raw = encode_format(msg);
      // One exact allocation, of the stored bytes only.
      EXPECT_EQ(raw->stored().capacity(), raw->stored().size());
      const util::bytes b = raw->written_out();
      const util::shared_bytes again = reencode<T>(raw);
      ASSERT_EQ(again->written_out(), b) << typeid(T).name();
      EXPECT_EQ(again->padding(), raw->padding()) << typeid(T).name();
      if constexpr (requires { msg.payload; }) {  // the last field
        EXPECT_EQ(raw->padding(), msg.payload->padding());
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        util::bytes m = b;
        m[i] ^= static_cast<std::uint8_t>(g.uniform_int(1, 255));
        exact_or_rejected(m);
      }
      for (std::size_t len = 0; len < b.size(); ++len)
        exact_or_rejected(util::bytes(b.begin(), b.begin() + len));
      util::bytes longer = b;
      for (int extra = 1; extra <= 8; ++extra) {
        longer.push_back(static_cast<std::uint8_t>(g.next_u64()));
        exact_or_rejected(longer);
      }
      for (std::size_t i = 0; i + 1 < b.size(); ++i) {
        util::bytes m = b;
        m[i] = m[i + 1] = 0xff;
        exact_or_rejected(m);
      }
    }
  });
}

// ---------- stability ----------

TEST(stability, round_completes_when_all_vote) {
  // Three members; drive gossip by hand.
  stability_tracker t0({0, 1, 2}, 0);
  stability_tracker t1({0, 1, 2}, 1);
  stability_tracker t2({0, 1, 2}, 2);
  t0.set_local_prefixes({5, 3, 7});
  t1.set_local_prefixes({4, 3, 9});
  t2.set_local_prefixes({5, 2, 9});

  t1.merge(t0.make_gossip(1));
  t2.merge(t1.make_gossip(1));
  // After t2 merges, all three votes are in: S = min per column.
  EXPECT_EQ(t2.stable(), (std::vector<std::uint64_t>{4, 2, 7}));
  EXPECT_EQ(t2.rounds_completed(), 1u);
  // S propagates back via gossip even to processes in older rounds.
  t0.merge(t2.make_gossip(1));
  EXPECT_EQ(t0.stable(), (std::vector<std::uint64_t>{4, 2, 7}));
}

TEST(stability, only_contiguous_prefixes_enter_m) {
  // The tracker takes prefixes as given — receivers must pass contiguous
  // prefixes; a lagging member caps S for everyone (§5.3 behaviour).
  stability_tracker t0({0, 1}, 0);
  stability_tracker t1({0, 1}, 1);
  t0.set_local_prefixes({100, 100});
  t1.set_local_prefixes({2, 100});  // gap at the start of sender 0
  t1.merge(t0.make_gossip(1));
  EXPECT_EQ(t1.stable()[0], 2u);
  EXPECT_EQ(t1.stable()[1], 100u);
}

TEST(stability, repeated_rounds_advance_monotonically) {
  stability_tracker a({0, 1}, 0);
  stability_tracker b({0, 1}, 1);
  std::vector<std::uint64_t> sa{0, 0}, sb{0, 0};
  for (int round = 1; round <= 10; ++round) {
    a.set_local_prefixes({static_cast<std::uint64_t>(10 * round),
                          static_cast<std::uint64_t>(10 * round)});
    b.set_local_prefixes({static_cast<std::uint64_t>(10 * round - 5),
                          static_cast<std::uint64_t>(10 * round)});
    b.merge(a.make_gossip(1));
    a.merge(b.make_gossip(1));
    EXPECT_GE(a.stable()[0], sa[0]);
    EXPECT_GE(a.stable()[1], sa[1]);
    sa = a.stable();
    sb = b.stable();
  }
  EXPECT_GT(sa[0], 0u);
}

TEST(stability, initial_stable_seed) {
  stability_tracker t({0, 1}, 0, {7, 9});
  EXPECT_EQ(t.stable(), (std::vector<std::uint64_t>{7, 9}));
}

// ---------- flow control ----------

TEST(flow_control, token_bucket_rate_limits) {
  token_bucket b(1000.0, 100);  // 1000 B/s, 100 B burst
  EXPECT_TRUE(b.try_consume(0, 100));
  EXPECT_FALSE(b.try_consume(0, 1));
  // After 50 ms, 50 bytes accumulated.
  EXPECT_TRUE(b.try_consume(milliseconds(50), 50));
  EXPECT_FALSE(b.try_consume(milliseconds(50), 1));
  const sim_duration wait = b.wait_time(milliseconds(50), 10);
  EXPECT_GT(wait, milliseconds(9));
  EXPECT_LT(wait, milliseconds(11));
}

TEST(flow_control, token_bucket_caps_burst) {
  token_bucket b(1000.0, 100);
  ASSERT_TRUE(b.try_consume(0, 100));
  // A long idle period must not accumulate more than the burst.
  EXPECT_TRUE(b.try_consume(seconds(100), 100));
  EXPECT_FALSE(b.try_consume(seconds(100), 1));
}

TEST(flow_control, buffer_quota_byte_accounting) {
  buffer_quota q(100, 1000);
  EXPECT_TRUE(q.fits(1000));
  q.add(600);
  EXPECT_TRUE(q.fits(400));
  EXPECT_FALSE(q.fits(401));
  q.remove(600);
  EXPECT_EQ(q.used(), 0u);
  EXPECT_THROW(q.remove(1), invariant_violation);
}

TEST(flow_control, buffer_quota_slot_accounting) {
  // Message slots bind before bytes: the sequencer sends many small
  // ordering messages and exhausts its share by count (§5.3).
  buffer_quota q(3, 1 << 20);
  q.add(10);
  q.add(10);
  q.add(10);
  EXPECT_FALSE(q.fits(10));
  EXPECT_EQ(q.used_msgs(), 3u);
  q.remove(10);
  EXPECT_TRUE(q.fits(10));
}

// ---------- failure detector ----------

/// Ticks `fd` at the heartbeat cadence at every multiple of the period in
/// [from, to].
void tick_through(failure_detector& fd, sim_time from, sim_time to) {
  for (sim_time t = from; t <= to; t += failure_detector::heartbeat_period)
    fd.tick(t);
}

TEST(failure_detector, suspects_after_timeout) {
  failure_detector fd({0, 1, 2}, 0, milliseconds(100), 0);
  // Four missed ticks, but the silence is still within the timeout.
  tick_through(fd, milliseconds(20), milliseconds(80));
  EXPECT_TRUE(fd.suspects(milliseconds(80)).empty());
  fd.heard_from(1, milliseconds(80));
  tick_through(fd, milliseconds(100), milliseconds(140));
  const auto sus = fd.suspects(milliseconds(150));
  ASSERT_EQ(sus.size(), 1u);
  EXPECT_EQ(sus[0], 2u);
  // Never suspects self, however long the run.
  tick_through(fd, milliseconds(160), seconds(10));
  const auto all = fd.suspects(seconds(10));
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(std::count(all.begin(), all.end(), node_id{0}), 0);
}

TEST(failure_detector, reset_reseeds) {
  failure_detector fd({0, 1}, 0, milliseconds(100), 0);
  tick_through(fd, milliseconds(20), milliseconds(200));
  EXPECT_EQ(fd.suspects(milliseconds(200)).size(), 1u);
  fd.reset({0, 1}, milliseconds(200));
  EXPECT_EQ(fd.misses(1), 0u);
  tick_through(fd, milliseconds(220), milliseconds(280));
  EXPECT_TRUE(fd.suspects(milliseconds(280)).empty());
}

TEST(failure_detector, hysteresis_needs_consecutive_misses) {
  // 20 ms heartbeat, suspect after 3 consecutive missed intervals.
  failure_detector fd({0, 1}, 0, milliseconds(100), 0);
  // Past the timeout but with no scored misses: not yet a suspect.
  EXPECT_TRUE(fd.suspects(milliseconds(150)).empty());
  fd.tick(milliseconds(150));
  fd.tick(milliseconds(170));
  EXPECT_EQ(fd.misses(1), 2u);
  EXPECT_TRUE(fd.suspects(milliseconds(170)).empty());
  fd.tick(milliseconds(190));
  EXPECT_EQ(fd.misses(1), 3u);
  const auto sus = fd.suspects(milliseconds(190));
  ASSERT_EQ(sus.size(), 1u);
  EXPECT_EQ(sus[0], 1u);
}

TEST(failure_detector, hysteresis_single_late_arrival_forgiven) {
  failure_detector fd({0, 1}, 0, milliseconds(100), 0);
  fd.tick(milliseconds(150));
  fd.tick(milliseconds(170));
  // One datagram — even a badly delayed one — clears the streak.
  fd.heard_from(1, milliseconds(175));
  EXPECT_EQ(fd.misses(1), 0u);
  fd.tick(milliseconds(300));
  fd.tick(milliseconds(320));
  // Silent past the timeout again, but only 2 misses since the arrival.
  EXPECT_TRUE(fd.suspects(milliseconds(320)).empty());
  fd.tick(milliseconds(340));
  EXPECT_EQ(fd.suspects(milliseconds(340)).size(), 1u);
}

TEST(failure_detector, hysteresis_tick_within_period_clears) {
  failure_detector fd({0, 1}, 0, milliseconds(100), 0);
  fd.tick(milliseconds(150));
  EXPECT_EQ(fd.misses(1), 1u);
  fd.heard_from(1, milliseconds(160));
  // A tick within one heartbeat period of the last arrival scores nothing.
  fd.tick(milliseconds(170));
  EXPECT_EQ(fd.misses(1), 0u);
  // Self never accumulates misses.
  fd.tick(milliseconds(400));
  EXPECT_EQ(fd.misses(0), 0u);
}

}  // namespace
}  // namespace dbsm::gcs
