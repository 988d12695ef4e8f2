// Tests of the certification prototype (§3.3): set operations, granule
// escalation semantics, determinism, snapshot windows, and the codec.
#include <gtest/gtest.h>

#include "cert/reference_certifier.hpp"
#include "cert/rwset.hpp"
#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "db/item.hpp"
#include "util/rng.hpp"

namespace dbsm::cert {
namespace {

using db::item_id;
using db::make_granule;
using db::make_item;

TEST(item_codec, field_round_trip) {
  const item_id id = make_item(8, 123456, 9, 54321);
  EXPECT_EQ(db::item_table(id), 8u);
  EXPECT_EQ(db::item_warehouse(id), 123456u);
  EXPECT_EQ(db::item_district(id), 9u);
  EXPECT_EQ(db::item_row(id), 54321u);
  EXPECT_FALSE(db::is_granule(id));

  const item_id g = make_granule(8, 123456, 9);
  EXPECT_TRUE(db::is_granule(g));
  EXPECT_EQ(db::item_table(g), 8u);
  EXPECT_EQ(db::item_warehouse(g), 123456u);
}

TEST(item_codec, table_in_highest_bits_orders_by_table) {
  // §3.3: "including the table identifier as the highest order bits".
  EXPECT_LT(make_item(1, 0xffffff, 255, 100000),
            make_item(2, 0, 0, 0));
}

TEST(rwset, normalize_sorts_and_dedups) {
  std::vector<item_id> v{5, 3, 5, 1, 3};
  normalize(v);
  EXPECT_EQ(v, (std::vector<item_id>{1, 3, 5}));
}

TEST(rwset, intersects_sorted_sets) {
  EXPECT_TRUE(intersects({1, 3, 5}, {5, 9}));
  EXPECT_FALSE(intersects({1, 3, 5}, {2, 4, 6}));
  EXPECT_FALSE(intersects({}, {1}));
}

TEST(rwset, write_write_ignores_granule_matches) {
  const item_id g = make_granule(2, 7, 0);
  const item_id t1 = make_item(2, 7, 1, 100);
  const item_id t2 = make_item(2, 7, 1, 200);
  // Both wrote different tuples of the same granule: no tuple conflict.
  std::vector<item_id> a{t1, g}, b{t2, g};
  normalize(a);
  normalize(b);
  EXPECT_FALSE(write_write_conflicts(a, b));
  // Same tuple: conflict.
  std::vector<item_id> c{t1, g};
  normalize(c);
  EXPECT_TRUE(write_write_conflicts(a, c));
  // But an escalated READ against the granule does intersect.
  EXPECT_TRUE(intersects(std::vector<item_id>{g}, a));
}

TEST(rwset, append_scan_escalates_beyond_threshold) {
  const item_id g = make_granule(2, 7, 0);
  std::vector<item_id> small{1, 2, 3};
  std::vector<item_id> out;
  append_scan(out, small, g, 4);
  EXPECT_EQ(out.size(), 3u);  // kept tuple-level
  out.clear();
  std::vector<item_id> big{1, 2, 3, 4, 5};
  append_scan(out, big, g, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], g);
}

// ---------- certifier ----------

// Handy ids: tuples are even (bit 0 clear), granules odd.
constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

TEST(certifier, no_conflict_commits) {
  sharded_certifier c;
  EXPECT_TRUE(c.certify_update(0, {tup(1), tup(2)}, {tup(3)}));
  EXPECT_TRUE(c.certify_update(0, {tup(4)}, {tup(5)}));
  EXPECT_EQ(c.commits(), 2u);
  EXPECT_EQ(c.position(), 2u);
}

TEST(certifier, point_reads_are_snapshot_served) {
  // Multi-version engine: a tuple-level read of a concurrently committed
  // write is served from the snapshot — no abort.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  EXPECT_TRUE(c.certify_update(0, {tup(10)}, {tup(99)}));
}

TEST(certifier, granule_read_conflicts_with_concurrent_write) {
  // Escalated scans cannot be versioned: a granule read aborts on any
  // concurrent committed write advertising that granule.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(7), tup(10)}));
  EXPECT_FALSE(c.certify_update(0, {gran(7)}, {tup(99)}));
  EXPECT_TRUE(c.certify_update(1, {gran(7)}, {tup(99)}));  // after: fine
}

TEST(certifier, write_write_conflict_aborts) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  EXPECT_FALSE(c.certify_update(0, {}, {tup(10), tup(11)}));
}

TEST(certifier, granule_granule_writes_do_not_conflict) {
  // Two writers inside the same granule (different tuples) commit both.
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(7), tup(10)}));
  EXPECT_TRUE(c.certify_update(0, {}, {gran(7), tup(11)}));
}

TEST(certifier, aborted_transactions_leave_no_trace) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(10)}));
  ASSERT_FALSE(c.certify_update(0, {}, {tup(10)}));  // aborts (pos 2)
  // Conflicts come only from *committed* write sets — the aborted one at
  // position 2 is invisible to later transactions.
  EXPECT_TRUE(c.certify_update(1, {}, {tup(10)}));
}

TEST(certifier, snapshot_window_bounds_conflicts) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {tup(1), gran(1)}));  // pos 1
  ASSERT_TRUE(c.certify_update(1, {}, {tup(2), gran(2)}));  // pos 2
  ASSERT_TRUE(c.certify_update(2, {}, {tup(3), gran(3)}));  // pos 3
  // Snapshot at pos 2: only the granule-3 write is concurrent.
  EXPECT_TRUE(c.certify_update(2, {gran(1), gran(2)}, {tup(40)}));
  EXPECT_FALSE(c.certify_update(2, {gran(3)}, {tup(41)}));
}

TEST(certifier, read_only_certification_is_positionless) {
  sharded_certifier c;
  ASSERT_TRUE(c.certify_update(0, {}, {gran(4), tup(10)}));
  const auto pos = c.position();
  EXPECT_FALSE(c.certify_read_only(0, {gran(4)}));
  EXPECT_TRUE(c.certify_read_only(pos, {gran(4)}));
  EXPECT_TRUE(c.certify_read_only(0, {gran(5)}));
  EXPECT_TRUE(c.certify_read_only(0, {tup(10)}));  // snapshot-served
  EXPECT_EQ(c.position(), pos);  // unchanged
}

TEST(certifier, identical_sequences_identical_decisions) {
  // The safety core: two replicas fed the same sequence decide alike.
  sharded_certifier a, b;
  util::rng g(17);
  for (int i = 0; i < 2000; ++i) {
    const auto begin =
        static_cast<std::uint64_t>(g.uniform_int(0, a.position()));
    std::vector<item_id> rs, ws;
    for (int k = 0; k < 4; ++k)
      rs.push_back(static_cast<item_id>(g.uniform_int(0, 200)) << 1);
    for (int k = 0; k < 2; ++k)
      ws.push_back(static_cast<item_id>(g.uniform_int(0, 200)) << 1);
    normalize(rs);
    normalize(ws);
    EXPECT_EQ(a.certify_update(begin, rs, ws),
              b.certify_update(begin, rs, ws));
  }
  EXPECT_EQ(a.commits(), b.commits());
}

TEST(certifier, history_window_gc_conservative_abort) {
  cert_config cfg;
  cfg.history_window = 10;
  sharded_certifier c(cfg);
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(1000 + i)}));
  // Snapshot far behind the retained window: conservative abort even
  // without any real conflict.
  EXPECT_FALSE(c.certify_update(0, {tup(2)}, {tup(4)}));
  EXPECT_EQ(c.history_size(), 10u);
}

TEST(certifier, evict_drain_rate_controls_index_reclamation) {
  // Every delivery evicts at most one write set past the window, so a
  // larger drain rate clears the backlog faster: any positive rate keeps
  // it at <= 1 set, while rate 0 (defer cleanup) never reclaims — stale
  // entries pile up in the index, one per distinct item ever written,
  // without affecting decisions.
  constexpr std::size_t window = 10;
  constexpr int commits = 50;
  auto run = [](std::size_t rate) {
    cert_config cfg;
    cfg.history_window = window;
    cfg.evict_drain_per_delivery = rate;
    sharded_certifier c(cfg);
    for (int i = 0; i < commits; ++i) {
      EXPECT_TRUE(
          c.certify_update(c.position(), {}, {tup(5000 + i)}));
    }
    return c;
  };
  sharded_certifier never = run(0);
  sharded_certifier slow = run(1);
  sharded_certifier fast = run(8);

  // Larger rate => backlog drained at least as fast, strictly faster
  // than the disabled drain.
  EXPECT_EQ(never.evicted_backlog(), commits - window);
  EXPECT_LE(slow.evicted_backlog(), 1u);
  EXPECT_LE(fast.evicted_backlog(), slow.evicted_backlog());
  EXPECT_LT(slow.evicted_backlog(), never.evicted_backlog());

  // The index mirrors the backlog: with the drain disabled it retains
  // every item ever committed; with a positive rate it tracks the window.
  EXPECT_EQ(never.index_size(), static_cast<std::size_t>(commits));
  EXPECT_LE(slow.index_size(), window + 1);
  EXPECT_LE(fast.index_size(), window + 1);

  // Draining is memory reclamation only: decisions are identical.
  EXPECT_EQ(never.commits(), slow.commits());
  EXPECT_EQ(never.aborts(), slow.aborts());
  const std::uint64_t snap = slow.position();
  EXPECT_EQ(never.certify_read_only(snap, {gran(1)}),
            slow.certify_read_only(snap, {gran(1)}));
}

TEST(certifier, cost_model_is_window_independent_and_set_linear) {
  // Indexed certification probes each element of the transaction's own
  // sets once: the modeled cost depends only on the set sizes, never on
  // how much history the snapshot spans.
  sharded_certifier c;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(i)}));
  c.certify_update(c.position(), {gran(9999)}, {tup(8888)});
  const auto small_window = c.last_cost();
  c.certify_update(0, {gran(9999)}, {tup(8887)});
  const auto big_window = c.last_cost();
  EXPECT_EQ(big_window, small_window);

  cert_config cfg;
  sharded_certifier d(cfg);
  d.certify_update(0, {tup(1)}, {tup(2)});
  const auto two_elems = d.last_cost();
  d.certify_update(0, {tup(3), tup(4)}, {tup(5), tup(6)});
  const auto four_elems = d.last_cost();
  EXPECT_EQ(four_elems - two_elems, 2 * cfg.cost_per_element);
  EXPECT_EQ(two_elems, cfg.cost_fixed + 2 * cfg.cost_per_element);
}

TEST(reference_certifier, cost_model_scales_with_window) {
  // The reference scan keeps the historical window-proportional model.
  reference_certifier c;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(c.certify_update(c.position(), {}, {tup(i)}));
  c.certify_update(c.position(), {gran(9999)}, {tup(8888)});
  const auto small_window = c.last_cost();
  c.certify_update(0, {gran(9999)}, {tup(8887)});
  const auto big_window = c.last_cost();
  EXPECT_GT(big_window, small_window);
}

// ---------- codec ----------

TEST(txn_codec, round_trip) {
  txn_payload p;
  p.id = 0x123456789abcull;
  p.cls = 3;
  p.origin = 2;
  p.begin_pos = 777;
  p.read_set = {make_item(1, 2, 3, 4), make_granule(2, 7, 0)};
  p.write_set = {make_item(4, 5, 6, 7)};
  p.update_bytes = 321;

  const auto raw = encode_txn(p);
  EXPECT_EQ(raw->size(), encoded_size(p));
  const txn_payload q = decode_txn(raw);
  EXPECT_EQ(q.id, p.id);
  EXPECT_EQ(q.cls, p.cls);
  EXPECT_EQ(q.origin, p.origin);
  EXPECT_EQ(q.begin_pos, p.begin_pos);
  EXPECT_EQ(q.read_set, p.read_set);
  EXPECT_EQ(q.write_set, p.write_set);
  EXPECT_EQ(q.update_bytes, p.update_bytes);
}

TEST(txn_codec, payload_size_includes_value_padding) {
  txn_payload small, big;
  small.update_bytes = 10;
  big.update_bytes = 4000;
  EXPECT_EQ(encode_txn(big)->size() - encode_txn(small)->size(), 3990u);
}

}  // namespace
}  // namespace dbsm::cert
