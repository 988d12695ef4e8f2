// Partial replication (src/place/): placement strategy properties, the
// granule-store accounting, the placement-consistency monitor's
// accept/reject boundary, and the two end-to-end guarantees — a full
// placement is bit-identical to the pre-placement code (hard-coded
// differential anchors), and a k=2 placement preserves 1SR under the
// fault campaigns with the online monitors armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/monitors.hpp"
#include "core/experiment.hpp"
#include "counting_new.hpp"
#include "fault/scenarios.hpp"
#include "place/granule_store.hpp"
#include "place/placement.hpp"
#include "util/byte_buffer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dbsm {
namespace {

using place::placement;
using place::strategy;

std::vector<db::item_id> sample_items() {
  std::vector<db::item_id> items;
  for (unsigned t = 1; t <= 3; ++t)
    for (std::uint32_t w = 0; w < 17; ++w)
      for (std::uint32_t d = 0; d < 3; ++d)
        items.push_back(db::make_item(t, w, d, (w * 7 + d) % 100));
  return items;
}

TEST(placement_strategy, replica_sets_are_deterministic_and_sized) {
  for (const strategy k : {strategy::round_robin, strategy::hashed}) {
    const placement a = placement::make({k, 2}, 6);
    const placement b = placement::make({k, 2}, 6);
    EXPECT_EQ(a, b);
    std::vector<unsigned> ra, rb;
    std::set<unsigned> bases_seen;
    for (const db::item_id it : sample_items()) {
      a.replica_set(it, ra);
      b.replica_set(it, rb);
      ASSERT_EQ(ra.size(), 2u);
      EXPECT_EQ(ra, rb);  // pure function of (strategy, sites, degree, id)
      EXPECT_LT(ra[0], ra[1]);  // ascending site order
      // The primary is a member (ra is ascending, so it need not lead).
      EXPECT_NE(std::find(ra.begin(), ra.end(), a.primary(it)), ra.end());
      bases_seen.insert(a.primary(it));
      for (unsigned s = 0; s < 6; ++s) {
        const bool in_set =
            std::find(ra.begin(), ra.end(), s) != ra.end();
        EXPECT_EQ(a.stores(s, it), in_set);
      }
      // The tuple and its granule marker always land on the same set.
      EXPECT_EQ(a.primary(it), a.primary(db::granule_of(it)));
    }
    // Both strategies spread primaries across all sites for this sample.
    EXPECT_EQ(bases_seen.size(), 6u) << place::strategy_name(k);
  }
}

TEST(placement_strategy, full_gate) {
  EXPECT_TRUE(placement().is_full());            // unbound default
  EXPECT_TRUE(placement::full(4).is_full());
  EXPECT_TRUE(placement::round_robin(4, 4).is_full());  // degree == sites
  EXPECT_TRUE(placement::make({strategy::hashed, 9}, 4).is_full());
  EXPECT_FALSE(placement::round_robin(4, 2).is_full());

  const placement full = placement::full(3);
  std::vector<db::item_id> ws = sample_items(), out;
  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_TRUE(full.interested(s, ws));
    full.slice(ws, s, out);
    EXPECT_EQ(out, ws);  // full replication: the slice is the write set
  }
  EXPECT_EQ(full.interested_sites(ws), 3u);
}

TEST(placement_strategy, snapshot_round_trip) {
  const placement p = placement::hashed(6, 2);
  util::buffer_writer w;
  p.snapshot(w);
  util::buffer_reader r(w.take());
  const placement q = placement::restore(r);
  EXPECT_EQ(p, q);
  EXPECT_TRUE(r.done());
  EXPECT_NE(q, placement::hashed(6, 3));
  EXPECT_NE(q, placement::round_robin(6, 2));
}

TEST(placement_strategy, slices_partition_the_write_set) {
  const placement p = placement::round_robin(5, 2);
  std::vector<db::item_id> ws;
  for (std::uint32_t w = 0; w < 12; ++w) {
    ws.push_back(db::make_item(1, w, 0, 3));
    ws.push_back(db::granule_of(ws.back()));
  }
  std::vector<db::item_id> out;
  std::size_t covered = 0;
  unsigned interested = 0;
  for (unsigned s = 0; s < 5; ++s) {
    p.slice(ws, s, out);
    covered += out.size();
    interested += !out.empty();
    EXPECT_EQ(p.interested(s, ws), !out.empty());
    // The slice is a subsequence of the input (order preserved).
    auto it = ws.begin();
    for (const db::item_id id : out) {
      it = std::find(it, ws.end(), id);
      ASSERT_NE(it, ws.end());
      ++it;
      EXPECT_TRUE(p.stores(s, id));
    }
  }
  // Every element lands in exactly `degree` slices.
  EXPECT_EQ(covered, ws.size() * 2);
  EXPECT_EQ(p.interested_sites(ws), interested);
}

TEST(granule_store, durable_accounting_follows_placement) {
  const placement p = placement::round_robin(4, 2);
  // Pick granules with distinct replica sets: one this site owns, one not.
  const unsigned self = 0;
  db::item_id owned_tuple = 0, foreign_tuple = 0;
  for (std::uint32_t w = 0; w < 16 && !(owned_tuple && foreign_tuple); ++w) {
    const db::item_id t = db::make_item(1, w, 0, 5);
    (p.stores(self, t) ? owned_tuple : foreign_tuple) = t;
  }
  ASSERT_NE(owned_tuple, 0u);
  ASSERT_NE(foreign_tuple, 0u);

  place::granule_store st(p, self);
  st.apply({owned_tuple, db::granule_of(owned_tuple)}, 100);
  EXPECT_EQ(st.durable_bytes(), 100u);
  EXPECT_EQ(st.durable_tuples(), 1u);
  EXPECT_EQ(st.applied_updates(), 1u);
  // A foreign update still enters the directory but not the durable view.
  st.apply({foreign_tuple, db::granule_of(foreign_tuple)}, 80);
  EXPECT_EQ(st.durable_bytes(), 100u);
  EXPECT_EQ(st.applied_updates(), 1u);
  EXPECT_EQ(st.tracked_granules(), 2u);
  EXPECT_EQ(st.owned_granules(), 1u);
  // Overwriting a tuple does not grow the materialized database.
  st.apply({owned_tuple, db::granule_of(owned_tuple)}, 64);
  EXPECT_EQ(st.durable_bytes(), 100u);
  EXPECT_EQ(st.durable_tuples(), 1u);
  EXPECT_EQ(st.applied_updates(), 2u);
}

TEST(granule_store, snapshot_is_placement_filtered_and_restores) {
  const placement p = placement::round_robin(4, 2);
  place::granule_store donor(p, 0);
  std::uint64_t all_bytes = 0;
  for (std::uint32_t w = 0; w < 16; ++w) {
    const db::item_id t = db::make_item(1, w, 0, 1);
    donor.apply({t, db::granule_of(t)}, 100);
    all_bytes += 100;
  }
  // The slice for a k=2 joiner is smaller than the full directory dump.
  util::buffer_writer for_joiner, for_all;
  donor.snapshot_for(for_joiner, 2);
  for (unsigned s = 0; s < 4; ++s) donor.snapshot_for(for_all, s);
  EXPECT_LT(for_joiner.size(), all_bytes);

  place::granule_store joiner(p, 2);
  util::buffer_reader r(for_joiner.take());
  joiner.restore(r);
  EXPECT_TRUE(r.done());
  // The joiner's durable view equals the donor's recomputation for it:
  // 16 granules spread over 4 sites at degree 2 -> 8 owned, 100 B each.
  EXPECT_EQ(joiner.owned_granules(), 8u);
  EXPECT_EQ(joiner.durable_bytes(), 800u);
  EXPECT_EQ(joiner.durable_tuples(), 8u);
}

// The snapshot lists each granule's tuples in ascending id order whatever
// container holds them, so join bytes are pinned across store rewrites.
// The write stream mixes hot rows rewritten many times with TPC-C
// history-style rows drawn at random from the 2^25 row space.
TEST(granule_store, snapshot_bytes_are_pinned_and_round_trip) {
  const placement p = placement::round_robin(4, 2);
  place::granule_store donor(p, 0);
  util::rng g(2005);
  for (int i = 0; i < 3000; ++i) {
    const auto w = static_cast<std::uint32_t>(g.uniform_int(0, 7));
    const auto d = static_cast<std::uint32_t>(g.uniform_int(0, 9));
    const auto hot = static_cast<std::uint32_t>(g.uniform_int(0, 30));
    const auto history =
        static_cast<std::uint32_t>(g.uniform_int(0, (1 << 25) - 2));
    const db::item_id a = db::make_item(2, w, d, hot);
    const db::item_id b = db::make_item(7, w, d, history);
    donor.apply({a, db::granule_of(a), b, db::granule_of(b)},
                static_cast<std::uint32_t>(g.uniform_int(16, 400)));
  }

  std::uint64_t combined = 0;
  for (unsigned s = 0; s < 4; ++s) {
    util::buffer_writer w;
    donor.snapshot_for(w, s);
    const util::shared_bytes bytes = w.take();
    const util::bytes flat = bytes->written_out();
    const std::uint64_t h = util::stable_hash(std::string_view(
        reinterpret_cast<const char*>(flat.data()), flat.size()));
    combined = combined * 31 + h;

    // Restore into a fresh joiner and re-serialize its own slice: the
    // bytes must come back unchanged.
    place::granule_store joiner(p, s);
    util::buffer_reader r(bytes);
    joiner.restore(r);
    EXPECT_TRUE(r.done());
    util::buffer_writer again;
    joiner.snapshot_for(again, s);
    EXPECT_EQ(again.take()->written_out(), flat) << "site " << s;
  }
  EXPECT_EQ(combined, 10295361786548623698ull);
}

// Differential: a store fed random write streams against a std::set
// model. Each granule's rows are of one shape: dense below 200, ascending
// from 5,000, scattered over the whole row space, or dense below 3,000
// with one far row once 150 are written. So rows turn from an array into
// a bitmap (dense, ascending) and back (the far row), and bitmaps grow
// past their last word (ascending). After every apply the durable
// accounting equals the model's. Every 500 applies each site's snapshot
// lists every granule it replicates with the model's counts and sorted
// rows, and restoring it and serializing again gives the same bytes.
TEST(granule_store, rows_match_a_set_model_in_either_form) {
  const placement p = placement::round_robin(4, 2);
  const unsigned self = 1;
  place::granule_store store(p, self);
  struct model_granule {
    std::set<std::uint32_t> rows;
    std::uint64_t updates = 0;
    std::uint64_t data = 0;
  };
  std::map<db::item_id, model_granule> model;
  std::uint64_t durable_bytes = 0, durable_tuples = 0;
  std::map<db::item_id, std::uint32_t> next_ascending;
  util::rng g(3535);
  const auto draw = [&g](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint32_t>(g.uniform_int(lo, hi));
  };

  const auto check_snapshots = [&] {
    for (unsigned s = 0; s < 4; ++s) {
      util::buffer_writer w;
      store.snapshot_for(w, s);
      const util::shared_bytes bytes = w.take();
      util::buffer_reader r(bytes);
      std::uint64_t data = 0;
      std::uint32_t listed = r.get_u32();
      for (const auto& [gran, m] : model) {
        if (!p.stores(s, gran)) continue;
        ASSERT_GT(listed--, 0u) << "site " << s;
        ASSERT_EQ(r.get_u64(), gran);
        EXPECT_EQ(r.get_u64(), m.updates);
        EXPECT_EQ(r.get_u64(), m.data);
        data += m.data;
        ASSERT_EQ(r.get_u32(), m.rows.size());
        for (const std::uint32_t row : m.rows)
          ASSERT_EQ(r.get_u64(),
                    db::make_item(db::item_table(gran), db::item_warehouse(gran),
                                  db::item_district(gran), row));
      }
      EXPECT_EQ(listed, 0u);
      EXPECT_EQ(r.remaining(), data);

      place::granule_store joiner(p, s);
      util::buffer_reader again_r(bytes);
      joiner.restore(again_r);
      EXPECT_TRUE(again_r.done());
      util::buffer_writer again;
      joiner.snapshot_for(again, s);
      EXPECT_EQ(again.take()->written_out(), bytes->written_out())
          << "site " << s;
    }
  };

  std::vector<db::item_id> ws;
  for (int i = 1; i <= 4000; ++i) {
    ws.clear();
    for (int n = draw(1, 4); n > 0; --n) {
      const std::uint32_t shape = draw(0, 3);
      const db::item_id gran =
          db::make_granule(1 + shape, draw(0, 3), draw(0, 1));
      std::uint32_t row = 0;
      switch (shape) {
        case 0:
          row = draw(0, 199);
          break;
        case 1: {
          auto [at, fresh] = next_ascending.try_emplace(gran, 5000);
          row = at->second += draw(1, 3);
          break;
        }
        case 2:
          row = draw(0, (1 << 25) - 1);
          break;
        default:
          row = model[gran].rows.size() == 150 ? (1u << 25) - 1 - draw(0, 999)
                                               : draw(0, 2999);
      }
      ws.push_back(db::make_item(1 + shape, db::item_warehouse(gran),
                                 db::item_district(gran), row));
      ws.push_back(gran);
    }
    std::sort(ws.begin(), ws.end());
    ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
    const auto bytes = draw(16, 400);
    store.apply(ws, bytes);

    std::size_t tuples = 0;
    for (const db::item_id it : ws) tuples += !db::is_granule(it);
    const std::uint64_t share = bytes / tuples;
    for (const db::item_id it : ws) {
      model_granule& m = model[db::granule_of(it)];
      const bool owned = p.stores(self, it);
      if (db::is_granule(it)) {
        ++m.updates;
      } else if (m.rows.insert(db::item_row(it)).second) {
        m.data += share;
        durable_bytes += owned ? share : 0;
        durable_tuples += owned;
      }
    }
    ASSERT_EQ(store.durable_tuples(), durable_tuples) << "apply " << i;
    ASSERT_EQ(store.durable_bytes(), durable_bytes) << "apply " << i;
    if (i % 500 == 0) check_snapshots();
  }
  EXPECT_EQ(store.tracked_granules(), model.size());
}

// Data lengths come off the wire: each granule's, and their running sum,
// must fit in the bytes left (the padding follows the directory), or
// restore throws before it skips. Two 2^63 lengths sum to 0 modulo 2^64.
TEST(granule_store, data_lengths_past_the_end_are_rejected) {
  const placement p = placement::round_robin(4, 2);
  const auto blob = [](const std::vector<std::uint64_t>& lengths) {
    util::buffer_writer w;
    w.put_u32(static_cast<std::uint32_t>(lengths.size()));
    for (std::uint32_t i = 0; i < lengths.size(); ++i) {
      w.put_u64(db::granule_of(db::make_item(1, i, 0, 1)));
      w.put_u64(1);           // updates
      w.put_u64(lengths[i]);  // data bytes
      w.put_u32(0);           // no tuples
    }
    w.put_padding(64);
    return w.take();
  };
  const std::vector<std::vector<std::uint64_t>> past_the_end = {
      {1ull << 63, 1ull << 63}, {~0ull}, {65}, {32, 33}};
  for (const auto& lengths : past_the_end) {
    place::granule_store joiner(p, 0);
    util::buffer_reader r(blob(lengths));
    EXPECT_THROW(joiner.restore(r), invariant_violation) << lengths[0];
  }
  place::granule_store joiner(p, 0);
  util::buffer_reader r(blob({32, 32}));
  joiner.restore(r);
  EXPECT_TRUE(r.done());
}

// A granule keeps its tuples as rows, so restore rejects a listed tuple
// of another granule, or a granule id, rather than file it under this
// granule. snapshot_for lists each tuple once, in ascending order, so
// restore also rejects a tuple listed twice and tuples out of order,
// which would leave the listed count apart from the rows stored.
TEST(granule_store, tuples_outside_their_granule_are_rejected) {
  const placement p = placement::round_robin(4, 2);
  const db::item_id g = db::make_granule(1, 0, 0);
  const auto blob = [g](const std::vector<db::item_id>& tuples) {
    util::buffer_writer w;
    w.put_u32(1);
    w.put_u64(g);
    w.put_u64(1);  // updates
    w.put_u64(0);  // data bytes
    w.put_u32(static_cast<std::uint32_t>(tuples.size()));
    for (const db::item_id t : tuples) w.put_u64(t);
    return w.take();
  };
  const db::item_id t5 = db::make_item(1, 0, 0, 5);
  const db::item_id t9 = db::make_item(1, 0, 0, 9);
  const std::vector<std::vector<db::item_id>> malformed = {
      {db::make_item(1, 0, 1, 5)}, {db::make_item(2, 0, 0, 5)}, {g},
      {t5, t5}, {t9, t5}};
  for (const auto& tuples : malformed) {
    place::granule_store joiner(p, 0);
    util::buffer_reader r(blob(tuples));
    EXPECT_THROW(joiner.restore(r), invariant_violation) << tuples.back();
  }
  place::granule_store joiner(p, 0);
  util::buffer_reader r(blob({t5, t9}));
  joiner.restore(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(joiner.tracked_granules(), 1u);
  EXPECT_EQ(joiner.durable_tuples(), p.stores(0, g) ? 2u : 0u);
}

// The directory lists each granule once, in ascending id order, so
// restore rejects a tuple id in a granule's place, a granule listed twice
// and granules out of order.
TEST(granule_store, malformed_directories_are_rejected) {
  const placement p = placement::round_robin(4, 2);
  const auto blob = [](const std::vector<db::item_id>& ids) {
    util::buffer_writer w;
    w.put_u32(static_cast<std::uint32_t>(ids.size()));
    for (const db::item_id id : ids) {
      w.put_u64(id);
      w.put_u64(1);  // updates
      w.put_u64(0);  // data bytes
      w.put_u32(0);  // no tuples
    }
    return w.take();
  };
  const db::item_id g1 = db::make_granule(1, 0, 0);
  const db::item_id g2 = db::make_granule(1, 0, 1);
  const std::vector<std::vector<db::item_id>> malformed = {
      {db::make_item(1, 0, 0, 5)}, {g1, g1}, {g2, g1}};
  for (const auto& ids : malformed) {
    place::granule_store joiner(p, 0);
    util::buffer_reader r(blob(ids));
    EXPECT_THROW(joiner.restore(r), invariant_violation) << ids[0];
  }
  place::granule_store joiner(p, 0);
  util::buffer_reader r(blob({g1, g2}));
  joiner.restore(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(joiner.tracked_granules(), 2u);
}

// A granule keeps scattered rows as a sorted array that grows by a
// quarter, and dense ones as a bitmap over [0, max row]; a far row turns
// that bitmap back into an array. Besides the rows the store keeps only a
// one-granule directory.
TEST(granule_store, rows_take_an_array_slot_or_a_bit) {
  const auto live_after = [](const std::vector<std::uint32_t>& rows) {
    std::vector<db::item_id> ws(2);
    const std::size_t before = counting_new::live_bytes;
    place::granule_store store(placement::full(1), 0);
    for (const std::uint32_t row : rows) {
      ws[0] = db::make_item(3, 1, 2, row);
      ws[1] = db::granule_of(ws[0]);
      store.apply(ws, 100);
    }
    EXPECT_EQ(store.tracked_granules(), 1u);
    const std::size_t live = counting_new::live_bytes - before;
    return std::pair{live, store.durable_tuples()};
  };

  std::vector<std::uint32_t> scattered;
  std::set<std::uint32_t> seen;
  util::rng g(35);
  while (scattered.size() < 100000) {
    const auto row =
        static_cast<std::uint32_t>(g.uniform_int(0, (1 << 25) - 1));
    if (seen.insert(row).second) scattered.push_back(row);
  }
  const auto [scattered_live, scattered_rows] = live_after(scattered);
  EXPECT_EQ(scattered_rows, 100000u);
  EXPECT_GE(scattered_live, 4u * 100000u);
  EXPECT_LE(scattered_live, 5u * 100000u);

  std::vector<std::uint32_t> consecutive(100000);
  for (std::uint32_t row = 0; row < consecutive.size(); ++row)
    consecutive[row] = row;
  const auto [dense_live, dense_rows] = live_after(consecutive);
  EXPECT_EQ(dense_rows, 100000u);
  EXPECT_GE(dense_live, 100000u / 8);
  EXPECT_LE(dense_live, 100000u / 8 + 1024u);

  consecutive.push_back((1u << 25) - 3);
  const auto [far_live, far_rows] = live_after(consecutive);
  EXPECT_EQ(far_rows, 100001u);
  EXPECT_GE(far_live, 4u * 100001u);
  EXPECT_LE(far_live, 5u * 100001u);
}

// ---------- the placement-consistency monitor ----------

cert::txn_payload write_txn(std::uint64_t id, db::item_id tuple) {
  cert::txn_payload t;
  t.id = id;
  t.write_set = {tuple, db::granule_of(tuple)};
  return t;
}

check::config no_halt() {
  check::config c;
  c.halt_on_violation = false;
  return c;
}

TEST(placement_monitor, accepts_matching_apply_and_ignores_aborts) {
  const placement p = placement::round_robin(3, 1);
  check::checker c(no_halt());
  c.add(std::make_unique<check::placement_monitor>(p));
  const auto t = write_txn(1, db::make_item(1, 0, 0, 9));
  const unsigned owner = p.primary(t.write_set.front());
  for (unsigned s = 0; s < 3; ++s) {
    std::vector<db::item_id> slice;
    p.slice(t.write_set, s, slice);
    EXPECT_EQ(slice.empty(), s != owner);
    c.decision({s, 1, &t, true, 1, 0});
    c.applied({s, 1, &t, &slice, 0, 0});
  }
  // An abort consumes a position but produces no apply.
  const auto a = write_txn(2, db::make_item(1, 1, 0, 9));
  c.decision({0, 2, &a, false, 1, 0});
  const auto b = write_txn(3, db::make_item(1, 2, 0, 9));
  std::vector<db::item_id> slice;
  p.slice(b.write_set, 0, slice);
  c.decision({0, 3, &b, true, 2, 0});
  c.applied({0, 3, &b, &slice, 0, 0});
  EXPECT_TRUE(c.ok()) << c.get_report().summary();
  EXPECT_EQ(c.get_report().applies_checked, 4u);
}

TEST(placement_monitor, rejects_slice_outside_the_replica_set) {
  const placement p = placement::round_robin(3, 1);
  check::checker c(no_halt());
  c.add(std::make_unique<check::placement_monitor>(p));
  const auto t = write_txn(1, db::make_item(1, 0, 0, 9));
  const unsigned outsider = (p.primary(t.write_set.front()) + 1) % 3;
  c.decision({outsider, 1, &t, true, 1, 0});
  // The outsider claims it stored the full write set anyway.
  c.applied({outsider, 1, &t, &t.write_set, 0, 0});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "placement");
  EXPECT_EQ(c.get_report().violations[0].site, outsider);
}

TEST(placement_monitor, rejects_commit_without_apply) {
  const placement p = placement::round_robin(3, 1);
  check::checker c(no_halt());
  c.add(std::make_unique<check::placement_monitor>(p));
  const auto t = write_txn(1, db::make_item(1, 0, 0, 9));
  const auto u = write_txn(2, db::make_item(1, 1, 0, 9));
  c.decision({0, 1, &t, true, 1, 0});
  // Next decision arrives with the commit still unapplied.
  c.decision({0, 2, &u, true, 2, 0});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.get_report().violations[0].invariant, "placement");
}

// ---------- end-to-end: full placement is bit-identical ----------

// FNV-1a over the little-endian bytes of the commit log, matching the
// anchor capture. The constants below were recorded on the pre-placement
// tree (PR 6): if any of them moves, the placement layer leaked into the
// default full-replication path.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : log)
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

core::experiment_config anchor_cfg() {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.clients = 60;
  cfg.target_responses = 400;
  cfg.max_sim_time = seconds(900);
  cfg.seed = 7;
  return cfg;
}

struct anchor {
  const char* scenario;
  std::uint64_t committed, responses, log0_len, log0_hash;
};

TEST(full_placement_bit_identity, matches_pre_placement_anchors) {
  const anchor anchors[] = {
      {"no_faults", 399, 400, 369, 961761018588045584ull},
      {"crash", 398, 400, 365, 10089116188003370927ull},
      {"crash_restart", 395, 400, 365, 7733846660168087355ull},
  };
  for (const anchor& a : anchors) {
    const auto* e = fault::scenarios::find(a.scenario);
    ASSERT_NE(e, nullptr) << a.scenario;
    auto cfg = anchor_cfg();
    fault::scenarios::params prm;
    prm.sites = cfg.sites;
    cfg.faults = e->make(prm);
    cfg.enable_recovery = cfg.faults.needs_recovery();
    const auto r = core::run_experiment(cfg);
    EXPECT_EQ(r.stats.total_committed(), a.committed) << a.scenario;
    EXPECT_EQ(r.responses, a.responses) << a.scenario;
    ASSERT_FALSE(r.commit_logs.empty());
    EXPECT_EQ(r.commit_logs[0].size(), a.log0_len) << a.scenario;
    EXPECT_EQ(fnv1a(r.commit_logs[0]), a.log0_hash) << a.scenario;
    EXPECT_TRUE(r.checks.ok) << r.checks.summary();
  }
}

// ---------- end-to-end: k=2 keeps 1SR under faults ----------

core::experiment_config k2_cfg() {
  auto cfg = anchor_cfg();
  cfg.sites = 4;
  cfg.placement = {strategy::round_robin, 2};
  return cfg;
}

TEST(partial_k2, one_copy_serializability_under_fault_campaigns) {
  for (const char* name : {"no_faults", "sched_latency", "random_loss",
                           "crash", "partition_minority"}) {
    const auto* e = fault::scenarios::find(name);
    ASSERT_NE(e, nullptr) << name;
    auto cfg = k2_cfg();
    fault::scenarios::params prm;
    prm.sites = cfg.sites;
    cfg.faults = e->make(prm);
    const auto r = core::run_experiment(cfg);
    EXPECT_TRUE(r.safety.ok) << name << ": " << r.safety.detail;
    EXPECT_TRUE(r.checks.ok) << name << ": " << r.checks.summary();
    EXPECT_GT(r.checks.applies_checked, 0u) << name;
    EXPECT_GT(r.stats.total_committed(), 200u) << name;
  }
}

TEST(partial_k2, crash_rejoin_transfers_the_filtered_slice) {
  // Same crash/restart shape at degree 3 vs degree 2 of 4 sites: the
  // joiner's snapshot carries the granule slice it replicates plus its
  // modeled data bytes, so the transferred bytes must shrink with the
  // degree (the k=2 slice is a strict subset of the k=3 one). The full
  // placement is no baseline here — its legacy wire format never shipped
  // data bytes at all (and must not change, for bit-identity).
  fault::scenarios::params prm;
  prm.sites = 4;

  auto k3_cfg = anchor_cfg();
  k3_cfg.sites = 4;
  k3_cfg.placement = {strategy::round_robin, 3};
  k3_cfg.faults = fault::scenarios::crash_restart(prm);
  k3_cfg.enable_recovery = true;
  const auto k3 = core::run_experiment(k3_cfg);

  auto part_cfg = k2_cfg();
  part_cfg.faults = fault::scenarios::partial_k2_crash_rejoin(prm);
  part_cfg.enable_recovery = true;
  const auto part = core::run_experiment(part_cfg);

  for (const auto* r : {&k3, &part}) {
    EXPECT_TRUE(r->safety.ok) << r->safety.detail;
    EXPECT_TRUE(r->checks.ok) << r->checks.summary();
    EXPECT_EQ(r->rejoined_sites(), 1u);
  }
  std::uint64_t k3_snap = 0, k3_chunks = 0, part_snap = 0, part_chunks = 0;
  for (const auto& s : k3.sites) {
    k3_snap += s.join_snapshot_bytes;
    k3_chunks += s.join_chunk_bytes;
  }
  for (const auto& s : part.sites) {
    part_snap += s.join_snapshot_bytes;
    part_chunks += s.join_chunk_bytes;
  }
  EXPECT_GT(part_snap, 0u);
  EXPECT_GT(part_chunks, 0u);
  EXPECT_LT(part_snap, k3_snap);
  EXPECT_LT(part_chunks, k3_chunks);
}

}  // namespace
}  // namespace dbsm
