// Shard-count invariance of the sharded certifier: at every shard count
// the decisions must match cert::reference_certifier, the reference scan
// certifier, transaction for transaction — the index-vs-scan differential
// of tests/cert_index_test.cpp extended over the partitioned path. Covers
// randomized mixes, TPC-C-shaped sets, KV scan-escalation sets, the
// read-only path, window expiry, empty sets, the set-linear modeled cost,
// and the canonical snapshot format (the same bytes at any shard count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cert/reference_certifier.hpp"
#include "cert/sharded_certifier.hpp"
#include "db/item.hpp"
#include "tpcc/workload.hpp"
#include "util/byte_buffer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

namespace dbsm::cert {
namespace {

using db::item_id;

constexpr item_id tup(std::uint64_t n) { return n << 1; }
constexpr item_id gran(std::uint64_t n) { return (n << 1) | 1; }

/// The shard counts every differential runs at.
const std::vector<std::size_t>& grid() {
  static const std::vector<std::size_t> g = {1, 2, 8};
  return g;
}

cert_config with_shards(cert_config cfg, std::size_t shards) {
  cfg.shards = shards;
  return cfg;
}

/// Drives the oracle and one sharded instance through the same randomized
/// transaction stream and asserts decision-for-decision agreement. A
/// single-shard instance rides along as the index-size baseline.
void run_differential(std::size_t shards, std::uint64_t seed, int steps,
                      std::uint64_t id_space, double granule_read_p,
                      double granule_write_p, std::uint64_t max_age,
                      std::size_t window) {
  cert_config cfg;
  cfg.history_window = window;
  reference_certifier oracle(cfg);
  sharded_certifier single(cfg);
  sharded_certifier sharded(with_shards(cfg, shards));
  util::rng g(seed);

  for (int i = 0; i < steps; ++i) {
    const std::uint64_t pos = oracle.position();
    const std::uint64_t lo = pos > max_age ? pos - max_age : 0;
    const auto begin = static_cast<std::uint64_t>(
        g.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(pos)));

    std::vector<item_id> rs;
    const int nr = static_cast<int>(g.uniform_int(0, 6));
    for (int k = 0; k < nr; ++k) {
      const auto n = static_cast<std::uint64_t>(
          g.uniform_int(0, static_cast<std::int64_t>(id_space)));
      rs.push_back(g.bernoulli(granule_read_p) ? gran(n >> 4) : tup(n));
    }
    normalize(rs);

    if (g.bernoulli(0.25)) {
      ASSERT_EQ(sharded.certify_read_only(begin, rs),
                oracle.certify_read_only(begin, rs))
          << "read-only: shards " << shards << " seed " << seed
          << " step " << i;
      continue;
    }

    std::vector<item_id> ws;
    const int nw = static_cast<int>(g.uniform_int(1, 5));
    for (int k = 0; k < nw; ++k) {
      const auto n = static_cast<std::uint64_t>(
          g.uniform_int(0, static_cast<std::int64_t>(id_space)));
      ws.push_back(tup(n));
      if (g.bernoulli(granule_write_p)) ws.push_back(gran(n >> 4));
    }
    normalize(ws);

    ASSERT_EQ(sharded.certify_update(begin, rs, ws),
              oracle.certify_update(begin, rs, ws))
        << "update: shards " << shards << " seed " << seed << " step " << i
        << " begin " << begin;
    single.certify_update(begin, rs, ws);

    ASSERT_EQ(sharded.position(), oracle.position());
    ASSERT_EQ(sharded.commits(), oracle.commits());
    ASSERT_EQ(sharded.aborts(), oracle.aborts());
    ASSERT_EQ(sharded.history_size(), oracle.history_size());
    ASSERT_EQ(sharded.oldest_retained(), oracle.oldest_retained());
    // Every shard purges at the same commit counts, so the sharded
    // instance never holds more entries than the single index.
    ASSERT_LE(sharded.index_size(), single.index_size());
  }
  EXPECT_GT(oracle.commits(), 100u);
  EXPECT_GT(oracle.aborts(), 0u);
}

TEST(cert_shard_differential, high_conflict_small_id_space) {
  for (const std::size_t shards : grid())
    run_differential(shards, /*seed=*/311, /*steps=*/2500, /*id_space=*/300,
                     /*granule_read_p=*/0.2, /*granule_write_p=*/0.4,
                     /*max_age=*/60, /*window=*/50000);
}

TEST(cert_shard_differential, window_expiry_and_conservative_aborts) {
  // Tiny window + old snapshots: the global pre-window rule must fire
  // before any shard probe, identically at every shard count.
  for (const std::size_t shards : grid())
    run_differential(shards, /*seed=*/323, /*steps=*/2500, /*id_space=*/5000,
                     /*granule_read_p=*/0.1, /*granule_write_p=*/0.3,
                     /*max_age=*/200, /*window=*/64);
}

TEST(cert_shard_differential, tpcc_shaped_workload_agrees) {
  // Realistic TPC-C sets: escalated customer scans, advertised write
  // granules, snapshots lagging a few dozen deliveries.
  for (const std::size_t shards : grid()) {
    cert_config cfg;
    cfg.history_window = 512;
    reference_certifier oracle(cfg);
    sharded_certifier sharded(with_shards(cfg, shards));
    tpcc::workload load(tpcc::workload_profile::pentium3_1ghz(), 10,
                        util::rng(71));
    util::rng g(72);

    for (int i = 0; i < 3000; ++i) {
      const auto req = load.next(static_cast<std::uint32_t>(i % 10),
                                 static_cast<std::uint32_t>(i % 10));
      const std::uint64_t pos = oracle.position();
      const std::uint64_t lo = pos > 700 ? pos - 700 : 0;
      const auto begin = static_cast<std::uint64_t>(
          g.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(pos)));
      if (req.read_only()) {
        ASSERT_EQ(sharded.certify_read_only(begin, req.read_set),
                  oracle.certify_read_only(begin, req.read_set))
            << "shards " << shards << " step " << i;
      } else {
        ASSERT_EQ(
            sharded.certify_update(begin, req.read_set, req.write_set),
            oracle.certify_update(begin, req.read_set, req.write_set))
            << "shards " << shards << " step " << i;
      }
    }
    EXPECT_EQ(sharded.commits(), oracle.commits());
    EXPECT_GT(oracle.commits(), 500u);
  }
}

TEST(cert_shard_differential, kv_scan_escalation_agrees) {
  // KV sets are the pure certification-conflict channel: escalated
  // range-scan reads (granule ids) race hot-granule writes. Hash
  // partitioning must keep every granule probe on the shard that also
  // receives the matching advertised write granules.
  for (const std::size_t shards : grid()) {
    cert_config cfg;
    cfg.history_window = 256;
    reference_certifier oracle(cfg);
    sharded_certifier sharded(with_shards(cfg, shards));

    kv::kv_config k;
    k.keys = 4000;
    k.keys_per_granule = 64;
    k.zipf_theta = 0.9;  // hot keys: real conflicts at a small window
    k.mix_read = 0.2;
    k.mix_update = 0.35;
    k.mix_scan = 0.3;
    kv::kv_workload wl(k);
    wl.prepare(1, 8, util::rng(81));
    auto src = wl.make_source({0, 0, 8}, util::rng(82));
    util::rng g(83);

    std::uint64_t scans = 0;
    for (int i = 0; i < 2500; ++i) {
      const auto req = src->next(0);
      for (const item_id id : req.read_set)
        if (db::is_granule(id)) ++scans;
      const std::uint64_t pos = oracle.position();
      const std::uint64_t lo = pos > 120 ? pos - 120 : 0;
      const auto begin = static_cast<std::uint64_t>(
          g.uniform_int(static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(pos)));
      if (req.read_only()) {
        ASSERT_EQ(sharded.certify_read_only(begin, req.read_set),
                  oracle.certify_read_only(begin, req.read_set))
            << "shards " << shards << " step " << i;
      } else {
        ASSERT_EQ(
            sharded.certify_update(begin, req.read_set, req.write_set),
            oracle.certify_update(begin, req.read_set, req.write_set))
            << "shards " << shards << " step " << i;
      }
    }
    EXPECT_EQ(sharded.commits(), oracle.commits());
    EXPECT_EQ(sharded.aborts(), oracle.aborts());
    EXPECT_GT(scans, 100u);     // the mix actually escalated
    EXPECT_GT(oracle.aborts(), 0u);
  }
}

TEST(cert_shard_differential, default_config_snapshot_bytes_identical) {
  // The snapshot format is canonical: the default config's state, restored
  // at one shard and at eight, serializes back to the identical bytes — so
  // a recovery transfer means the same thing whatever shard count either
  // end runs.
  cert_config cfg;
  cfg.history_window = 48;
  reference_certifier oracle(cfg);
  sharded_certifier donor(cfg);
  util::rng g(99);
  for (int i = 0; i < 600; ++i) {
    std::vector<item_id> rs, ws;
    const auto n =
        static_cast<std::uint64_t>(g.uniform_int(0, 400));
    rs.push_back(g.bernoulli(0.3) ? gran(n >> 3) : tup(n));
    ws.push_back(tup(n + 1));
    if (g.bernoulli(0.5)) ws.push_back(gran((n + 1) >> 3));
    normalize(rs);
    normalize(ws);
    const std::uint64_t pos = oracle.position();
    const std::uint64_t begin =
        pos - std::min<std::uint64_t>(
                  pos, static_cast<std::uint64_t>(g.uniform_int(0, 60)));
    ASSERT_EQ(donor.certify_update(begin, rs, ws),
              oracle.certify_update(begin, rs, ws));
  }
  util::buffer_writer w;
  donor.snapshot(w);
  const auto blob = w.take();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    sharded_certifier joiner(with_shards(cfg, shards));
    util::buffer_reader r(blob);
    joiner.restore(r);
    util::buffer_writer again;
    joiner.snapshot(again);
    ASSERT_EQ(again.take()->written_out(), blob->written_out())
        << "shards " << shards;
  }
}

TEST(cert_shard_differential, modeled_cost_is_set_linear_at_every_shard_count) {
  // Every shard is certified on the calling thread, so a certification
  // charges the fixed term plus one per-element term per probed element,
  // whatever the shard count.
  cert_config cfg;
  std::vector<item_id> ws;
  for (std::uint64_t i = 0; i < 512; ++i) ws.push_back(tup(i * 7 + 1));
  normalize(ws);
  const sim_duration set_linear =
      cost_fixed + cost_per_element * static_cast<sim_duration>(ws.size());
  for (const std::size_t shards : grid()) {
    sharded_certifier c(with_shards(cfg, shards));
    c.certify_update(0, {}, ws);
    EXPECT_EQ(c.last_cost(), set_linear) << "shards " << shards;
  }
}

TEST(cert_shard_zero_sets, empty_sets_keep_decisions_and_state) {
  // Zero-set transactions (an empty-read-set RO probe, or an empty
  // update payload occupying a total-order slot) have nothing to probe or
  // install, so the decision is the global pre-window rule alone and the
  // modeled cost is the fixed term. They must match the oracle in
  // decisions, counters and history, must still count toward the purge,
  // and must leave the serialized state shard-count invariant.
  // Interleave zero-set and real transactions against the oracle and a
  // single-shard instance at every grid shard count to prove it.
  for (const std::size_t shards : grid()) {
    cert_config cfg;
    cfg.history_window = 32;
    reference_certifier oracle(cfg);
    sharded_certifier single(cfg);
    sharded_certifier sharded(with_shards(cfg, shards));
    util::rng g(4242);
    for (int i = 0; i < 800; ++i) {
      const std::uint64_t pos = oracle.position();
      const std::uint64_t begin =
          pos - std::min<std::uint64_t>(
                    pos, static_cast<std::uint64_t>(g.uniform_int(0, 50)));
      const int shape = static_cast<int>(g.uniform_int(0, 3));
      if (shape == 0) {
        // Empty read set on the read-only path.
        ASSERT_EQ(sharded.certify_read_only(begin, {}),
                  oracle.certify_read_only(begin, {}));
        ASSERT_EQ(sharded.last_cost(), cost_fixed);
      } else if (shape == 1) {
        // Both sets empty on the update path: consumes a position, can
        // only abort on the pre-window rule.
        ASSERT_EQ(sharded.certify_update(begin, {}, {}),
                  oracle.certify_update(begin, {}, {}));
        ASSERT_EQ(sharded.last_cost(), cost_fixed);
        single.certify_update(begin, {}, {});
      } else {
        std::vector<item_id> rs, ws;
        const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 120));
        rs.push_back(tup(n));
        ws.push_back(tup(n + 1));
        normalize(rs);
        normalize(ws);
        ASSERT_EQ(sharded.certify_update(begin, rs, ws),
                  oracle.certify_update(begin, rs, ws));
        single.certify_update(begin, rs, ws);
      }
      ASSERT_EQ(sharded.position(), oracle.position());
      ASSERT_EQ(sharded.commits(), oracle.commits());
      ASSERT_EQ(sharded.aborts(), oracle.aborts());
      ASSERT_EQ(sharded.history_size(), oracle.history_size());
      ASSERT_EQ(sharded.oldest_retained(), oracle.oldest_retained());
      ASSERT_EQ(sharded.index_size(), single.index_size());
    }
    EXPECT_GT(oracle.aborts(), 0u);  // pre-window aborts actually hit
    // The first purge runs at 2 × window commits: the index and snapshot
    // checks have crossed it.
    EXPECT_GE(sharded.commits(), 2 * cfg.history_window);
    // The serialized state is the same bytes at every shard count,
    // through the empty sets too.
    util::buffer_writer wa, wb;
    single.snapshot(wa);
    sharded.snapshot(wb);
    ASSERT_EQ(wa.take()->written_out(), wb.take()->written_out())
        << "shards " << shards;
  }
}

// Index slots keep 32-bit positions while the certifier counts in 64
// bits: a certifier restored at the last position a slot holds restores
// exactly, and its next commit throws instead of wrapping.
TEST(cert_snapshot, restored_at_the_last_32_bit_position_throws_on_commit) {
  const std::uint64_t last = (1ull << 32) - 1;
  util::buffer_writer w;
  w.put_u64(last);      // position
  w.put_u64(1);         // oldest retained
  w.put_u64(1);         // commits
  w.put_u64(last - 1);  // aborts
  w.put_u64(1);         // retained positions
  w.put_u64(last);
  w.put_u64(1);  // index entries
  w.put_u64(tup(1));
  w.put_u64(last);
  w.put_u64(0);     // origins (no low waters)
  w.put_u64(1024);  // purge trigger
  const util::bytes b = w.take()->written_out();
  for (const std::size_t shards : grid()) {
    sharded_certifier c(with_shards(cert_config{}, shards));
    util::buffer_reader r(b.data(), b.size());
    c.restore(r);
    ASSERT_TRUE(r.done());
    util::buffer_writer again;
    c.snapshot(again);
    EXPECT_EQ(again.take()->written_out(), b);
    EXPECT_THROW(c.certify_update(c.position(), {}, {tup(2)}),
                 invariant_violation)
        << "shards " << shards;
  }
}

// The certification snapshot, mutated: every byte flipped, every
// truncation, and each count field set to all-ones. Each mutant either
// throws invariant_violation or restores on a fresh certifier and
// re-serializes to exactly the bytes restore consumed. Any other
// exception fails the test. The donors, at 1 and at 8 shards, have
// crossed several purges and hold three origins' low waters.
TEST(cert_snapshot, every_mutant_restores_exactly_or_throws) {
  constexpr std::size_t origins = 3;
  util::bytes at_one_shard;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    cert_config cfg;
    cfg.history_window = 8;
    cfg.shards = shards;
    sharded_certifier donor(cfg, origins);
    util::rng g(61);
    for (int i = 0; i < 80; ++i) {
      // Every snapshot below is at most 12 positions old.
      const std::uint64_t now = donor.position();
      donor.note_low_water(static_cast<node_id>(i % origins),
                           now - std::min<std::uint64_t>(now, 12));
      std::vector<item_id> rs, ws;
      const auto n = static_cast<std::uint64_t>(g.uniform_int(0, 60));
      rs.push_back(g.bernoulli(0.3) ? gran(n >> 3) : tup(n));
      ws.push_back(tup(n + 1));
      if (g.bernoulli(0.5)) ws.push_back(gran((n + 1) >> 3));
      normalize(rs);
      normalize(ws);
      const std::uint64_t pos = donor.position();
      const std::uint64_t begin =
          pos - std::min<std::uint64_t>(
                    pos, static_cast<std::uint64_t>(g.uniform_int(0, 12)));
      donor.certify_update(begin, rs, ws);
    }
    // Purges run at every multiple of the window past the first.
    ASSERT_GE(donor.commits(), 4 * cfg.history_window);
    util::buffer_writer w;
    donor.snapshot(w);
    const util::bytes b = w.take()->written_out();
    if (shards == 1) at_one_shard = b;
    EXPECT_EQ(b, at_one_shard);

    ASSERT_GT(donor.low_water_bound(), 0u);
    const auto exact_or_rejected = [&cfg](const util::bytes& m) {
      try {
        sharded_certifier joiner(cfg, origins);
        util::buffer_reader r(m.data(), m.size());
        joiner.restore(r);
        util::buffer_writer again;
        joiner.snapshot(again);
        EXPECT_EQ(again.take()->written_out(),
                  util::bytes(m.begin(), m.begin() + r.position()));
      } catch (const invariant_violation&) {
      }
    };
    {
      sharded_certifier joiner(cfg, origins);
      util::buffer_reader r(b.data(), b.size());
      joiner.restore(r);
      ASSERT_TRUE(r.done());
      EXPECT_EQ(joiner.index_size(), donor.index_size());
      EXPECT_EQ(joiner.low_water_bound(), donor.low_water_bound());
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      util::bytes m = b;
      m[i] ^= static_cast<std::uint8_t>(g.uniform_int(1, 255));
      exact_or_rejected(m);
    }
    for (std::size_t len = 0; len < b.size(); ++len)
      exact_or_rejected(util::bytes(b.begin(), b.begin() + len));
    // What snapshot never writes: retained positions out of order or past
    // `position`, more of them than the window, an index entry past
    // `position`, one commit more than the positions hold, a low-water
    // table of another size and a purge trigger below 1024. Bytes 0, 8,
    // 16 hold position, oldest retained and commits, byte 32 the count of
    // retained positions, then the positions, then the entry count and
    // the entries, then the origin count, the low waters and the trigger.
    const std::size_t entries_at = 40 + 8 * donor.history_size();
    const std::size_t origins_at = entries_at + 8 + 16 * donor.index_size();
    const std::size_t trigger_at = origins_at + 8 + 8 * origins;
    ASSERT_EQ(trigger_at + 8, b.size());
    const auto put_u64_at = [](util::bytes& m, std::size_t at,
                               std::uint64_t v) {
      for (int k = 0; k < 8; ++k)
        m[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
    };
    std::vector<util::bytes> invalid(8, b);
    std::swap_ranges(invalid[0].begin() + 40, invalid[0].begin() + 48,
                     invalid[0].begin() + 48);
    put_u64_at(invalid[1], 40 + 8 * (donor.history_size() - 1),
               donor.position() + 1);
    put_u64_at(invalid[2], 32, cfg.history_window + 1);
    put_u64_at(invalid[3], entries_at + 16, donor.position() + 1);
    put_u64_at(invalid[4], 16, donor.commits() + 1);
    put_u64_at(invalid[5], origins_at, origins - 1);
    put_u64_at(invalid[6], origins_at, origins + 1);
    put_u64_at(invalid[7], trigger_at, sharded_certifier::min_purge_at - 1);
    for (const util::bytes& m : invalid) {
      EXPECT_THROW(
          {
            sharded_certifier joiner(cfg, origins);
            util::buffer_reader r(m.data(), m.size());
            joiner.restore(r);
          },
          invariant_violation);
    }
    // The three counts set to all ones.
    for (const std::size_t at : {std::size_t{32}, entries_at, origins_at}) {
      util::bytes m = b;
      std::fill(m.begin() + static_cast<std::ptrdiff_t>(at),
                m.begin() + static_cast<std::ptrdiff_t>(at + 8), 0xff);
      EXPECT_THROW(
          {
            sharded_certifier joiner(cfg, origins);
            util::buffer_reader r(m.data(), m.size());
            joiner.restore(r);
          },
          invariant_violation);
    }
  }
}

}  // namespace
}  // namespace dbsm::cert
