// Unit tests for util: rng, distributions, stats, buffers, tables, flags,
// and the flat open-addressing table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/check.hpp"
#include "util/distributions.hpp"
#include "util/flags.hpp"
#include "util/open_table.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dbsm::util {
namespace {

TEST(rng, deterministic_and_seed_sensitive) {
  rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  rng a2(1);
  for (int i = 0; i < 100; ++i)
    if (a2.next_u64() != c.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(rng, fork_independent_of_parent_consumption) {
  rng a(42);
  rng fork_before = a.fork("x");
  for (int i = 0; i < 10; ++i) a.next_u64();
  rng fork_after = a.fork("x");
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(fork_before.next_u64(), fork_after.next_u64());
}

TEST(rng, uniform_int_bounds) {
  rng g(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = g.uniform_int(-5, 7);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 7);
  }
  EXPECT_EQ(g.uniform_int(3, 3), 3);
}

TEST(rng, uniform_in_unit_interval) {
  rng g(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(rng, exponential_mean) {
  rng g(5);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += g.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(rng, normal_moments) {
  rng g(6);
  running_stats s;
  for (int i = 0; i < 50000; ++i) s.add(g.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(distributions, constant_uniform_exponential) {
  rng g(7);
  auto c = constant_dist(5.0);
  EXPECT_DOUBLE_EQ(c->sample(g), 5.0);
  EXPECT_DOUBLE_EQ(c->mean(), 5.0);

  auto u = uniform_dist(2.0, 4.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = u->sample(g);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 4.0);
  }
  EXPECT_DOUBLE_EQ(u->mean(), 3.0);

  auto e = exponential_dist(2.0);
  running_stats s;
  for (int i = 0; i < 50000; ++i) s.add(e->sample(g));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(distributions, lognormal_matches_configured_mean_and_cv) {
  rng g(8);
  auto d = lognormal_dist(0.020, 0.3);
  running_stats s;
  for (int i = 0; i < 100000; ++i) s.add(d->sample(g));
  EXPECT_NEAR(s.mean(), 0.020, 0.001);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.3, 0.05);
}

TEST(distributions, lognormal_cap_applies) {
  rng g(9);
  auto d = lognormal_dist(1.0, 2.0, 1.5);
  for (int i = 0; i < 10000; ++i) EXPECT_LE(d->sample(g), 1.5);
}

TEST(distributions, empirical_interpolates_range) {
  rng g(10);
  auto d = empirical_dist({1.0, 2.0, 3.0});
  for (int i = 0; i < 1000; ++i) {
    const double v = d->sample(g);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 3.0);
  }
  EXPECT_NEAR(d->mean(), 2.0, 1e-9);
}

TEST(distributions, mixture_weights) {
  rng g(11);
  auto d = mixture_dist({{1.0, constant_dist(0.0)}, {3.0, constant_dist(1.0)}});
  running_stats s;
  for (int i = 0; i < 40000; ++i) s.add(d->sample(g));
  EXPECT_NEAR(s.mean(), 0.75, 0.01);
  EXPECT_DOUBLE_EQ(d->mean(), 0.75);
}

TEST(stats, running_stats_basic) {
  running_stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(stats, running_stats_merge_equals_combined) {
  running_stats a, b, all;
  rng g(12);
  for (int i = 0; i < 1000; ++i) {
    const double v = g.normal(5, 2);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(stats, quantiles_and_ecdf) {
  sample_set s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.ecdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.ecdf_at(100.0), 1.0);
  EXPECT_NEAR(s.ecdf_at(50.0), 0.5, 0.01);
}

TEST(stats, qq_series_of_identical_distributions_is_diagonal) {
  rng g(13);
  sample_set a, b;
  for (int i = 0; i < 20000; ++i) {
    a.add(g.exponential(1.0));
    b.add(g.exponential(1.0));
  }
  for (const auto& [x, y] : qq_series(a, b, 20)) {
    if (x < 2.0) {
      EXPECT_NEAR(y, x, 0.15);
    }
  }
}

TEST(stats, utilization_tracker_integrates) {
  utilization_tracker t(2.0);
  t.set_busy(0, 2.0);
  t.set_busy(500, 1.0);
  // [0,500): 2 busy of 2; [500,1000): 1 of 2.
  EXPECT_NEAR(t.utilization(1000), 0.75, 1e-12);
}

TEST(byte_buffer, round_trip_all_types) {
  buffer_writer w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_i64(-42);
  w.put_double(3.25);
  w.put_string("hello");
  w.put_padding(16);
  auto data = w.take();

  buffer_reader r(data);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_double(), 3.25);
  EXPECT_EQ(r.get_string(), "hello");
  r.skip(16);
  EXPECT_TRUE(r.done());
}

TEST(byte_buffer, underflow_throws) {
  buffer_writer w;
  w.put_u16(7);
  auto data = w.take();
  buffer_reader r(data);
  r.get_u16();
  EXPECT_THROW(r.get_u8(), invariant_violation);
}

TEST(invariant_message, names_the_source_relative_to_the_repository) {
  // A library check reports src/... whatever directory the checkout is
  // in, so two checkouts print the same failure byte for byte.
  buffer_writer w;
  w.put_u16(7);
  buffer_reader r(w.take());
  try {
    r.get_u32();
    FAIL() << "underflow did not throw";
  } catch (const invariant_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/util/byte_buffer.cpp:"), std::string::npos)
        << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
}

TEST(byte_buffer, oversized_skip_throws_instead_of_wrapping) {
  // A length read off the wire can be as large as the type allows: the
  // bounds check must not overflow and let the cursor wrap backwards.
  buffer_writer w;
  w.put_u64(0x0102030405060708ull);
  w.put_u64(0x1112131415161718ull);
  auto data = w.take();
  buffer_reader r(data);
  EXPECT_EQ(r.get_u64(), 0x0102030405060708ull);
  EXPECT_THROW(r.skip(SIZE_MAX), invariant_violation);
  EXPECT_THROW(r.skip(SIZE_MAX - 7), invariant_violation);
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.get_u64(), 0x1112131415161718ull);
  EXPECT_TRUE(r.done());
}

// A payload that keeps its zeros as a count reads, slices, appends and
// concatenates exactly like the std::vector that spells them out: random
// stored prefixes and counts, random calls on both, equal results.
TEST(byte_buffer, zero_count_matches_the_written_out_bytes) {
  rng g(29);
  const auto random_buffer = [&g] {
    bytes stored(static_cast<std::size_t>(g.uniform_int(0, 20)));
    for (std::uint8_t& b : stored) b = static_cast<std::uint8_t>(g.next_u64());
    return std::make_shared<const byte_buffer>(
        std::move(stored), static_cast<std::size_t>(g.uniform_int(0, 20)));
  };
  for (int rep = 0; rep < 400; ++rep) {
    const shared_bytes buf = random_buffer();
    const bytes flat = buf->written_out();
    ASSERT_EQ(flat.size(), buf->size());
    buffer_reader r(buf);
    buffer_reader f(flat.data(), flat.size());
    while (!f.done()) {
      const auto n = static_cast<std::size_t>(g.uniform_int(0, 10));
      if (n > f.remaining()) {
        EXPECT_THROW(r.skip(n), invariant_violation);
        EXPECT_THROW(f.skip(n), invariant_violation);
        continue;
      }
      switch (g.uniform_int(0, 3)) {
        case 0:  // the widest integer that fits in n bytes
          if (n >= 8) {
            EXPECT_EQ(r.get_u64(), f.get_u64());
          } else if (n >= 4) {
            EXPECT_EQ(r.get_u32(), f.get_u32());
          } else if (n >= 2) {
            EXPECT_EQ(r.get_u16(), f.get_u16());
          } else if (n == 1) {
            EXPECT_EQ(r.get_u8(), f.get_u8());
          }
          break;
        case 1: {
          bytes a(n, 0xa5), b(n, 0xa5);  // every byte must be written
          r.get_bytes(a.data(), n);
          f.get_bytes(b.data(), n);
          EXPECT_EQ(a, b);
          break;
        }
        case 2:
          r.skip(n);
          f.skip(n);
          break;
        default: {
          const std::size_t pos = r.position();
          const std::size_t have = buf->stored().size();
          const shared_bytes a = r.get_buffer(n);
          EXPECT_EQ(a->written_out(), f.get_buffer(n)->written_out());
          // Only the stored part of the range is copied.
          EXPECT_EQ(a->stored().size(), pos < have ? std::min(n, have - pos)
                                                   : std::size_t{0});
          break;
        }
      }
      ASSERT_EQ(r.position(), f.position());
    }
    EXPECT_TRUE(r.done());

    // The same puts on a writer that keeps zeros as a count and on one
    // that spells every byte out.
    buffer_writer w, v;
    w.put_buffer(*buf);
    v.put_bytes(flat.data(), flat.size());
    for (int op = 0; op < 6; ++op) {
      const std::uint64_t x = g.next_u64();
      const shared_bytes part = random_buffer();
      const bytes part_flat = part->written_out();
      const bytes zeros(x % 16);
      switch (g.uniform_int(0, 5)) {
        case 0:
          w.put_u8(static_cast<std::uint8_t>(x));
          v.put_u8(static_cast<std::uint8_t>(x));
          break;
        case 1:
          w.put_u32(static_cast<std::uint32_t>(x));
          v.put_u32(static_cast<std::uint32_t>(x));
          break;
        case 2:
          w.put_u64(x);
          v.put_u64(x);
          break;
        case 3:
          w.put_padding(zeros.size());
          v.put_bytes(zeros.data(), zeros.size());
          break;
        default:
          w.put_buffer(*part);
          v.put_bytes(part_flat.data(), part_flat.size());
          break;
      }
      ASSERT_EQ(w.size(), v.size());
    }
    EXPECT_EQ(w.take()->written_out(), v.take()->written_out());

    std::vector<shared_bytes> parts;
    bytes joined;
    for (std::int64_t k = g.uniform_int(0, 4); k > 0; --k) {
      parts.push_back(random_buffer());
      const bytes p = parts.back()->written_out();
      joined.insert(joined.end(), p.begin(), p.end());
    }
    const shared_bytes whole = concat(parts);
    EXPECT_EQ(whole->written_out(), joined);
    if (!parts.empty()) {
      EXPECT_GE(whole->padding(), parts.back()->padding());
    }
  }
}

TEST(table, renders_aligned) {
  text_table t;
  t.header({"name", "value"});
  t.row({"x", "1.00"});
  t.row({"longer", "23.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("23.50"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(flags, parse_forms) {
  flag_set f;
  f.declare("clients", "100", "number of clients");
  f.declare("rate", "0.5", "loss rate");
  f.declare("verbose", "false", "verbosity");
  f.declare("name", "abc", "label");
  const char* argv[] = {"prog", "--clients=250", "--rate", "0.75",
                        "--verbose"};
  ASSERT_TRUE(f.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("clients"), 250);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 0.75);
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_string("name"), "abc");
  EXPECT_TRUE(f.is_set("clients"));
  EXPECT_FALSE(f.is_set("name"));
}

TEST(flags, unknown_flag_rejected) {
  flag_set f;
  f.declare("x", "1", "");
  const char* argv[] = {"prog", "--nope=3"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(argv)));
  // Last and without a value, an unknown flag is still named as unknown.
  const char* trailing[] = {"prog", "--smoke"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(f.parse(2, const_cast<char**>(trailing)));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown flag: --smoke"), std::string::npos) << err;
}

TEST(check, macros_throw_with_context) {
  EXPECT_THROW(
      [] { DBSM_CHECK_MSG(1 == 2, "custom " << 42); }(),
      invariant_violation);
  try {
    DBSM_CHECK_MSG(false, "needle " << 7);
  } catch (const invariant_violation& e) {
    EXPECT_NE(std::string(e.what()).find("needle 7"), std::string::npos);
  }
}

// ---------- open_table ----------

struct kv {
  std::uint64_t key;
  std::uint64_t value;  // 0 marks an empty slot
};
struct kv_policy {
  static std::uint64_t key(const kv& s) { return s.key; }
  static bool empty(const kv& s) { return s.value == 0; }
  static kv empty_slot() { return {0, 0}; }
};
using kv_table = open_table<kv, kv_policy>;

/// `count` random keys whose home slot is `top` in a table of 2^`bits`
/// slots. A key's home at fewer bits is a prefix of its home at more, so
/// these keys share a home at every smaller size too, and keep colliding
/// while the table grows.
std::vector<std::uint64_t> colliding_keys(std::uint64_t top, unsigned bits,
                                          std::size_t count, rng& g) {
  std::vector<std::uint64_t> out;
  while (out.size() < count) {
    const std::uint64_t key = g.next_u64();
    if (open_table_home(key, bits) == top) out.push_back(key);
  }
  return out;
}

TEST(open_table, erase_matches_a_hash_map_across_the_wrap_around) {
  // Clusters on the highest home slot (their runs wrap around to slot 0)
  // and on the two lowest, plus scattered keys. Phases alternate growth
  // and shrinkage, so single-key erases shift runs back across the
  // wrap-around at every capacity the table grows through, interleaved
  // with bulk erase_if compactions.
  constexpr unsigned bits = 12;
  rng g(1818);
  std::vector<std::uint64_t> keys =
      colliding_keys((1u << bits) - 1, bits, 120, g);
  for (const std::uint64_t top : {0u, 1u}) {
    const std::vector<std::uint64_t> more = colliding_keys(top, bits, 60, g);
    keys.insert(keys.end(), more.begin(), more.end());
  }
  for (int i = 0; i < 2000; ++i) keys.push_back(g.next_u64());

  kv_table t;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  std::size_t erased = 0, compactions = 0;
  const auto verify = [&](int step) {
    for (const auto& [key, value] : model) {
      const kv* s = t.find(key);
      ASSERT_NE(s, nullptr) << "step " << step << " lost key " << key;
      ASSERT_EQ(s->value, value) << "step " << step;
    }
    std::size_t visited = 0, wrong = 0;
    t.for_each([&](const kv& s) {
      ++visited;
      const auto it = model.find(s.key);
      if (it == model.end() || it->second != s.value) ++wrong;
    });
    ASSERT_EQ(visited, model.size()) << "step " << step;
    ASSERT_EQ(wrong, 0u) << "step " << step;
  };
  for (int step = 0; step < 80000; ++step) {
    const std::uint64_t key = keys[static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
    const bool growing = (step / 4000) % 2 == 0;
    const double x = g.uniform();
    const std::uint64_t value = g.next_u64() | 1;
    if (x < (growing ? 0.55 : 0.2)) {
      ASSERT_EQ(t.insert_or_assign({key, value}), model.count(key) == 0);
      model[key] = value;
    } else if (x < (growing ? 0.7 : 0.3)) {
      const auto [s, fresh] = t.try_insert({key, value});
      ASSERT_EQ(fresh, model.count(key) == 0) << "step " << step;
      if (fresh) model[key] = value;
      ASSERT_EQ(s->value, model[key]) << "step " << step;
    } else if (x < 0.995) {
      kv* s = t.find(key);
      ASSERT_EQ(s != nullptr, model.count(key) == 1) << "step " << step;
      if (s == nullptr) continue;
      ASSERT_EQ(s->value, model[key]) << "step " << step;
      t.erase(s);
      model.erase(key);
      ++erased;
    } else {
      // Drop up to a quarter of the entries in one compaction.
      const std::uint64_t cut = g.next_u64() / 4;
      t.erase_if([cut](const kv& s) { return s.value < cut; });
      std::erase_if(model, [cut](const auto& e) { return e.second < cut; });
      ++compactions;
    }
    ASSERT_EQ(t.size(), model.size()) << "step " << step;
    if (step % 500 == 0) {
      verify(step);
      if (HasFatalFailure()) return;
    }
  }
  verify(80000);
  EXPECT_GT(erased, 10000u);
  EXPECT_GT(compactions, 100u);
}

}  // namespace
}  // namespace dbsm::util
