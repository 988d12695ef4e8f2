// Tests for the deterministic fault-scenario fuzzer (fault/fuzz.hpp):
// seed-reproducibility of generation and outcomes, the serialized replay
// format, and the shrinker's minimal-reproduction contract.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "fault/fuzz.hpp"

namespace dbsm::fault::fuzz {
namespace {

config quick_cfg() {
  config c;
  c.target_responses = 150;
  return c;
}

TEST(fuzz_generate, same_seed_same_scenario) {
  const config cfg;
  for (const std::uint64_t seed : {1u, 7u, 19u, 42u}) {
    const scenario_spec a = generate(seed, cfg);
    const scenario_spec b = generate(seed, cfg);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(serialize(a), serialize(b));  // byte-identical text form
    EXPECT_EQ(a.seed, seed);
    EXPECT_FALSE(a.events.empty());
    EXPECT_LE(a.events.size(), cfg.max_faults);
  }
  EXPECT_NE(generate(1, cfg), generate(2, cfg));
}

TEST(fuzz_generate, respects_the_horizon) {
  config cfg;
  cfg.horizon = seconds(40);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const event& e : generate(seed, cfg).events) {
      EXPECT_GE(e.start, 0);
      EXPECT_LE(e.start, cfg.horizon);
      EXPECT_GE(e.stop, e.start);
    }
  }
}

TEST(fuzz_run, same_spec_same_outcome) {
  const config cfg = quick_cfg();
  const scenario_spec spec = generate(7, cfg);
  const run_result a = run_spec(spec, cfg);
  const run_result b = run_spec(spec, cfg);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.ok) << a.detail;
  EXPECT_GT(a.committed, 0u);
}

TEST(fuzz_run, read_fast_path_smoke) {
  // The same fuzzed timelines, re-run with read-only clients on the fast
  // path (YCSB-B mix, read/ lease snapshots) and the read_snapshot
  // monitor armed: generation is untouched by the knob — only the system
  // under the timeline changes — and every read the fuzz cases provoke
  // must check out against the reference agreed order.
  config cfg = quick_cfg();
  cfg.read_fast_path = true;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(generate(seed, cfg), generate(seed, quick_cfg()));
    const run_result r = run_spec(generate(seed, cfg), cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
    EXPECT_GT(r.committed, 0u) << "seed " << seed;
  }
}

TEST(fuzz_run, batching_smoke) {
  // The same fuzzed timelines at batch_max = 32, off the default:
  // generation is untouched by the knob (same seed, same scenario), and
  // every timeline must come out clean under the monitors.
  config cfg = quick_cfg();
  cfg.batch_max = 32;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(generate(seed, cfg), generate(seed, quick_cfg()));
    const run_result r = run_spec(generate(seed, cfg), cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
    EXPECT_GT(r.committed, 0u) << "seed " << seed;
  }
}

TEST(fuzz_run, batching_rerun_is_deterministic) {
  // run_spec at batch_max = 32 is still a pure function of the spec: the
  // two-stage hand-off must not leak scheduling nondeterminism into the
  // outcome.
  config cfg = quick_cfg();
  cfg.batch_max = 32;
  const scenario_spec spec = generate(7, cfg);
  const run_result a = run_spec(spec, cfg);
  const run_result b = run_spec(spec, cfg);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.ok) << a.detail;
}

TEST(fuzz_run, orphan_rollback_seeds_pass) {
  // The generated timelines, at the defaults, that roll the certification
  // oracle back at a view install (an orphan branch past the view's cut).
  const config cfg;
  for (const std::uint64_t seed : {19u, 91u, 115u, 159u}) {
    const run_result r = run_spec(generate(seed, cfg), cfg);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
  }
}

TEST(fuzz_run, invariant_failure_is_a_failing_run) {
  // Seed 34 trips an internal invariant mid-run: a recovery restores a
  // certifier that is not fresh (an open protocol bug; once it is fixed
  // this needs another seed that trips one). run_spec reports it as a
  // failing run naming the invariant, so shrink() can work on it,
  // instead of letting the exception escape.
  config cfg;
  cfg.shrink_budget = 4;
  const scenario_spec spec = generate(34, cfg);
  const run_result r = run_spec(spec, cfg);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("invariant failed: position_ == 0"),
            std::string::npos)
      << r.detail;
  const scenario_spec shrunk = shrink(spec, cfg);
  EXPECT_TRUE(is_shrink_of(shrunk, spec));
  EXPECT_FALSE(run_spec(shrunk, cfg).ok);
}

TEST(fuzz_serialize, text_round_trip_is_exact) {
  const config cfg;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const scenario_spec spec = generate(seed, cfg);
    const auto back = parse(serialize(spec));
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_EQ(*back, spec) << "seed " << seed;
  }
  // One event of every kind, link_delay_oneway included, which the
  // generator never draws but a replay file may name.
  scenario_spec every_kind;
  every_kind.seed = 11;
  every_kind.sites = 5;
  for (const kind k :
       {kind::loss_random, kind::loss_bursty, kind::clock_drift,
        kind::sched_latency, kind::link_delay, kind::partition,
        kind::partition_oneway, kind::crash, kind::recover,
        kind::link_delay_oneway}) {
    event e;
    e.what = k;
    e.targets = site_set{1, 3};
    e.side_b = site_set{0, 4};
    e.start = seconds(2) + static_cast<sim_time>(k);
    e.stop = e.one_shot() ? e.start : e.start + milliseconds(1500);
    e.param = 0.1 / 3;
    e.param2 = 4.25;
    e.dur = milliseconds(75);
    every_kind.events.push_back(e);
  }
  const auto back = parse(serialize(every_kind));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, every_kind);

  EXPECT_FALSE(parse("not a scenario").has_value());
  EXPECT_FALSE(parse("").has_value());
}

TEST(fuzz_serialize, file_round_trip) {
  const config cfg;
  const scenario_spec spec = generate(3, cfg);
  const std::string path = "fuzz_test_roundtrip.scenario";
  ASSERT_TRUE(save(spec, path));
  const auto back = load(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, spec);
  std::remove(path.c_str());
  EXPECT_FALSE(load("fuzz_test_does_not_exist.scenario").has_value());
}

TEST(fuzz_shrink, minimal_failing_shrink_of_the_original) {
  config cfg = quick_cfg();
  // Deliberately broken build under test: the primary-partition rule is
  // off, so an isolated minority installs a solo view and the chain-rule
  // monitor has a real split-brain to catch.
  cfg.break_primary_partition = true;

  // Hand-built failing case with deliberate fat to trim: a harmless loss
  // window plus the partition that actually causes the violation.
  scenario_spec spec;
  spec.seed = 5;
  spec.sites = 3;
  event loss;
  loss.what = kind::loss_random;
  loss.targets = site_set{0, 1, 2};
  loss.start = seconds(1);
  loss.stop = seconds(2);
  loss.param = 0.02;
  event part;
  part.what = kind::partition;
  part.targets = site_set{2};
  part.start = seconds(5);
  part.stop = seconds(30);
  spec.events = {loss, part};

  const run_result broken = run_spec(spec, cfg);
  ASSERT_FALSE(broken.ok);
  EXPECT_NE(broken.detail.find("primary_partition"), std::string::npos)
      << broken.detail;

  const scenario_spec shrunk = shrink(spec, cfg);
  EXPECT_TRUE(is_shrink_of(shrunk, spec));
  // The loss window is irrelevant to the split brain: the drop pass must
  // have removed it, leaving only the partition.
  ASSERT_EQ(shrunk.events.size(), 1u);
  EXPECT_EQ(shrunk.events[0].what, kind::partition);
  EXPECT_GE(shrunk.events[0].start, part.start);
  EXPECT_LE(shrunk.events[0].stop, part.stop);

  // The shrunk case still reproduces — also after a serialize round-trip,
  // which is exactly how a saved case replays (docs/REPRODUCING.md).
  const auto replay = parse(serialize(shrunk));
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(*replay, shrunk);
  const run_result res = run_spec(*replay, cfg);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.detail.find("primary_partition"), std::string::npos);
}

TEST(fuzz_shrink, passing_spec_returns_unchanged) {
  const config cfg = quick_cfg();
  const scenario_spec spec = generate(7, cfg);
  EXPECT_EQ(shrink(spec, cfg), spec);
}

TEST(fuzz_shrink, is_shrink_of_rejects_non_reductions) {
  const config cfg;
  const scenario_spec spec = generate(7, cfg);
  EXPECT_TRUE(is_shrink_of(spec, spec));  // trivially its own shrink

  scenario_spec widened = spec;
  widened.events[0].stop += seconds(1);  // window grew: not nested
  EXPECT_FALSE(is_shrink_of(widened, spec));

  scenario_spec reseeded = spec;
  reseeded.seed = spec.seed + 1;  // different run entirely
  EXPECT_FALSE(is_shrink_of(reseeded, spec));

  scenario_spec extended = spec;
  extended.events.push_back(spec.events[0]);  // not a subsequence
  EXPECT_FALSE(is_shrink_of(extended, spec));
}

}  // namespace
}  // namespace dbsm::fault::fuzz
