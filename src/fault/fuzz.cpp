#include "fault/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "fault/fault_types.hpp"
#include "util/rng.hpp"
#include "workload/kv.hpp"

namespace dbsm::fault::fuzz {

namespace {

constexpr const char* kKindNames[] = {
    "loss_random",  "loss_bursty", "clock_drift",
    "sched_latency", "link_delay",  "partition",
    "partition_oneway", "crash",   "recover",
};

/// Smallest window the shrinker will keep halving below.
constexpr sim_duration kMinWindow = milliseconds(500);

std::string sites_str(const site_set& s) {
  if (s.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(s[i]);
  }
  return out;
}

bool parse_sites(const std::string& tok, site_set& out) {
  out.clear();
  if (tok == "-") return true;
  std::istringstream is(tok);
  std::string part;
  while (std::getline(is, part, ',')) {
    try {
      out.push_back(static_cast<unsigned>(std::stoul(part)));
    } catch (...) {
      return false;
    }
  }
  return !out.empty();
}

std::string double_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Draws a distinct random subset of [0, sites) with `count` elements.
site_set pick_sites(util::rng& r, unsigned sites, unsigned count) {
  site_set out;
  while (out.size() < count) {
    const auto s = static_cast<unsigned>(r.uniform_int(0, sites - 1));
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool is_subset(const site_set& a, const site_set& b) {
  return std::all_of(a.begin(), a.end(), [&](unsigned s) {
    return std::find(b.begin(), b.end(), s) != b.end();
  });
}

}  // namespace

const char* kind_name(event_kind k) {
  return kKindNames[static_cast<std::size_t>(k)];
}

scenario scenario_spec::build() const {
  scenario s("fuzz-" + std::to_string(seed));
  for (const event_spec& e : events) {
    fault_ptr f;
    switch (e.kind) {
      case event_kind::loss_random:
        f = loss_fault::random(e.param, site_selector(e.targets));
        break;
      case event_kind::loss_bursty:
        f = loss_fault::bursty(e.param, e.param2, site_selector(e.targets));
        break;
      case event_kind::clock_drift:
        f = std::make_shared<clock_drift_fault>(e.param,
                                                site_selector(e.targets));
        break;
      case event_kind::sched_latency:
        f = std::make_shared<sched_latency_fault>(e.dur,
                                                  site_selector(e.targets));
        break;
      case event_kind::link_delay:
        f = std::make_shared<link_delay_fault>(e.dur, e.targets, e.side_b);
        break;
      case event_kind::partition:
        f = std::make_shared<partition_fault>(e.targets, e.side_b);
        break;
      case event_kind::partition_oneway:
        f = partition_fault::one_way(e.targets, e.side_b);
        break;
      case event_kind::crash:
        f = std::make_shared<crash_fault>(site_selector(e.targets));
        break;
      case event_kind::recover:
        f = std::make_shared<recover_fault>(site_selector(e.targets));
        break;
    }
    // One-shots fire at start; a 1 ns window keeps them distinct from the
    // zero-width (never-arm) no-op.
    s.add(std::move(f), e.start, e.one_shot() ? e.start + 1 : e.stop);
  }
  return s;
}

bool scenario_spec::needs_recovery() const {
  return std::any_of(events.begin(), events.end(), [](const event_spec& e) {
    return e.kind == event_kind::recover;
  });
}

scenario_spec generate(std::uint64_t seed, const config& cfg) {
  scenario_spec spec;
  spec.seed = seed;
  spec.sites = cfg.sites;
  util::rng r = util::rng(seed).fork("fuzz");

  const unsigned max_faults = std::max(1u, cfg.max_faults);
  const auto n =
      static_cast<unsigned>(r.uniform_int(1, max_faults));
  // Never take down a majority at once: crashes and partition cuts are
  // capped at a strict minority, so every generated scenario keeps a
  // primary partition and the run stays live.
  const unsigned minority = std::max(1u, (cfg.sites - 1) / 2);
  unsigned crash_budget = cfg.sites >= 3 ? minority : 0;
  site_set crashed;  // candidates for a later recover event

  const double horizon_s = to_seconds(cfg.horizon);
  for (unsigned i = 0; i < n; ++i) {
    std::vector<event_kind> kinds = {
        event_kind::loss_random,     event_kind::loss_bursty,
        event_kind::clock_drift,     event_kind::sched_latency,
        event_kind::link_delay,      event_kind::partition,
        event_kind::partition_oneway};
    if (crash_budget > 0) kinds.push_back(event_kind::crash);
    if (cfg.allow_recovery && !crashed.empty())
      kinds.push_back(event_kind::recover);

    event_spec e;
    e.kind = kinds[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    e.start = from_seconds(r.uniform() * horizon_s * 0.6);
    e.stop = e.start +
             from_seconds(0.5 + r.uniform() * horizon_s * 0.4);

    switch (e.kind) {
      case event_kind::loss_random:
        e.param = 0.02 + 0.28 * r.uniform();
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, cfg.sites)));
        break;
      case event_kind::loss_bursty:
        e.param = 0.02 + 0.18 * r.uniform();
        e.param2 = 2.0 + 6.0 * r.uniform();
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, cfg.sites)));
        break;
      case event_kind::clock_drift:
        e.param = 0.01 + 0.14 * r.uniform();
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, cfg.sites)));
        break;
      case event_kind::sched_latency:
        e.dur = from_millis(1.0 + 9.0 * r.uniform());
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, cfg.sites)));
        break;
      case event_kind::link_delay:
        e.dur = from_millis(50.0 + 450.0 * r.uniform());
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, minority)));
        break;
      case event_kind::partition:
      case event_kind::partition_oneway:
        e.targets = pick_sites(
            r, cfg.sites,
            static_cast<unsigned>(r.uniform_int(1, minority)));
        break;
      case event_kind::crash: {
        site_set alive;
        for (unsigned s = 0; s < cfg.sites; ++s)
          if (std::find(crashed.begin(), crashed.end(), s) == crashed.end())
            alive.push_back(s);
        e.targets = {alive[static_cast<std::size_t>(r.uniform_int(
            0, static_cast<std::int64_t>(alive.size()) - 1))]};
        e.stop = e.start;
        crashed.push_back(e.targets[0]);
        --crash_budget;
        break;
      }
      case event_kind::recover: {
        const auto idx = static_cast<std::size_t>(r.uniform_int(
            0, static_cast<std::int64_t>(crashed.size()) - 1));
        e.targets = {crashed[idx]};
        crashed.erase(crashed.begin() + static_cast<std::ptrdiff_t>(idx));
        ++crash_budget;
        // A recovery needs its crash to have happened and some slack for
        // the exclusion to settle before the rejoin starts.
        e.start += from_seconds(2.0 + 8.0 * r.uniform());
        e.stop = e.start;
        break;
      }
    }
    spec.events.push_back(std::move(e));
  }
  std::stable_sort(spec.events.begin(), spec.events.end(),
                   [](const event_spec& a, const event_spec& b) {
                     return a.start < b.start;
                   });
  // Ordering constraint the sort may have broken: a recover must follow
  // its site's crash. Rather than re-time, drop orphaned recovers (the
  // spec stays valid, just one event shorter).
  site_set down;
  std::vector<event_spec> kept;
  for (event_spec& e : spec.events) {
    if (e.kind == event_kind::crash) down.push_back(e.targets[0]);
    if (e.kind == event_kind::recover) {
      auto it = std::find(down.begin(), down.end(), e.targets[0]);
      if (it == down.end()) continue;
      down.erase(it);
    }
    kept.push_back(std::move(e));
  }
  spec.events = std::move(kept);
  return spec;
}

run_result run_spec(const scenario_spec& spec, const config& cfg) {
  core::experiment_config ec;
  ec.sites = spec.sites;
  ec.cpus_per_site = 1;
  ec.clients = cfg.clients;
  ec.target_responses = cfg.target_responses;
  ec.max_sim_time = cfg.max_sim_time;
  ec.seed = spec.seed;
  ec.faults = spec.build();
  // Recovery wiring is keyed on the config, not on whether a shrink
  // candidate still contains a recover event, so dropping one changes the
  // timeline only — not the protocol stack under it.
  ec.enable_recovery = cfg.allow_recovery || spec.needs_recovery();
  ec.gcs.unsafe_no_primary_partition = cfg.break_primary_partition;
  ec.gcs.batch_max = cfg.batch_max;
  ec.checks = cfg.checks;
  if (cfg.read_fast_path) {
    kv::kv_config k;
    k.preset = kv::mix::ycsb_b;
    ec.workload = kv::factory(k);
    ec.replica_cfg.read.path = read::mode::fast;
  }

  const core::experiment_result res = core::run_experiment(ec);
  run_result out;
  out.committed = res.stats.total_committed();
  out.responses = res.responses;
  out.violations = res.checks.violations.size();
  if (!res.checks.ok) {
    out.ok = false;
    out.detail = res.checks.summary();
  } else if (!res.safety.ok) {
    out.ok = false;
    out.detail = "safety: " + res.safety.detail;
  }
  return out;
}

scenario_spec shrink(const scenario_spec& spec, const config& cfg) {
  unsigned budget = cfg.shrink_budget;
  const auto fails = [&](const scenario_spec& s) {
    if (budget == 0) return false;  // out of budget: keep what we have
    --budget;
    return !run_spec(s, cfg).ok;
  };

  scenario_spec cur = spec;
  // Pass 1: drop whole events, tail first (later events tend to depend on
  // earlier ones — a recover on its crash — so tail removals succeed more
  // often and never orphan a survivor). Loop to a fixed point.
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (std::size_t i = cur.events.size(); i-- > 0;) {
      if (cur.events.size() <= 1 || budget == 0) break;
      scenario_spec cand = cur;
      cand.events.erase(cand.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        cur = std::move(cand);
        improved = true;
      }
    }
  }
  // Pass 2: narrow windows by binary halving — from the right (earlier
  // stop), then from the left (later start). Every candidate stays nested
  // in the original window.
  for (std::size_t i = 0; i < cur.events.size() && budget > 0; ++i) {
    if (cur.events[i].one_shot()) continue;
    while (budget > 0) {
      const event_spec& e = cur.events[i];
      if (e.stop - e.start <= kMinWindow) break;
      scenario_spec cand = cur;
      cand.events[i].stop = e.start + (e.stop - e.start) / 2;
      if (!fails(cand)) break;
      cur = std::move(cand);
    }
    while (budget > 0) {
      const event_spec& e = cur.events[i];
      if (e.stop - e.start <= kMinWindow) break;
      scenario_spec cand = cur;
      cand.events[i].start = e.start + (e.stop - e.start) / 2;
      if (!fails(cand)) break;
      cur = std::move(cand);
    }
  }
  // Pass 3: subset target sites.
  for (std::size_t i = 0; i < cur.events.size() && budget > 0; ++i) {
    for (std::size_t t = 0;
         cur.events[i].targets.size() > 1 &&
         t < cur.events[i].targets.size() && budget > 0;) {
      scenario_spec cand = cur;
      cand.events[i].targets.erase(cand.events[i].targets.begin() +
                                   static_cast<std::ptrdiff_t>(t));
      if (fails(cand)) {
        cur = std::move(cand);
      } else {
        ++t;
      }
    }
  }
  return cur;
}

bool is_shrink_of(const scenario_spec& shrunk,
                  const scenario_spec& original) {
  if (shrunk.seed != original.seed || shrunk.sites != original.sites)
    return false;
  std::size_t j = 0;
  for (const event_spec& e : shrunk.events) {
    bool matched = false;
    while (j < original.events.size()) {
      const event_spec& o = original.events[j];
      ++j;
      if (o.kind == e.kind && o.param == e.param && o.param2 == e.param2 &&
          o.dur == e.dur && o.side_b == e.side_b && e.start >= o.start &&
          e.stop <= o.stop && is_subset(e.targets, o.targets)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::string serialize(const scenario_spec& spec) {
  std::ostringstream os;
  os << "fuzz-scenario v1\n";
  os << "seed " << spec.seed << "\n";
  os << "sites " << spec.sites << "\n";
  for (const event_spec& e : spec.events) {
    os << "event " << kind_name(e.kind) << " start=" << e.start
       << " stop=" << e.stop << " targets=" << sites_str(e.targets)
       << " b=" << sites_str(e.side_b) << " p=" << double_str(e.param)
       << " p2=" << double_str(e.param2) << " dur=" << e.dur << "\n";
  }
  return os.str();
}

std::optional<scenario_spec> parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "fuzz-scenario v1") return {};
  scenario_spec spec;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "seed") {
      ls >> spec.seed;
    } else if (tag == "sites") {
      ls >> spec.sites;
    } else if (tag == "event") {
      std::string kind;
      ls >> kind;
      event_spec e;
      bool found = false;
      for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (kind == kKindNames[k]) {
          e.kind = static_cast<event_kind>(k);
          found = true;
          break;
        }
      }
      if (!found) return {};
      std::string field;
      while (ls >> field) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) return {};
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        try {
          if (key == "start") {
            e.start = std::stoll(val);
          } else if (key == "stop") {
            e.stop = std::stoll(val);
          } else if (key == "targets") {
            if (!parse_sites(val, e.targets)) return {};
          } else if (key == "b") {
            site_set b;
            if (val != "-" && !parse_sites(val, b)) return {};
            e.side_b = std::move(b);
          } else if (key == "p") {
            e.param = std::stod(val);
          } else if (key == "p2") {
            e.param2 = std::stod(val);
          } else if (key == "dur") {
            e.dur = std::stoll(val);
          } else {
            return {};
          }
        } catch (...) {
          return {};
        }
      }
      spec.events.push_back(std::move(e));
    } else {
      return {};
    }
  }
  if (spec.sites == 0) return {};
  return spec;
}

bool save(const scenario_spec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize(spec);
  return static_cast<bool>(out);
}

std::optional<scenario_spec> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return parse(os.str());
}

}  // namespace dbsm::fault::fuzz
