// Composable fault-scenario API (§5.3). "Faults are injected by
// intercepting calls in and out of the runtime as well as by manipulating
// model state."
//
// A fault is one plain-data `event`: a `kind`, its targets and parameters,
// and a [start, stop) window. `arm()` applies an event to the system's
// injection points (the network medium, the per-site env bridges, the
// cluster crash and recover hooks); `disarm()` ends a transient fault's
// window and restores nominal behavior. A `scenario` places events on the
// simulator timeline, so faults can begin mid-run, end, overlap, and
// compose. The named catalog (scenarios.hpp), the fuzzer, its shrinker and
// its replay files (fuzz.hpp) all share this one type.
//
// Composition rule: faults of *different* kinds overlap freely (they act
// on distinct injection knobs). Each knob, however, is single-slot — one
// rx-loss model, one drift rate, one jitter bound per site, one state per
// link — so two faults of the same kind whose windows overlap on a shared
// target are last-writer-wins, and the earlier window's disarm resets the
// knob to nominal. Give same-kind faults disjoint windows or disjoint
// targets.
//
// Constructors for each kind live in fault_types.hpp and the named
// scenario library (the paper's five campaigns included) in scenarios.hpp.
#ifndef DBSM_FAULT_FAULT_HPP
#define DBSM_FAULT_FAULT_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace dbsm::csrt {
class sim_env;
}
namespace dbsm::net {
class medium;
}

namespace dbsm::fault {

/// An explicit set of site indexes a fault acts on.
using site_set = std::vector<unsigned>;

/// Target-site selection, resolved against the system size at arm time.
/// Defaults to every site; `odd()` / `even()` express the relative-drift
/// targeting of the paper (§5.3: clocks drift against each other).
class site_selector {
 public:
  site_selector() = default;
  site_selector(site_set sites)  // NOLINT: implicit from an explicit set
      : kind_(kind::explicit_set), sites_(std::move(sites)) {}
  site_selector(std::initializer_list<unsigned> sites)
      : kind_(kind::explicit_set), sites_(sites) {}

  static site_selector all() { return site_selector(); }
  static site_selector odd() { return site_selector(kind::odd); }
  static site_selector even() { return site_selector(kind::even); }

  /// The concrete site list for a system of `sites` sites.
  site_set resolve(unsigned sites) const;
  /// The explicit set (empty for all / odd / even).
  const site_set& sites() const { return sites_; }

  bool operator==(const site_selector&) const = default;

 private:
  enum class kind { all, odd, even, explicit_set };
  explicit site_selector(kind k) : kind_(k) {}

  kind kind_ = kind::all;
  site_set sites_;
};

/// The injection surfaces of one running system, bundled so a fault can be
/// written once and armed against any experiment.
struct injection_points {
  net::medium* net = nullptr;
  /// Per-site env bridges, indexed by site.
  std::vector<csrt::sim_env*> envs;
  /// Crashes a site (network isolation + replica halt + client stop).
  std::function<void(unsigned site)> crash;
  /// Brings a crashed or partition-excluded site back (restart + state
  /// transfer + view merge). Wired only when the experiment enables
  /// membership recovery; arming a recover checks.
  std::function<void(unsigned site)> recover;

  unsigned sites() const { return static_cast<unsigned>(envs.size()); }
};

/// What a fault does, and the event fields it reads. The order fixes each
/// kind's index and text name (fuzzer replay files name kinds), so new
/// kinds go last. The link kinds act on every link between side A
/// (`targets`) and `side_b` (empty = every site not in A).
enum class kind : std::uint8_t {
  loss_random,        // param = drop probability at each target receiver
  loss_bursty,        // param = avg loss rate, param2 = mean burst length
  clock_drift,        // param = drift rate of each target's clock
  sched_latency,      // dur = max random delay added to each target timer
  link_delay,         // dur = extra delay on each A↔B link
  partition,          // every A↔B link cut, healed at stop
  partition_oneway,   // only the A→B direction cut
  crash,              // one-shot at start: crash-stop each target
  recover,            // one-shot at start: restart + rejoin each target
  link_delay_oneway,  // dur = extra delay on the A→B direction only
};

const char* kind_name(kind k);
/// The kind whose kind_name() is `name`, if any.
std::optional<kind> kind_named(std::string_view name);

/// One fault on the timeline. A windowed kind is active over [start,
/// stop); a one-shot kind (crash, recover) fires at start.
struct event {
  kind what = kind::loss_random;
  site_selector targets;  // side A for the link kinds
  site_set side_b{};      // empty = "every other site"
  sim_time start = 0;
  sim_time stop = 0;
  double param = 0;
  double param2 = 0;
  sim_duration dur = 0;

  bool one_shot() const {
    return what == kind::crash || what == kind::recover;
  }
  bool operator==(const event&) const = default;
};

/// Applies `e` to the injection points. A loss window builds a fresh model
/// per target receiver, so repeated windows (and repeated runs sharing one
/// scenario) start from identical model state.
void arm(const event& e, injection_points& pts);
/// Ends `e`'s window: every knob it set returns to nominal. One-shots have
/// nothing to undo.
void disarm(const event& e, injection_points& pts);

/// A named, composable fault schedule.
class scenario {
 public:
  scenario() = default;
  explicit scenario(std::string name) : name_(std::move(name)) {}
  /// The events at their own [start, stop) windows.
  scenario(std::string name, std::vector<event> events);

  /// Adds a fault active for the whole run (or from `start` / over
  /// [start, stop)). Returns *this for chaining.
  scenario& add(event e, sim_time start = 0, sim_time stop = time_never);

  const std::string& name() const { return name_; }
  scenario& set_name(std::string name) {
    name_ = std::move(name);
    return *this;
  }
  bool empty() const { return events_.empty(); }
  const std::vector<event>& events() const { return events_; }
  /// True when an event recovers a site: the experiment must run with
  /// membership recovery enabled.
  bool needs_recovery() const;

  /// Installs every event against the injection points. An event whose
  /// window has already opened arms at once; the rest arm and disarm off
  /// the simulator timeline. A windowed event with stop == start covers no
  /// instant and never arms; a one-shot arms at start and schedules no
  /// disarm. The scheduled events keep the bundle alive.
  void install(sim::simulator& sim, injection_points pts) const;

 private:
  std::string name_;
  std::vector<event> events_;
};

}  // namespace dbsm::fault

#endif  // DBSM_FAULT_FAULT_HPP
