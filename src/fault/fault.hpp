// Composable fault-scenario API (§5.3). "Faults are injected by
// intercepting calls in and out of the runtime as well as by manipulating
// model state."
//
// A `fault` is an object that arms itself against the system's injection
// points (the network medium, the per-site env bridges, the cluster crash
// hook) and — for transient faults — disarms again, restoring nominal
// behavior. A `scenario` places faults on the simulator timeline: each
// fault carries a target-site selection and an optional [start, stop)
// window, so faults can begin mid-run, end, overlap, and compose.
//
// Composition rule: faults of *different* kinds overlap freely (they act
// on distinct injection knobs). Each knob, however, is single-slot — one
// rx-loss model, one drift rate, one jitter bound per site, one state per
// link — so two faults of the same kind whose windows overlap on a shared
// target are last-writer-wins, and the earlier window's disarm resets the
// knob to nominal. Give same-kind faults disjoint windows or disjoint
// targets.
//
// Concrete fault types live in fault_types.hpp and the named scenario
// library (the paper's five campaigns included) in scenarios.hpp.
#ifndef DBSM_FAULT_FAULT_HPP
#define DBSM_FAULT_FAULT_HPP

#include <functional>
#include <memory>
#include <string>
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
  /// membership recovery; recover_fault checks.
  std::function<void(unsigned site)> recover;

  unsigned sites() const { return static_cast<unsigned>(envs.size()); }
};

/// One injectable fault. arm() activates it; disarm() ends a fault window
/// and restores nominal behavior (one-shot faults like crashes ignore it).
class fault {
 public:
  virtual ~fault() = default;
  virtual std::string name() const = 0;
  virtual void arm(injection_points& pts) = 0;
  virtual void disarm(injection_points& pts);
};

using fault_ptr = std::shared_ptr<fault>;

/// A fault placed on the scenario timeline: active over [start, stop).
struct timed_fault {
  fault_ptr f;
  sim_time start = 0;
  sim_time stop = time_never;
};

/// A named, composable fault schedule. Faults whose window has already
/// opened when the scenario is installed are armed immediately; the rest
/// arm and disarm off the simulator timeline.
class scenario {
 public:
  scenario() = default;
  explicit scenario(std::string name) : name_(std::move(name)) {}

  /// Adds a fault active for the whole run (or from `start` / over
  /// [start, stop)). Returns *this for chaining.
  scenario& add(fault_ptr f, sim_time start = 0, sim_time stop = time_never);

  const std::string& name() const { return name_; }
  scenario& set_name(std::string name) {
    name_ = std::move(name);
    return *this;
  }
  bool empty() const { return events_.empty(); }
  const std::vector<timed_fault>& events() const { return events_; }

  /// Installs every fault against the injection points: arms open windows
  /// synchronously, schedules future arm/disarm events. The bundle is kept
  /// alive by the scheduled events.
  void install(sim::simulator& sim, injection_points pts) const;

 private:
  std::string name_;
  std::vector<timed_fault> events_;
};

}  // namespace dbsm::fault

#endif  // DBSM_FAULT_FAULT_HPP
