#include "fault/fault.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "csrt/sim_env.hpp"
#include "net/loss_model.hpp"
#include "net/medium.hpp"
#include "util/check.hpp"

namespace dbsm::fault {

namespace {

constexpr const char* kKindNames[] = {
    "loss_random",      "loss_bursty", "clock_drift",
    "sched_latency",    "link_delay",  "partition",
    "partition_oneway", "crash",       "recover",
    "link_delay_oneway",
};

/// Resolves the (A, B) sides of a link fault: an empty B means "every
/// site not in A"; sides must be in range and disjoint.
std::pair<site_set, site_set> resolve_sides(site_set a, site_set b,
                                            unsigned sites) {
  DBSM_CHECK_MSG(!a.empty(), "group fault needs a non-empty side");
  if (b.empty()) {
    for (unsigned i = 0; i < sites; ++i)
      if (std::find(a.begin(), a.end(), i) == a.end()) b.push_back(i);
  }
  for (unsigned x : a) {
    DBSM_CHECK(x < sites);
    DBSM_CHECK_MSG(std::find(b.begin(), b.end(), x) == b.end(),
                   "group fault sides overlap at site " << x);
  }
  for (unsigned y : b) DBSM_CHECK(y < sites);
  return {std::move(a), std::move(b)};
}

/// Arms (`on`) or disarms one event: the one place a fault kind touches
/// an injection point.
void apply(const event& e, injection_points& pts, bool on) {
  const unsigned n = pts.sites();
  switch (e.what) {
    case kind::loss_random:
    case kind::loss_bursty:
      DBSM_CHECK(pts.net != nullptr);
      // Loss is injected independently at each participant (§5.3): one
      // fresh model per target receiver.
      for (unsigned site : e.targets.resolve(n)) {
        std::shared_ptr<net::loss_model> model;
        if (on) {
          model = e.what == kind::loss_random
                      ? net::random_loss(e.param)
                      : net::bursty_loss(e.param, e.param2);
        }
        pts.net->set_rx_loss(site, std::move(model));
      }
      return;
    case kind::clock_drift:
      for (unsigned site : e.targets.resolve(n))
        pts.envs.at(site)->set_clock_drift(on ? e.param : 0.0);
      return;
    case kind::sched_latency:
      for (unsigned site : e.targets.resolve(n))
        pts.envs.at(site)->set_timer_jitter(on ? e.dur : 0);
      return;
    case kind::crash:
      if (!on) return;
      DBSM_CHECK_MSG(pts.crash, "no crash hook in the injection points");
      for (unsigned site : e.targets.resolve(n)) pts.crash(site);
      return;
    case kind::recover:
      if (!on) return;
      DBSM_CHECK_MSG(pts.recover,
                     "no recover hook in the injection points (enable "
                     "membership recovery in the experiment config)");
      for (unsigned site : e.targets.resolve(n)) pts.recover(site);
      return;
    case kind::link_delay:
    case kind::link_delay_oneway:
    case kind::partition:
    case kind::partition_oneway: {
      DBSM_CHECK(pts.net != nullptr);
      const auto [a, b] = resolve_sides(e.targets.resolve(n), e.side_b, n);
      const sim_duration extra = on ? e.dur : 0;
      for (unsigned x : a) {
        for (unsigned y : b) {
          if (e.what == kind::link_delay) {
            pts.net->set_link_extra_delay(x, y, extra);
          } else if (e.what == kind::link_delay_oneway) {
            pts.net->set_link_extra_delay_oneway(x, y, extra);
          } else if (e.what == kind::partition) {
            pts.net->set_link_cut(x, y, on);
          } else {
            pts.net->set_link_cut_oneway(x, y, on);
          }
        }
      }
      return;
    }
  }
}

}  // namespace

site_set site_selector::resolve(unsigned sites) const {
  site_set out;
  switch (kind_) {
    case kind::all:
      for (unsigned i = 0; i < sites; ++i) out.push_back(i);
      break;
    case kind::odd:
      for (unsigned i = 1; i < sites; i += 2) out.push_back(i);
      break;
    case kind::even:
      for (unsigned i = 0; i < sites; i += 2) out.push_back(i);
      break;
    case kind::explicit_set:
      for (unsigned i : sites_) {
        DBSM_CHECK_MSG(i < sites, "fault targets site " << i
                                      << " of a " << sites << "-site system");
        out.push_back(i);
      }
      break;
  }
  return out;
}

const char* kind_name(kind k) {
  return kKindNames[static_cast<std::size_t>(k)];
}

std::optional<kind> kind_named(std::string_view name) {
  for (std::size_t k = 0; k < std::size(kKindNames); ++k)
    if (name == kKindNames[k]) return static_cast<kind>(k);
  return std::nullopt;
}

void arm(const event& e, injection_points& pts) { apply(e, pts, true); }

void disarm(const event& e, injection_points& pts) { apply(e, pts, false); }

scenario::scenario(std::string name, std::vector<event> events)
    : name_(std::move(name)) {
  for (const event& e : events) add(e, e.start, e.stop);
}

scenario& scenario::add(event e, sim_time start, sim_time stop) {
  DBSM_CHECK(start >= 0);
  DBSM_CHECK_MSG(stop >= start, "fault window [start, stop) is inverted");
  e.start = start;
  e.stop = stop;
  events_.push_back(std::move(e));
  return *this;
}

bool scenario::needs_recovery() const {
  return std::any_of(events_.begin(), events_.end(), [](const event& e) {
    return e.what == kind::recover;
  });
}

void scenario::install(sim::simulator& sim, injection_points pts) const {
  if (events_.empty()) return;
  // Scheduled arm/disarm events share the bundle (and keep it alive).
  auto shared = std::make_shared<injection_points>(std::move(pts));
  for (const event& e : events_) {
    // A zero-width window [t, t) covers no instant, so it never arms
    // (shrunk fuzzer timelines produce these).
    if (!e.one_shot() && e.stop == e.start) continue;
    if (e.start <= sim.now()) {
      arm(e, *shared);
    } else {
      sim.schedule_at(e.start, [e, shared] { arm(e, *shared); });
    }
    if (!e.one_shot() && e.stop != time_never) {
      sim.schedule_at(e.stop, [e, shared] { disarm(e, *shared); });
    }
  }
}

}  // namespace dbsm::fault
