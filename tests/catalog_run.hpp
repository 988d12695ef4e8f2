// The whole fault catalog, run on a suite's own base configuration: the
// sweep that tests/ordering_test.cpp (default batch), batching_test.cpp
// (batch_max 1 and 32) and read_path_test.cpp (fast reads) each assert
// on.
#ifndef DBSM_TESTS_CATALOG_RUN_HPP
#define DBSM_TESTS_CATALOG_RUN_HPP

#include <string>

#include "core/experiment.hpp"
#include "fault/scenarios.hpp"

namespace dbsm::test {

/// Runs every catalog scenario on a copy of `base` and hands each result
/// to `check(entry, result)`. Each run has 5 sites when the scenario needs
/// more than 3 (else 3), its faults from 2 s on (inside the run, not past
/// its end), recovery when the scenario needs it, and the scenario's
/// placement degree if it has one. It runs on sim time, long enough to
/// cover the scenario's whole timeline (rolling_restarts cycles every site
/// at 20 s apart).
template <class F>
void for_each_catalog_run(const core::experiment_config& base, F&& check) {
  for (const fault::scenarios::catalog_entry& e :
       fault::scenarios::catalog()) {
    core::experiment_config cfg = base;
    cfg.sites = e.min_sites > 3 ? 5 : 3;
    fault::scenarios::params prm;
    prm.sites = cfg.sites;
    prm.onset = seconds(2);
    cfg.faults = e.make(prm);
    cfg.enable_recovery = cfg.faults.needs_recovery();
    if (e.placement_degree != 0)
      cfg.placement = {place::strategy::round_robin, e.placement_degree};
    cfg.target_responses = 0;
    cfg.max_sim_time = std::string(e.name) == "rolling_restarts" ? seconds(55)
                       : cfg.enable_recovery                     ? seconds(25)
                                                                 : seconds(15);
    check(e, core::run_experiment(cfg));
  }
}

}  // namespace dbsm::test

#endif  // DBSM_TESTS_CATALOG_RUN_HPP
