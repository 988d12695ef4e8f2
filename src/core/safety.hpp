// Off-line safety check (§5.3): "we ensure that all operational sites must
// commit exactly the same sequence of transactions by comparing logs
// off-line after the simulation has finished."
#ifndef DBSM_CORE_SAFETY_HPP
#define DBSM_CORE_SAFETY_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dbsm::core {

struct safety_report {
  bool ok = true;
  /// Length of the longest common prefix across the logs of the
  /// operational and rejoined sites.
  std::size_t common_prefix = 0;
  std::string detail;  // first divergence, when !ok
  /// Index of the first site that failed a per-site check (divergence,
  /// count mismatch, or excessive rejoin lag); -1 when ok or unknown.
  int first_mismatch_site = -1;
  /// Commits held only by crashed/excluded sites past their agreement
  /// point with the live order: non-uniform deliveries the surviving
  /// majority's view change discarded. Not a violation off-line — the
  /// online check layer bounds them exactly.
  std::size_t orphaned = 0;
};

/// Per-site input for the check: the site's full commit log, read in
/// place (the caller keeps it alive through the check), its end-of-run
/// life-cycle state, and the committed count it reported
/// (experiment_result::sites) to cross-check against the log itself.
struct site_log_input {
  enum class kind : std::uint8_t {
    operational,  // ran the whole time: full prefix rules apply
    crashed,      // crash-stopped or mid-recovery: may lag arbitrarily
    rejoined,     // recovered: must have converged (bounded lag only)
  };
  std::span<const std::uint64_t> log;
  kind state = kind::operational;
  std::uint64_t reported_committed = 0;
};

/// The §5.3 check over every site, crashed included: live
/// (operational and rejoined) sites must agree position-wise — their logs
/// define the consensus order; each site's reported committed count must
/// equal its log length; a crashed-never-rejoined site may lag
/// arbitrarily, a rejoined site by at most `rejoin_max_lag` (the
/// in-flight window at the instant the run stopped). A crashed site's log
/// must match the consensus order up to its first divergence; anything
/// after that point is an orphan suffix — commits delivered non-uniformly
/// that the surviving majority's view change discarded — counted in
/// safety_report::orphaned rather than failed (off-line, the divergence
/// point cannot be validated against the view cut; the online monitors
/// do that exactly). The first offending site lands in
/// safety_report::first_mismatch_site.
safety_report check_commit_logs(const std::vector<site_log_input>& sites,
                                std::uint64_t rejoin_max_lag = 50);

}  // namespace dbsm::core

#endif  // DBSM_CORE_SAFETY_HPP
