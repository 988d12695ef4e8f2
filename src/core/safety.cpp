#include "core/safety.hpp"

#include <algorithm>
#include <sstream>

namespace dbsm::core {

safety_report check_commit_logs(const std::vector<site_log_input>& sites,
                                std::uint64_t rejoin_max_lag) {
  safety_report report;
  if (sites.empty()) return report;

  // Position-wise agreement among live sites: their logs define the
  // consensus order (sites may lag by in-flight transactions, never
  // disagree), so once they agree the longest live log is that order.
  std::span<const std::uint64_t> order;
  std::size_t longest = 0;
  for (const auto& s : sites) {
    longest = std::max(longest, s.log.size());
    if (s.state != site_log_input::kind::crashed &&
        s.log.size() > order.size())
      order = s.log;
  }
  for (std::size_t pos = 0; pos < longest; ++pos) {
    std::uint64_t expect = 0;
    bool have = false;
    for (std::size_t site = 0; site < sites.size(); ++site) {
      if (sites[site].state == site_log_input::kind::crashed) continue;
      const auto& log = sites[site].log;
      if (pos >= log.size()) continue;
      if (!have) {
        expect = log[pos];
        have = true;
        continue;
      }
      if (log[pos] != expect) {
        report.ok = false;
        report.first_mismatch_site = static_cast<int>(site);
        std::ostringstream os;
        os << "divergence at position " << pos << ": site logs disagree ("
           << expect << " vs " << log[pos] << " at site " << site << ")";
        report.detail = os.str();
        report.common_prefix = pos;
        return report;
      }
    }
  }

  // A crashed site must match the consensus order up to its first
  // divergence; the rest of its log is an orphan suffix — non-uniform
  // deliveries the surviving majority's view change discarded (tolerated,
  // counted). Positions beyond everything any live site committed are
  // unverifiable and treated as agreement (the site may legitimately have
  // run ahead of the survivors when it stopped).
  for (const auto& s : sites) {
    if (s.state != site_log_input::kind::crashed) continue;
    const std::size_t cmp = std::min(s.log.size(), order.size());
    std::size_t agree = 0;
    while (agree < cmp && s.log[agree] == order[agree]) ++agree;
    if (agree < cmp) report.orphaned += s.log.size() - agree;
  }

  // The agreement metric only counts sites that are required to have kept
  // up (a crashed site's short log is expected, not a disagreement).
  bool any_live = false;
  for (const auto& s : sites) {
    if (s.state == site_log_input::kind::crashed) continue;
    report.common_prefix = any_live
                               ? std::min(report.common_prefix, s.log.size())
                               : s.log.size();
    any_live = true;
  }
  if (!any_live) report.common_prefix = 0;

  for (std::size_t site = 0; site < sites.size(); ++site) {
    const auto& s = sites[site];
    if (s.reported_committed != s.log.size()) {
      report.ok = false;
      report.first_mismatch_site = static_cast<int>(site);
      std::ostringstream os;
      os << "site " << site << " reports " << s.reported_committed
         << " committed but its log holds " << s.log.size();
      report.detail = os.str();
      return report;
    }
    if (s.state == site_log_input::kind::rejoined &&
        longest - s.log.size() > rejoin_max_lag) {
      report.ok = false;
      report.first_mismatch_site = static_cast<int>(site);
      std::ostringstream os;
      os << "rejoined site " << site << " lags the longest log by "
         << (longest - s.log.size()) << " commits (bound " << rejoin_max_lag
         << ": it must have converged)";
      report.detail = os.str();
      return report;
    }
  }
  return report;
}

}  // namespace dbsm::core
