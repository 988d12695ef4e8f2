// Reference merge-scan certifier (§3.3) — the original O(window × |sets|)
// implementation, retained verbatim in behavior as the oracle for
// differential testing of the indexed certifier
// (cert/sharded_certifier.hpp).
//
// At each delivery it walks every retained committed write set newer than
// the transaction's snapshot and runs a merge traversal per set:
//   * write-write at tuple granularity (first-committer-wins);
//   * escalated granule reads against any committed write advertising the
//     granule (point reads are snapshot-served and never conflict).
// Its decisions define the protocol; the indexed certifier must match them
// bit for bit (tests/cert_index_test.cpp). Its modeled cost keeps the
// historical scan cost model — cost grows with the concurrent window — so
// the two certifiers' real and modeled costs can be compared directly.
#ifndef DBSM_CERT_REFERENCE_CERTIFIER_HPP
#define DBSM_CERT_REFERENCE_CERTIFIER_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "cert/cert_config.hpp"
#include "cert/rwset.hpp"
#include "util/types.hpp"

namespace dbsm::cert {

class reference_certifier {
 public:
  explicit reference_certifier(cert_config cfg = {});

  /// Certifies an update transaction at the next delivery position.
  /// Returns true to commit (its write set then enters the history).
  bool certify_update(std::uint64_t begin_pos,
                      const std::vector<db::item_id>& read_set,
                      const std::vector<db::item_id>& write_set);

  /// Certifies a read-only transaction against the current position
  /// without consuming one (read-only transactions terminate locally).
  bool certify_read_only(std::uint64_t begin_pos,
                         const std::vector<db::item_id>& read_set) const;

  std::uint64_t position() const { return position_; }
  std::uint64_t oldest_retained() const { return oldest_retained_; }
  sim_duration last_cost() const { return last_cost_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::size_t history_size() const { return history_.size(); }

 private:
  struct entry {
    std::uint64_t pos;
    std::vector<db::item_id> write_set;
  };

  /// Conflict scan over history entries with pos in (begin_pos, +inf).
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_set,
                 const std::vector<db::item_id>* write_set,
                 sim_duration& cost) const;

  cert_config cfg_;
  std::deque<entry> history_;  // ascending positions, committed only
  std::uint64_t position_ = 0;
  std::uint64_t oldest_retained_ = 1;
  mutable sim_duration last_cost_ = 0;
  /// Per-call scratch for the escalated-read subset of the read set,
  /// reused across calls so the hot path does not heap-allocate.
  mutable std::vector<db::item_id> read_granules_scratch_;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_REFERENCE_CERTIFIER_HPP
