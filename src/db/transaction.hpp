// Transaction representation shared by the workload generator, the
// database server model, and the certification prototype.
#ifndef DBSM_DB_TRANSACTION_HPP
#define DBSM_DB_TRANSACTION_HPP

#include <cstdint>
#include <vector>

#include "db/item.hpp"
#include "util/types.hpp"

namespace dbsm::db {

/// One step of a transaction's execution script (§3.1): fetch a data item,
/// do some processing, or write back a data item.
struct operation {
  enum class kind : std::uint8_t { fetch, process, write };
  kind k = kind::process;
  item_id item = 0;          // fetch / write
  std::uint32_t bytes = 0;   // tuple size for fetch / write
  sim_duration cpu = 0;      // processing time for process ops
};

/// Workload-defined transaction class (e.g. tpcc::payment_long).
using txn_class = std::uint16_t;

/// Transaction ids carry the origin site above a 40-bit local counter, so
/// they are globally unique without coordination. The replica assigns
/// them; the codec derives a payload's origin from its id.
constexpr std::uint64_t make_txn_id(node_id site, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(site) << 40) | counter;
}
constexpr std::uint64_t txn_counter(std::uint64_t id) {
  return id & ((std::uint64_t{1} << 40) - 1);
}
constexpr node_id txn_site(std::uint64_t id) {
  return static_cast<node_id>(id >> 40);
}

/// A transaction request as issued by a client.
struct txn_request {
  std::uint64_t id = 0;      // globally unique (make_txn_id)
  txn_class cls = 0;
  node_id origin = 0;        // site that executed it
  std::vector<operation> ops;

  /// Sorted, deduplicated certification sets. Read sets may contain granule
  /// ids (escalated scans); write sets contain written tuples plus the
  /// granules those tuples fall into.
  std::vector<item_id> read_set;
  std::vector<item_id> write_set;

  /// Bytes of written tuple values (sizes message padding and disk load).
  std::uint32_t update_bytes = 0;

  /// Storage sectors the commit writes (workload-computed: scattered
  /// tuples one sector each, sequential inserts packed). 0 means "one
  /// sector per written tuple".
  std::uint16_t disk_sectors = 0;

  bool read_only() const { return write_set.empty(); }

  /// Tuples to lock / write to disk: write_set minus granule markers.
  /// Fills `out` (cleared first); callers on the per-transaction hot path
  /// pass a reused scratch vector so no allocation occurs at steady state.
  void lock_items_into(std::vector<item_id>& out) const {
    out.clear();
    out.reserve(write_set.size());
    for (item_id it : write_set)
      if (!is_granule(it)) out.push_back(it);
  }
};

/// Terminal outcome of a transaction, with the abort cause.
enum class txn_outcome : std::uint8_t {
  committed,
  aborted_lock,     // waiter aborted by a committing lock holder
  aborted_preempt,  // holder preempted by a certified (remote) transaction
  aborted_cert,     // certification found a conflicting concurrent commit
};

}  // namespace dbsm::db

#endif  // DBSM_DB_TRANSACTION_HPP
