// Concurrency control (§3.1), modeling PostgreSQL's multi-version policy:
//
//   * fetched items are ignored; updated items are exclusively locked;
//   * all locks of a transaction are acquired atomically (all-or-nothing,
//     which avoids deadlocks: the access set is known beforehand) and
//     released atomically at commit/abort;
//   * when a holder COMMITS, every transaction waiting on any of its locks
//     aborts (first-committer-wins write-write conflict);
//   * when a holder ABORTS, its locks pass to eligible waiters;
//   * certified transactions (remotely initiated, or local ones already
//     past certification) must commit: acquiring for them preempts and
//     aborts local uncertified holders right away, and they are never
//     themselves aborted by a committing holder.
#ifndef DBSM_DB_LOCK_TABLE_HPP
#define DBSM_DB_LOCK_TABLE_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/item.hpp"
#include "util/types.hpp"

namespace dbsm::db {

/// Why a queued/holding transaction was aborted by the lock table.
enum class lock_abort_cause : std::uint8_t {
  holder_committed,  // waiter lost to a first committer
  preempted,         // holder displaced by a certified transaction
};

class lock_table {
 public:
  using granted_fn = std::function<void()>;
  using aborted_fn = std::function<void(lock_abort_cause)>;

  /// Atomically requests exclusive locks on `items` for `txn`.
  /// If all are free (possibly after preempting local holders when
  /// `certified`), locks are taken and `granted` is called before
  /// returning. Otherwise the transaction waits; `granted` or `aborted`
  /// fires later. `items` must be free of duplicates.
  void acquire(std::uint64_t txn, std::span<const item_id> items,
               bool certified, granted_fn granted, aborted_fn aborted);

  /// Marks a holding transaction as certified (it passed certification and
  /// can no longer be preempted).
  void mark_certified(std::uint64_t txn);

  /// Releases on commit: waiters on the same locks abort (write-write),
  /// except certified waiters, which then retry acquisition.
  void release_commit(std::uint64_t txn);

  /// Releases on abort: locks pass to the next eligible waiters.
  void release_abort(std::uint64_t txn);

  /// True if the transaction currently holds its locks.
  bool holds(std::uint64_t txn) const;
  /// True if the transaction is queued waiting.
  bool waiting(std::uint64_t txn) const;

  std::size_t held_items() const { return holders_.size(); }

  /// Invariant audit for tests: every holder/waiter structure consistent.
  void check_invariants() const;

 private:
  struct txn_rec {
    std::vector<item_id> items;
    bool certified = false;
    bool holding = false;
    std::uint64_t arrival = 0;
    granted_fn granted;
    aborted_fn aborted;
  };

  bool all_free(std::span<const item_id> items) const;
  void grant(std::uint64_t txn, txn_rec& rec);
  void remove_waiter_entries(std::uint64_t txn, const txn_rec& rec);
  void abort_txn(std::uint64_t txn, lock_abort_cause cause);
  /// Re-evaluates waiters of the given items in arrival order.
  void wake_waiters(const std::vector<item_id>& items);

  std::unordered_map<item_id, std::uint64_t> holders_;
  std::unordered_map<item_id, std::vector<std::uint64_t>> waiters_;
  std::unordered_map<std::uint64_t, txn_rec> txns_;
  std::uint64_t next_arrival_ = 1;
};

}  // namespace dbsm::db

#endif  // DBSM_DB_LOCK_TABLE_HPP
