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
//
// Layout: one flat table slot per locked or awaited item holds both its
// holder and its FIFO waiter queue, so a lock costs one probe; a second
// flat table maps transaction ids to request records. Records and queues
// live in slot vectors whose freed slots are reused with their capacity,
// so once the table has seen its peak load, acquiring, waiting, handing
// off and releasing allocate nothing.
//
// Callbacks may call back into the table (acquire, mark_certified,
// release_*). The table holds no slot pointer or reference across a
// callback, moves each callback out of its record before calling it, and
// re-checks by id every transaction it still means to grant or abort
// afterwards, skipping the ones a callback already terminated.
#ifndef DBSM_DB_LOCK_TABLE_HPP
#define DBSM_DB_LOCK_TABLE_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "db/item.hpp"
#include "util/open_table.hpp"
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

  std::size_t held_items() const { return held_; }

  /// Invariant audit for tests: every holder/waiter structure consistent.
  void check_invariants() const;

 private:
  static constexpr std::uint32_t none = ~std::uint32_t{0};

  struct txn_rec {
    std::uint64_t txn = 0;
    std::uint64_t arrival = 0;
    std::vector<item_id> items;
    bool certified = false;
    bool holding = false;
    granted_fn granted;
    aborted_fn aborted;
  };

  /// An item's holder (record index) and waiter queue (queue index); the
  /// slot exists while either does.
  struct item_slot {
    item_id item;
    std::uint32_t holder;
    std::uint32_t queue;
  };
  struct item_policy {
    static std::uint64_t key(const item_slot& s) { return s.item; }
    static bool empty(const item_slot& s) {
      return s.holder == none && s.queue == none;
    }
    static item_slot empty_slot() { return {0, none, none}; }
  };

  struct txn_slot {
    std::uint64_t txn;
    std::uint32_t rec;
  };
  struct txn_policy {
    static std::uint64_t key(const txn_slot& s) { return s.txn; }
    static bool empty(const txn_slot& s) { return s.rec == none; }
    static txn_slot empty_slot() { return {0, none}; }
  };

  /// A transaction a release or preemption grants or aborts once the
  /// callbacks before it have run.
  struct pending {
    std::uint64_t txn;
    std::uint64_t arrival;
    bool certified;
  };

  /// The record index of a live transaction, or `none`.
  std::uint32_t rec_of(std::uint64_t txn) const;
  /// Puts record `r` on the free list. A record leaves the id table
  /// before its callbacks run and is freed after them, so a callback's
  /// acquire never reuses it while its item list is still needed.
  void free_rec(std::uint32_t r);

  bool all_free(std::span<const item_id> items) const;
  void enqueue(item_id item, std::uint32_t r);
  void leave_queues(std::uint32_t r);
  /// Releases record `r`'s locks; true if any of its items has waiters.
  bool drop_holds(std::uint32_t r);
  void grant(std::uint32_t r);
  void abort_txn(std::uint64_t txn, lock_abort_cause cause);
  /// Pushes `rec` onto pending_ unless it is already there at or above
  /// `base`.
  void note_pending(std::size_t base, const txn_rec& rec);
  /// Aborts the transactions pending_[base..) names that are still live.
  void abort_pending(std::size_t base, lock_abort_cause cause);
  /// Re-evaluates the waiters of record `released`'s items.
  void wake_waiters(std::uint32_t released);

  util::open_table<item_slot, item_policy> items_;
  util::open_table<txn_slot, txn_policy> txns_;
  std::vector<txn_rec> recs_;
  std::vector<std::uint32_t> free_recs_;
  std::vector<std::vector<std::uint32_t>> queues_;  // record indices, FIFO
  std::vector<std::uint32_t> free_queues_;
  /// The lists of transactions each running release or preemption will
  /// act on, stacked: a call re-entered from a callback pushes its list
  /// above its caller's and pops it before returning.
  std::vector<pending> pending_;
  std::size_t held_ = 0;
  std::uint64_t next_arrival_ = 1;
};

}  // namespace dbsm::db

#endif  // DBSM_DB_LOCK_TABLE_HPP
