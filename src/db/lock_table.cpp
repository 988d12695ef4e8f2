#include "db/lock_table.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::db {

bool lock_table::all_free(std::span<const item_id> items) const {
  for (item_id it : items)
    if (holders_.count(it)) return false;
  return true;
}

void lock_table::grant(std::uint64_t txn, txn_rec& rec) {
  DBSM_CHECK(!rec.holding);
  for (item_id it : rec.items) {
    auto [pos, inserted] = holders_.emplace(it, txn);
    DBSM_CHECK_MSG(inserted, "item already held while granting");
    (void)pos;
  }
  rec.holding = true;
  if (rec.granted) rec.granted();
}

void lock_table::remove_waiter_entries(std::uint64_t txn,
                                       const txn_rec& rec) {
  for (item_id it : rec.items) {
    auto wit = waiters_.find(it);
    if (wit == waiters_.end()) continue;
    auto& vec = wit->second;
    vec.erase(std::remove(vec.begin(), vec.end(), txn), vec.end());
    if (vec.empty()) waiters_.erase(wit);
  }
}

void lock_table::abort_txn(std::uint64_t txn, lock_abort_cause cause) {
  auto it = txns_.find(txn);
  DBSM_CHECK(it != txns_.end());
  txn_rec rec = std::move(it->second);
  txns_.erase(it);
  if (rec.holding) {
    for (item_id item : rec.items) {
      DBSM_CHECK(holders_.at(item) == txn);
      holders_.erase(item);
    }
  } else {
    remove_waiter_entries(txn, rec);
  }
  if (rec.aborted) rec.aborted(cause);
  // A preempted holder's other locks may now unblock waiters.
  if (rec.holding) wake_waiters(rec.items);
}

void lock_table::acquire(std::uint64_t txn, std::span<const item_id> items,
                         bool certified, granted_fn granted,
                         aborted_fn aborted) {
  DBSM_CHECK_MSG(!txns_.count(txn), "txn " << txn << " already in lock table");
  txn_rec rec;
  rec.items.assign(items.begin(), items.end());
  rec.certified = certified;
  rec.arrival = next_arrival_++;
  rec.granted = std::move(granted);
  rec.aborted = std::move(aborted);

  auto [pos, inserted] = txns_.emplace(txn, std::move(rec));
  DBSM_CHECK(inserted);
  if (all_free(items)) {
    // Nothing to preempt and nobody to hand a lock off: grant at once.
    grant(txn, pos->second);
    return;
  }
  // Register as a waiter first so that lock hand-offs triggered below (by
  // preemption) consider this transaction — certified requests must win
  // over older uncertified waiters.
  for (item_id it : pos->second.items) waiters_[it].push_back(txn);

  if (certified) {
    // Preempt local uncertified holders right away (§3.1): they would
    // abort at certification anyway.
    std::vector<std::uint64_t> victims;
    for (item_id it : pos->second.items) {
      auto hit = holders_.find(it);
      if (hit == holders_.end()) continue;
      const std::uint64_t holder = hit->second;
      if (!txns_.at(holder).certified &&
          std::find(victims.begin(), victims.end(), holder) == victims.end())
        victims.push_back(holder);
    }
    for (std::uint64_t v : victims) abort_txn(v, lock_abort_cause::preempted);
  }

  // abort_txn's hand-off may already have granted us.
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.holding) return;
  if (all_free(it->second.items)) {
    remove_waiter_entries(txn, it->second);
    grant(txn, it->second);
  }
}

void lock_table::mark_certified(std::uint64_t txn) {
  auto it = txns_.find(txn);
  DBSM_CHECK(it != txns_.end());
  it->second.certified = true;
}

void lock_table::wake_waiters(const std::vector<item_id>& items) {
  // Collect candidate waiters in global arrival order and retry their
  // atomic acquisition. Granting one may block later candidates.
  std::vector<std::uint64_t> candidates;
  for (item_id it : items) {
    auto wit = waiters_.find(it);
    if (wit == waiters_.end()) continue;
    for (std::uint64_t w : wit->second)
      if (std::find(candidates.begin(), candidates.end(), w) ==
          candidates.end())
        candidates.push_back(w);
  }
  // Certified transactions must make progress ahead of local waiters;
  // within a class, first-come-first-served.
  std::sort(candidates.begin(), candidates.end(),
            [this](std::uint64_t a, std::uint64_t b) {
              const txn_rec& ra = txns_.at(a);
              const txn_rec& rb = txns_.at(b);
              if (ra.certified != rb.certified) return ra.certified;
              return ra.arrival < rb.arrival;
            });
  for (std::uint64_t cand : candidates) {
    auto it = txns_.find(cand);
    if (it == txns_.end() || it->second.holding) continue;
    if (all_free(it->second.items)) {
      remove_waiter_entries(cand, it->second);
      grant(cand, it->second);
    }
  }
}

void lock_table::release_commit(std::uint64_t txn) {
  auto it = txns_.find(txn);
  DBSM_CHECK_MSG(it != txns_.end() && it->second.holding,
                 "release_commit of non-holder " << txn);
  txn_rec rec = std::move(it->second);
  txns_.erase(it);
  for (item_id item : rec.items) {
    DBSM_CHECK(holders_.at(item) == txn);
    holders_.erase(item);
  }
  // First-committer-wins: waiters on the released locks have write-write
  // conflicts with the committed values and abort — unless certified,
  // in which case they must commit and simply retry acquisition.
  std::vector<std::uint64_t> to_abort;
  for (item_id item : rec.items) {
    auto wit = waiters_.find(item);
    if (wit == waiters_.end()) continue;
    for (std::uint64_t w : wit->second) {
      if (!txns_.at(w).certified &&
          std::find(to_abort.begin(), to_abort.end(), w) == to_abort.end())
        to_abort.push_back(w);
    }
  }
  for (std::uint64_t w : to_abort)
    abort_txn(w, lock_abort_cause::holder_committed);
  wake_waiters(rec.items);
}

void lock_table::release_abort(std::uint64_t txn) {
  auto it = txns_.find(txn);
  DBSM_CHECK_MSG(it != txns_.end(), "release_abort of unknown txn " << txn);
  txn_rec rec = std::move(it->second);
  txns_.erase(it);
  if (rec.holding) {
    for (item_id item : rec.items) {
      DBSM_CHECK(holders_.at(item) == txn);
      holders_.erase(item);
    }
    wake_waiters(rec.items);
  } else {
    remove_waiter_entries(txn, rec);
  }
}

bool lock_table::holds(std::uint64_t txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.holding;
}

bool lock_table::waiting(std::uint64_t txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() && !it->second.holding;
}

void lock_table::check_invariants() const {
  for (const auto& [item, holder] : holders_) {
    auto it = txns_.find(holder);
    DBSM_CHECK_MSG(it != txns_.end(), "holder of " << item << " unknown");
    DBSM_CHECK(it->second.holding);
    DBSM_CHECK(std::find(it->second.items.begin(), it->second.items.end(),
                         item) != it->second.items.end());
  }
  for (const auto& [item, queue] : waiters_) {
    DBSM_CHECK(!queue.empty());
    for (std::uint64_t w : queue) {
      auto it = txns_.find(w);
      DBSM_CHECK_MSG(it != txns_.end(), "waiter on " << item << " unknown");
      DBSM_CHECK(!it->second.holding);
    }
  }
  for (const auto& [id, rec] : txns_) {
    if (rec.holding) {
      for (item_id item : rec.items) DBSM_CHECK(holders_.at(item) == id);
    } else {
      for (item_id item : rec.items) {
        const auto& queue = waiters_.at(item);
        DBSM_CHECK(std::find(queue.begin(), queue.end(), id) != queue.end());
      }
    }
  }
}

}  // namespace dbsm::db
