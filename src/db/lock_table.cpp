#include "db/lock_table.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::db {

std::uint32_t lock_table::rec_of(std::uint64_t txn) const {
  const txn_slot* s = txns_.find(txn);
  return s == nullptr ? none : s->rec;
}

void lock_table::free_rec(std::uint32_t r) {
  txn_rec& rec = recs_[r];
  rec.items.clear();
  rec.granted = nullptr;
  rec.aborted = nullptr;
  free_recs_.push_back(r);
}

bool lock_table::all_free(std::span<const item_id> items) const {
  for (item_id it : items) {
    const item_slot* s = items_.find(it);
    if (s != nullptr && s->holder != none) return false;
  }
  return true;
}

void lock_table::enqueue(item_id item, std::uint32_t r) {
  // The queue the item takes if it has none yet: the last one freed, or
  // a new one.
  const std::uint32_t spare = free_queues_.empty()
                                  ? static_cast<std::uint32_t>(queues_.size())
                                  : free_queues_.back();
  item_slot* s = items_.try_insert({item, none, spare}).first;
  if (s->queue == none) s->queue = spare;
  const std::uint32_t q = s->queue;
  if (q == spare) {
    if (free_queues_.empty()) {
      queues_.emplace_back();
    } else {
      free_queues_.pop_back();
    }
  }
  queues_[q].push_back(r);
}

void lock_table::leave_queues(std::uint32_t r) {
  for (item_id it : recs_[r].items) {
    item_slot* s = items_.find(it);
    DBSM_CHECK(s != nullptr && s->queue != none);
    std::vector<std::uint32_t>& q = queues_[s->queue];
    q.erase(std::remove(q.begin(), q.end(), r), q.end());
    if (!q.empty()) continue;
    free_queues_.push_back(s->queue);
    if (s->holder == none) {
      items_.erase(s);
    } else {
      s->queue = none;
    }
  }
}

bool lock_table::drop_holds(std::uint32_t r) {
  bool waited_on = false;
  for (item_id it : recs_[r].items) {
    item_slot* s = items_.find(it);
    DBSM_CHECK(s != nullptr && s->holder == r);
    if (s->queue == none) {
      items_.erase(s);
    } else {
      s->holder = none;
      waited_on = true;
    }
  }
  held_ -= recs_[r].items.size();
  return waited_on;
}

void lock_table::grant(std::uint32_t r) {
  txn_rec& rec = recs_[r];
  DBSM_CHECK(!rec.holding);
  for (item_id it : rec.items) {
    auto [s, fresh] = items_.try_insert({it, r, none});
    if (fresh) continue;
    DBSM_CHECK_MSG(s->holder == none, "item already held while granting");
    s->holder = r;
  }
  held_ += rec.items.size();
  rec.holding = true;
  const granted_fn granted = std::move(rec.granted);
  if (granted) granted();
}

void lock_table::abort_txn(std::uint64_t txn, lock_abort_cause cause) {
  const txn_slot* s = txns_.find(txn);
  DBSM_CHECK(s != nullptr);
  const std::uint32_t r = s->rec;
  txns_.erase(s);
  const bool holding = recs_[r].holding;
  if (holding) {
    drop_holds(r);
  } else {
    leave_queues(r);
  }
  const aborted_fn aborted = std::move(recs_[r].aborted);
  if (aborted) aborted(cause);
  // A preempted holder's other locks may now unblock waiters, including
  // ones the callback queued on them.
  if (holding) wake_waiters(r);
  free_rec(r);
}

void lock_table::note_pending(std::size_t base, const txn_rec& rec) {
  for (std::size_t k = base; k < pending_.size(); ++k)
    if (pending_[k].txn == rec.txn) return;
  pending_.push_back({rec.txn, rec.arrival, rec.certified});
}

void lock_table::abort_pending(std::size_t base, lock_abort_cause cause) {
  // By index: calls re-entered from the callbacks push above `end`.
  for (std::size_t k = base, end = pending_.size(); k < end; ++k) {
    const std::uint64_t txn = pending_[k].txn;
    if (rec_of(txn) != none) abort_txn(txn, cause);
  }
  pending_.resize(base);
}

void lock_table::acquire(std::uint64_t txn, std::span<const item_id> items,
                         bool certified, granted_fn granted,
                         aborted_fn aborted) {
  const std::uint32_t r = free_recs_.empty()
                              ? static_cast<std::uint32_t>(recs_.size())
                              : free_recs_.back();
  DBSM_CHECK_MSG(txns_.try_insert({txn, r}).second,
                 "txn " << txn << " already in lock table");
  if (free_recs_.empty()) {
    recs_.emplace_back();
  } else {
    free_recs_.pop_back();
  }
  txn_rec& rec = recs_[r];
  rec.txn = txn;
  rec.arrival = next_arrival_++;
  rec.items.assign(items.begin(), items.end());
  rec.certified = certified;
  rec.holding = false;
  rec.granted = std::move(granted);
  rec.aborted = std::move(aborted);
  if (all_free(rec.items)) {
    // Nothing to preempt and nobody to hand a lock off: grant at once.
    grant(r);
    return;
  }
  // Register as a waiter first so that lock hand-offs triggered below (by
  // preemption) consider this transaction — certified requests must win
  // over older uncertified waiters.
  for (item_id it : rec.items) enqueue(it, r);

  if (certified) {
    // Preempt local uncertified holders right away (§3.1): they would
    // abort at certification anyway.
    const std::size_t base = pending_.size();
    for (item_id it : rec.items) {
      const item_slot* s = items_.find(it);
      if (s != nullptr && s->holder != none && !recs_[s->holder].certified)
        note_pending(base, recs_[s->holder]);
    }
    abort_pending(base, lock_abort_cause::preempted);
  }

  // The preemptions' hand-offs may already have granted us.
  const std::uint32_t now = rec_of(txn);
  if (now == none || recs_[now].holding || !all_free(recs_[now].items))
    return;
  leave_queues(now);
  grant(now);
}

void lock_table::mark_certified(std::uint64_t txn) {
  const std::uint32_t r = rec_of(txn);
  DBSM_CHECK(r != none);
  recs_[r].certified = true;
}

void lock_table::wake_waiters(std::uint32_t released) {
  // Collect candidate waiters in global arrival order and retry their
  // atomic acquisition. Granting one may block later candidates.
  const std::size_t base = pending_.size();
  for (item_id it : recs_[released].items) {
    const item_slot* s = items_.find(it);
    if (s == nullptr || s->queue == none) continue;
    for (std::uint32_t w : queues_[s->queue]) note_pending(base, recs_[w]);
  }
  // Certified transactions must make progress ahead of local waiters;
  // within a class, first-come-first-served.
  std::sort(pending_.begin() + static_cast<std::ptrdiff_t>(base),
            pending_.end(), [](const pending& a, const pending& b) {
              if (a.certified != b.certified) return a.certified;
              return a.arrival < b.arrival;
            });
  for (std::size_t k = base, end = pending_.size(); k < end; ++k) {
    const std::uint32_t r = rec_of(pending_[k].txn);
    if (r == none || recs_[r].holding || !all_free(recs_[r].items)) continue;
    leave_queues(r);
    grant(r);
  }
  pending_.resize(base);
}

void lock_table::release_commit(std::uint64_t txn) {
  const txn_slot* s = txns_.find(txn);
  DBSM_CHECK_MSG(s != nullptr && recs_[s->rec].holding,
                 "release_commit of non-holder " << txn);
  const std::uint32_t r = s->rec;
  txns_.erase(s);
  if (drop_holds(r)) {
    // First-committer-wins: waiters on the released locks have
    // write-write conflicts with the committed values and abort — unless
    // certified, in which case they must commit and simply retry
    // acquisition.
    const std::size_t base = pending_.size();
    for (item_id it : recs_[r].items) {
      const item_slot* is = items_.find(it);
      if (is == nullptr || is->queue == none) continue;
      for (std::uint32_t w : queues_[is->queue])
        if (!recs_[w].certified) note_pending(base, recs_[w]);
    }
    abort_pending(base, lock_abort_cause::holder_committed);
    wake_waiters(r);
  }
  free_rec(r);
}

void lock_table::release_abort(std::uint64_t txn) {
  const txn_slot* s = txns_.find(txn);
  DBSM_CHECK_MSG(s != nullptr, "release_abort of unknown txn " << txn);
  const std::uint32_t r = s->rec;
  txns_.erase(s);
  if (recs_[r].holding) {
    if (drop_holds(r)) wake_waiters(r);
  } else {
    leave_queues(r);
  }
  free_rec(r);
}

bool lock_table::holds(std::uint64_t txn) const {
  const std::uint32_t r = rec_of(txn);
  return r != none && recs_[r].holding;
}

bool lock_table::waiting(std::uint64_t txn) const {
  const std::uint32_t r = rec_of(txn);
  return r != none && !recs_[r].holding;
}

void lock_table::check_invariants() const {
  std::size_t held = 0, queues = 0;
  items_.for_each([&](const item_slot& s) {
    if (s.holder != none) {
      ++held;
      const txn_rec& h = recs_.at(s.holder);
      DBSM_CHECK_MSG(rec_of(h.txn) == s.holder,
                     "holder of " << s.item << " unknown");
      DBSM_CHECK(h.holding);
      DBSM_CHECK(std::find(h.items.begin(), h.items.end(), s.item) !=
                 h.items.end());
    }
    if (s.queue != none) {
      ++queues;
      const std::vector<std::uint32_t>& q = queues_.at(s.queue);
      DBSM_CHECK(!q.empty());
      for (std::uint32_t w : q) {
        DBSM_CHECK_MSG(rec_of(recs_.at(w).txn) == w,
                       "waiter on " << s.item << " unknown");
        DBSM_CHECK(!recs_[w].holding);
      }
    }
  });
  DBSM_CHECK(held == held_);
  DBSM_CHECK(queues + free_queues_.size() == queues_.size());
  std::size_t live = 0;
  txns_.for_each([&](const txn_slot& t) {
    ++live;
    const txn_rec& rec = recs_.at(t.rec);
    DBSM_CHECK(rec.txn == t.txn);
    for (item_id item : rec.items) {
      const item_slot* s = items_.find(item);
      DBSM_CHECK(s != nullptr);
      if (rec.holding) {
        DBSM_CHECK(s->holder == t.rec);
      } else {
        DBSM_CHECK(s->queue != none);
        const std::vector<std::uint32_t>& q = queues_[s->queue];
        DBSM_CHECK(std::find(q.begin(), q.end(), t.rec) != q.end());
      }
    }
  });
  // Inside a callback, the records of the transactions it concerns are
  // neither live nor free yet.
  DBSM_CHECK(live + free_recs_.size() <= recs_.size());
}

}  // namespace dbsm::db
