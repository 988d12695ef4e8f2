#include "cert/reference_certifier.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/open_table.hpp"

namespace dbsm::cert {

reference_certifier::reference_certifier(cert_config cfg) : cfg_(cfg) {
  DBSM_CHECK(cfg_.history_window > 0);
}

bool reference_certifier::probe(std::span<const db::item_id> stored,
                                std::span<const db::item_id> query) const {
  for (db::item_id id : stored) {
    const std::size_t h = util::open_table_home(id, filter_log2);
    if ((filter_[h / 64] >> (h % 64) & 1) != 0 &&
        std::binary_search(query.begin(), query.end(), id)) {
      return true;
    }
  }
  return false;
}

bool reference_certifier::conflicts(std::uint64_t begin_pos,
                                    const std::vector<db::item_id>& read_set,
                                    const std::vector<db::item_id>* write_set,
                                    sim_duration& cost) const {
  cost = cost_fixed;
  if (begin_pos + 1 < oldest_retained_) {
    // Snapshot older than the retained history: conservative abort, by a
    // rule deterministic across replicas (depends only on positions).
    return true;
  }
  // Point reads are snapshot-served; only escalated (granule) reads can
  // conflict with committed writes, and only with committed granules. Two
  // writers conflict only on a shared tuple.
  std::vector<db::item_id>& read_granules = read_granules_scratch_;
  read_granules.clear();
  for (db::item_id it : read_set) {
    if (db::is_granule(it)) read_granules.push_back(it);
  }
  cost += cost_per_element * static_cast<sim_duration>(read_set.size());
  std::vector<db::item_id>& write_tuples = write_tuples_scratch_;
  write_tuples.clear();
  if (write_set != nullptr) {
    for (db::item_id it : *write_set) {
      if (!db::is_granule(it)) write_tuples.push_back(it);
    }
  }

  // One filter serves both runs: a stored tuple that hits a read granule's
  // bit, or a granule that hits a tuple's, fails its confirm. The scan
  // clears the bits it set, so each call starts from an empty filter; a
  // bit left set could only cost a confirm, never change a decision.
  const std::vector<db::item_id>* const query[] = {&read_granules,
                                                   &write_tuples};
  for (const auto* run : query) {
    for (db::item_id id : *run) {
      const std::size_t h = util::open_table_home(id, filter_log2);
      filter_[h / 64] |= std::uint64_t{1} << (h % 64);
    }
  }
  bool found = false;
  // The first committed entry after the snapshot. It is live: the rule
  // above leaves every evicted entry at or before the snapshot.
  for (auto e = history_.begin() +
                static_cast<std::ptrdiff_t>(first_after(begin_pos));
       !found && e != history_.end(); ++e) {
    const std::span<const db::item_id> tuples(ids_.data() + e->begin,
                                              e->tuples);
    const std::span<const db::item_id> granules(tuples.data() + e->tuples,
                                                e->granules);
    // The modeled cost charges a merge over both whole sets.
    const std::size_t size = tuples.size() + granules.size();
    if (!read_granules.empty()) {
      cost += cost_per_element *
              static_cast<sim_duration>(size + read_granules.size());
      found = probe(granules, read_granules);
    }
    if (!found && write_set != nullptr) {
      cost += cost_per_element *
              static_cast<sim_duration>(size + write_set->size());
      found = probe(tuples, write_tuples);
    }
  }
  for (const auto* run : query) {
    for (db::item_id id : *run) {
      filter_[util::open_table_home(id, filter_log2) / 64] = 0;
    }
  }
  return found;
}

std::size_t reference_certifier::first_after(std::uint64_t p) const {
  return static_cast<std::size_t>(
      std::upper_bound(
          history_.begin(), history_.end(), p,
          [](std::uint64_t pos, const entry& e) { return pos < e.pos; }) -
      history_.begin());
}

void reference_certifier::evict_oldest() {
  oldest_retained_ = history_[head_].pos + 1;
  std::size_t dead = ++head_;
  if (settled_) {
    // A rollback to the first unsettled commit restores the window
    // before it, and the entry before that sets oldest_retained(). No
    // rollback restores a write set at or below forgotten().
    const std::size_t unsettled = first_after(*settled_);
    const std::size_t keep = cfg_.history_window + 1;
    dead = std::min(dead, std::max(unsettled > keep ? unsettled - keep : 0,
                                   first_after(forgotten_)));
  }
  if (2 * dead < history_.size()) return;
  newest_erased_ = history_[dead - 1].pos;
  const std::size_t dead_ids =
      dead < history_.size() ? history_[dead].begin : ids_.size();
  ids_.erase(ids_.begin(),
             ids_.begin() + static_cast<std::ptrdiff_t>(dead_ids));
  history_.erase(history_.begin(),
                 history_.begin() + static_cast<std::ptrdiff_t>(dead));
  head_ -= dead;
  for (entry& e : history_) e.begin -= dead_ids;
}

void reference_certifier::rollback(std::uint64_t p) {
  DBSM_CHECK_MSG(settled() < p && p <= position_ + 1,
                 "rollback to " << p << " outside (" << settled() << ", "
                                << position_ + 1 << "]");
  const std::size_t kept = first_after(p - 1);
  // The stored entries are the newest commits; compaction erased the rest.
  // The window before p is the newest history_window kept ones above
  // forgotten(), and the one before it sets oldest_retained().
  const std::uint64_t erased = commits_ - history_.size();
  DBSM_CHECK_MSG(erased == 0 || kept > cfg_.history_window ||
                     newest_erased_ <= forgotten_,
                 "rollback to " << p
                                << " needs write sets compaction freed");
  const std::uint64_t undone_commits = history_.size() - kept;
  commits_ -= undone_commits;
  aborts_ -= position_ + 1 - p - undone_commits;
  position_ = p - 1;
  if (kept < history_.size()) ids_.resize(history_[kept].begin);
  history_.resize(kept);
  head_ = std::max(kept > cfg_.history_window ? kept - cfg_.history_window : 0,
                   first_after(forgotten_));
  oldest_retained_ = head_ > 0    ? history_[head_ - 1].pos + 1
                     : erased > 0 ? newest_erased_ + 1
                                  : 1;
}

void reference_certifier::settle(std::uint64_t p) {
  DBSM_CHECK_MSG(p <= position_,
                 "settle " << p << " past position " << position_);
  settled_ = std::max(settled(), p);
}

void reference_certifier::forget_through(std::uint64_t b) {
  DBSM_CHECK_MSG(b <= settled(),
                 "forget through " << b << " past settled " << settled());
  forgotten_ = std::max(forgotten_, b);
  while (head_ < history_.size() && history_[head_].pos <= forgotten_)
    evict_oldest();
}

bool reference_certifier::certify_update(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>& write_set) {
  DBSM_CHECK_MSG(begin_pos <= position_,
                 "snapshot " << begin_pos << " is in the future of "
                             << position_);
  DBSM_CHECK_MSG(begin_pos >= forgotten_,
                 "snapshot " << begin_pos << " is below the forgotten bound "
                             << forgotten_);
  ++position_;
  sim_duration cost = 0;
  const bool conflict = conflicts(begin_pos, read_set, &write_set, cost);
  last_cost_ = cost;
  if (conflict) {
    ++aborts_;
    return false;
  }
  ++commits_;
  // conflicts() ran the whole scan, so the scratch holds the tuples.
  const std::size_t begin = ids_.size();
  ids_.insert(ids_.end(), write_tuples_scratch_.begin(),
              write_tuples_scratch_.end());
  for (db::item_id it : write_set) {
    if (db::is_granule(it)) ids_.push_back(it);
  }
  const auto tuples = static_cast<std::uint32_t>(write_tuples_scratch_.size());
  history_.push_back(entry{
      position_, begin, tuples,
      static_cast<std::uint32_t>(ids_.size() - begin - tuples)});
  while (history_size() > cfg_.history_window) evict_oldest();
  return true;
}

bool reference_certifier::certify_read_only(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set) const {
  DBSM_CHECK_MSG(begin_pos >= forgotten_,
                 "snapshot " << begin_pos << " is below the forgotten bound "
                             << forgotten_);
  sim_duration cost = 0;
  const bool conflict = conflicts(begin_pos, read_set, nullptr, cost);
  last_cost_ = cost;
  return !conflict;
}

}  // namespace dbsm::cert
