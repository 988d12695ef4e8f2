#include "cert/reference_certifier.hpp"

#include <algorithm>
#include <span>

#include "util/check.hpp"

namespace dbsm::cert {

namespace {

/// True if two ascending id runs share an element (one merge traversal).
bool shares_id(std::span<const db::item_id> a,
               std::span<const db::item_id> b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

reference_certifier::reference_certifier(cert_config cfg) : cfg_(cfg) {
  DBSM_CHECK(cfg_.history_window > 0);
}

bool reference_certifier::conflicts(std::uint64_t begin_pos,
                                    const std::vector<db::item_id>& read_set,
                                    const std::vector<db::item_id>* write_set,
                                    sim_duration& cost) const {
  cost = cfg_.cost_fixed;
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
  cost += cfg_.cost_per_element *
          static_cast<sim_duration>(read_set.size());
  std::vector<db::item_id>& write_tuples = write_tuples_scratch_;
  write_tuples.clear();
  if (write_set != nullptr) {
    for (db::item_id it : *write_set) {
      if (!db::is_granule(it)) write_tuples.push_back(it);
    }
  }

  // The first committed entry after the snapshot.
  const auto first = std::upper_bound(
      history_.begin() + static_cast<std::ptrdiff_t>(head_), history_.end(),
      begin_pos,
      [](std::uint64_t pos, const entry& e) { return pos < e.pos; });
  for (auto e = first; e != history_.end(); ++e) {
    const std::span<const db::item_id> tuples(ids_.data() + e->begin,
                                              e->tuples);
    const std::span<const db::item_id> granules(tuples.data() + e->tuples,
                                                e->granules);
    // The modeled cost charges a merge over both whole sets.
    const std::size_t size = tuples.size() + granules.size();
    if (!read_granules.empty()) {
      cost += cfg_.cost_per_element *
              static_cast<sim_duration>(size + read_granules.size());
      if (shares_id(granules, read_granules)) return true;
    }
    if (write_set != nullptr) {
      cost += cfg_.cost_per_element *
              static_cast<sim_duration>(size + write_set->size());
      if (shares_id(tuples, write_tuples)) return true;
    }
  }
  return false;
}

void reference_certifier::evict_oldest() {
  oldest_retained_ = history_[head_].pos + 1;
  ++head_;
  if (2 * head_ < history_.size()) return;
  const std::size_t dead_ids =
      head_ < history_.size() ? history_[head_].begin : ids_.size();
  ids_.erase(ids_.begin(),
             ids_.begin() + static_cast<std::ptrdiff_t>(dead_ids));
  history_.erase(history_.begin(),
                 history_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  for (entry& e : history_) e.begin -= dead_ids;
}

bool reference_certifier::certify_update(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>& write_set) {
  DBSM_CHECK_MSG(begin_pos <= position_,
                 "snapshot " << begin_pos << " is in the future of "
                             << position_);
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
  sim_duration cost = 0;
  const bool conflict = conflicts(begin_pos, read_set, nullptr, cost);
  last_cost_ = cost;
  return !conflict;
}

}  // namespace dbsm::cert
