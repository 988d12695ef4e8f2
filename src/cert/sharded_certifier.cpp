#include "cert/sharded_certifier.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::cert {

sharded_certifier::sharded_certifier(cert_config cfg, std::size_t origins)
    : cfg_(cfg), low_water_(origins, 0) {
  DBSM_CHECK(cfg_.history_window > 0);
  DBSM_CHECK(cfg_.shards > 0);
  shards_.resize(cfg_.shards);
  read_slices_.resize(shards_.size());
  write_slices_.resize(shards_.size());
}

std::size_t sharded_certifier::shard_of(db::item_id id) const {
  if (cfg_.shard_map) {
    const std::size_t s = cfg_.shard_map(id, shards_.size());
    DBSM_CHECK_MSG(s < shards_.size(), "shard_map returned " << s
                                           << " of " << shards_.size());
    return s;
  }
  // splitmix64 finalizer: deterministic across platforms and runs, and
  // uncorrelated with the id layout's table/warehouse bit fields.
  std::uint64_t x = id;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

void sharded_certifier::partition(
    const std::vector<db::item_id>& set,
    std::vector<std::vector<db::item_id>>& slices) const {
  if (shards_.size() == 1) return;  // slice_of() aliases the full set
  for (auto& s : slices) s.clear();
  for (const db::item_id id : set) slices[shard_of(id)].push_back(id);
}

bool sharded_certifier::conflicts(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>* write_set) const {
  partition(read_set, read_slices_);
  if (write_set != nullptr) partition(*write_set, write_slices_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<db::item_id>* ws =
        write_set == nullptr ? nullptr
                             : &slice_of(*write_set, s, write_slices_);
    if (shards_[s].conflicts(begin_pos, slice_of(read_set, s, read_slices_),
                             ws))
      return true;
  }
  return false;
}

void sharded_certifier::note_low_water(node_id origin,
                                       std::uint64_t low_water) {
  DBSM_CHECK_MSG(origin < low_water_.size(),
                 "origin " << origin << " outside the " << low_water_.size()
                           << " sites of the low-water table");
  std::uint64_t& lw = low_water_[origin];
  DBSM_CHECK_MSG(low_water >= lw, "origin " << origin << "'s low water fell "
                                            << lw << " -> " << low_water);
  const bool was_min = lw == bound_;
  lw = low_water;
  if (was_min)
    bound_ = *std::min_element(low_water_.begin(), low_water_.end());
}

void sharded_certifier::check_snapshot(std::uint64_t begin_pos) const {
  DBSM_CHECK_MSG(begin_pos >= bound_ || begin_pos + 1 < oldest_retained_,
                 "snapshot " << begin_pos << " is below the low-water bound "
                             << bound_);
}

bool sharded_certifier::certify_update(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>& write_set, bool amortized_fixed) {
  DBSM_CHECK_MSG(begin_pos <= position_,
                 "snapshot " << begin_pos << " is in the future of "
                             << position_);
  check_snapshot(begin_pos);
  ++position_;
  last_cost_ = (amortized_fixed ? cost_batch_fixed : cost_fixed) +
               cost_per_element * static_cast<sim_duration>(
                                      read_set.size() + write_set.size());
  // The conservative pre-window rule is global (positions only) and must
  // precede every probe. A snapshot older than the retained window aborts
  // by a rule deterministic across replicas, and the rule also makes
  // stale (not yet purged) index entries harmless: any surviving snapshot
  // satisfies begin_pos >= oldest_retained_ - 1 >= the stale entry's
  // position.
  if (begin_pos + 1 < oldest_retained_ ||
      conflicts(begin_pos, read_set, &write_set)) {
    ++aborts_;
    return false;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s].note_commit(slice_of(write_set, s, write_slices_), position_);
  // Retain the position, evicting the oldest past history_window, and
  // purge once per window of commits, or when the index has doubled while
  // the bound reaches past the window (see Eviction in the header).
  ++commits_;
  window_.push_back(position_);
  if (window_.size() > cfg_.history_window) {
    oldest_retained_ = window_.front() + 1;
    window_.pop_front();
  }
  if ((commits_ > cfg_.history_window &&
       commits_ % cfg_.history_window == 0) ||
      (bound_ >= oldest_retained_ && index_size() >= purge_at_)) {
    // An entry at or below the bound is as unreachable as one below the
    // window.
    const std::uint64_t oldest = std::max(oldest_retained_, bound_ + 1);
    for (last_writer_index& s : shards_) s.purge_before(oldest);
    purge_at_ = std::max<std::uint64_t>(min_purge_at, 2 * index_size());
  }
  return true;
}

bool sharded_certifier::certify_read_only(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set) const {
  check_snapshot(begin_pos);
  last_cost_ = cost_fixed +
               cost_per_element * static_cast<sim_duration>(read_set.size());
  return !(begin_pos + 1 < oldest_retained_ ||
           conflicts(begin_pos, read_set, nullptr));
}

std::size_t sharded_certifier::index_size() const {
  std::size_t n = 0;
  for (const last_writer_index& s : shards_) n += s.size();
  return n;
}

void sharded_certifier::snapshot(util::buffer_writer& w) const {
  w.put_u64(position_);
  w.put_u64(oldest_retained_);
  w.put_u64(commits_);
  w.put_u64(aborts_);
  w.put_u64(window_.size());
  for (const std::uint64_t pos : window_) w.put_u64(pos);
  std::vector<std::pair<db::item_id, std::uint64_t>> entries;
  entries.reserve(index_size());
  for (const last_writer_index& s : shards_)
    s.for_each([&](db::item_id id, std::uint64_t pos) {
      entries.emplace_back(id, pos);
    });
  std::sort(entries.begin(), entries.end());
  w.put_u64(entries.size());
  for (const auto& [id, pos] : entries) {
    w.put_u64(id);
    w.put_u64(pos);
  }
  w.put_u64(low_water_.size());
  for (const std::uint64_t lw : low_water_) w.put_u64(lw);
  w.put_u64(purge_at_);
}

void sharded_certifier::restore(util::buffer_reader& r) {
  DBSM_CHECK_MSG(position_ == 0, "restore() needs a fresh certifier");
  position_ = r.get_u64();
  oldest_retained_ = r.get_u64();
  commits_ = r.get_u64();
  aborts_ = r.get_u64();
  // Every position is one commit or one abort, and oldest_retained_ is
  // one past an evicted position.
  DBSM_CHECK_MSG(commits_ <= position_ && aborts_ == position_ - commits_ &&
                     oldest_retained_ >= 1 &&
                     oldest_retained_ - 1 <= position_,
                 "cert snapshot: inconsistent counters");
  // Every commit is retained until the window evicts it.
  const std::uint64_t retained = r.get_u64();
  DBSM_CHECK_MSG(
      retained == std::min<std::uint64_t>(commits_, cfg_.history_window) &&
          retained <= r.remaining() / 8,
      "cert snapshot: " << retained << " retained positions");
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < retained; ++i) {
    const std::uint64_t pos = r.get_u64();
    DBSM_CHECK_MSG(pos > prev && pos >= oldest_retained_ && pos <= position_,
                   "cert snapshot: retained position " << pos);
    window_.push_back(pos);
    prev = pos;
  }
  const std::uint64_t entries = r.get_u64();
  DBSM_CHECK_MSG(entries <= r.remaining() / 16,
                 "cert snapshot: " << entries << " index entries");
  db::item_id prev_id = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    const db::item_id id = r.get_u64();
    const std::uint64_t pos = r.get_u64();
    DBSM_CHECK_MSG(i == 0 || id > prev_id,
                   "cert snapshot: index id " << id << " out of order");
    DBSM_CHECK_MSG(pos >= 1 && pos <= position_,
                   "cert snapshot: index position " << pos);
    shards_[shard_of(id)].set_last_writer(id, pos);
    prev_id = id;
  }
  // Donor and joiner size the table from the same initial view.
  const std::uint64_t origins = r.get_u64();
  DBSM_CHECK_MSG(origins == low_water_.size(),
                 "cert snapshot: " << origins << " low waters for "
                                   << low_water_.size() << " origins");
  for (std::uint64_t& lw : low_water_) lw = r.get_u64();
  bound_ = low_water_.empty()
               ? 0
               : *std::min_element(low_water_.begin(), low_water_.end());
  purge_at_ = r.get_u64();
  DBSM_CHECK_MSG(purge_at_ >= min_purge_at,
                 "cert snapshot: purge trigger " << purge_at_);
}

}  // namespace dbsm::cert
