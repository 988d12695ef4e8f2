#include "cert/sharded_certifier.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dbsm::cert {

sharded_certifier::sharded_certifier(cert_config cfg) : cfg_(cfg) {
  DBSM_CHECK(cfg_.history_window > 0);
  DBSM_CHECK(cfg_.shards > 0);
  DBSM_CHECK(cfg_.certify_threads > 0);
  shards_.resize(cfg_.shards);
  workers_ = static_cast<unsigned>(std::min<std::size_t>(
      cfg_.certify_threads, shards_.size()));
  if (workers_ > 1)
    pool_ = std::make_unique<util::thread_pool>(workers_);
  read_slices_.resize(shards_.size());
  write_slices_.resize(shards_.size());
  shard_elems_.resize(shards_.size());
  verdicts_.resize(shards_.size());
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

bool sharded_certifier::merge_verdicts() const {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (verdicts_[s] != 0) return true;
  return false;
}

sim_duration sharded_certifier::modeled_cost(bool amortized_fixed) const {
  // Critical path of the fork-join: the chunk of shards whose slices hold
  // the most elements. One worker degenerates to the set-linear model
  // (total element count, no fork term).
  std::size_t worst = 0;
  for (unsigned c = 0; c < workers_; ++c) {
    std::size_t elems = 0;
    const std::size_t end = chunk_begin(c + 1);
    for (std::size_t s = chunk_begin(c); s < end; ++s)
      elems += shard_elems_[s];
    worst = std::max(worst, elems);
  }
  sim_duration cost =
      (amortized_fixed ? cfg_.cost_batch_fixed : cfg_.cost_fixed) +
      cfg_.cost_per_element * static_cast<sim_duration>(worst);
  if (workers_ > 1) cost += cfg_.cost_fork_join;
  return cost;
}

bool sharded_certifier::certify_update(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>& write_set, bool amortized_fixed) {
  DBSM_CHECK_MSG(begin_pos <= position_,
                 "snapshot " << begin_pos << " is in the future of "
                             << position_);
  ++position_;
  // The conservative pre-window rule is global (positions only) and must
  // precede every probe. A snapshot older than the retained window aborts
  // by a rule deterministic across replicas, and the rule also makes
  // stale (not yet purged) index entries harmless: any surviving snapshot
  // satisfies begin_pos >= oldest_retained_ - 1 >= the stale entry's
  // position.
  const bool pre_window = begin_pos + 1 < oldest_retained_;
  // Zero-set short-circuit: with nothing to probe or install, no shard can
  // produce a verdict and the decision is the pre-window rule alone — so
  // skip the fork-join (and its modeled fork cost) entirely.
  if (read_set.empty() && write_set.empty()) {
    last_cost_ = amortized_fixed ? cfg_.cost_batch_fixed : cfg_.cost_fixed;
    if (pre_window) {
      ++aborts_;
      return false;
    }
    retain_commit();
    return true;
  }
  partition(read_set, read_slices_);
  partition(write_set, write_slices_);
  fork_join([&](std::size_t s) {
    const auto& rs = slice_of(read_set, s, read_slices_);
    const auto& ws = slice_of(write_set, s, write_slices_);
    shard_elems_[s] = rs.size() + ws.size();
    verdicts_[s] =
        (!pre_window && shards_[s].conflicts(begin_pos, rs, &ws)) ? 1 : 0;
  });
  const bool conflict = pre_window || merge_verdicts();
  last_cost_ = modeled_cost(amortized_fixed);
  if (conflict) {
    ++aborts_;
    return false;
  }
  fork_join([&](std::size_t s) {
    shards_[s].note_commit(slice_of(write_set, s, write_slices_), position_);
  });
  retain_commit();
  return true;
}

void sharded_certifier::retain_commit() {
  ++commits_;
  window_.push_back(position_);
  if (window_.size() > cfg_.history_window) {
    oldest_retained_ = window_.front() + 1;
    window_.pop_front();
  }
  if (commits_ > cfg_.history_window &&
      commits_ % cfg_.history_window == 0) {
    for (last_writer_index& s : shards_) s.purge_before(oldest_retained_);
  }
}

bool sharded_certifier::certify_read_only(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set) const {
  // Zero-set short-circuit (see certify_update): an empty read set can
  // only fail the global pre-window rule, so no shard is consulted.
  if (read_set.empty()) {
    last_cost_ = cfg_.cost_fixed;
    return !(begin_pos + 1 < oldest_retained_);
  }
  bool conflict = begin_pos + 1 < oldest_retained_;
  partition(read_set, read_slices_);
  fork_join([&](std::size_t s) {
    const auto& rs = slice_of(read_set, s, read_slices_);
    shard_elems_[s] = rs.size();
    verdicts_[s] =
        (!conflict && shards_[s].conflicts(begin_pos, rs, nullptr)) ? 1 : 0;
  });
  conflict = conflict || merge_verdicts();
  last_cost_ = modeled_cost(/*amortized_fixed=*/false);
  return !conflict;
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
}

}  // namespace dbsm::cert
