#include "cert/sharded_certifier.hpp"

#include <algorithm>
#include <limits>
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
  evict_slices_.resize(shards_.size());
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
  // Zero-set short-circuit: with nothing to probe or install, no shard can
  // produce a verdict and the decision is the global pre-window rule alone
  // — so skip the fork-join (and its modeled fork cost) entirely. The
  // eviction rings still drain serially and the (empty) entry still enters
  // the history, so index contents and drain positions stay identical to
  // the long path.
  if (read_set.empty() && write_set.empty()) {
    for (auto& s : shards_) s.drain(cfg_.evict_drain_per_delivery);
    last_cost_ = amortized_fixed ? cfg_.cost_batch_fixed : cfg_.cost_fixed;
    if (begin_pos + 1 < oldest_retained_) {
      ++aborts_;
      return false;
    }
    ++commits_;
    history_.push_back(cert_entry{position_, {}});
    while (history_.size() > cfg_.history_window) {
      oldest_retained_ = history_.front().pos + 1;
      queue_evicted(std::move(history_.front()));
      history_.pop_front();
    }
    return true;
  }
  partition(read_set, read_slices_);
  partition(write_set, write_slices_);
  // The conservative pre-window rule is global (positions only) and must
  // precede every probe. A snapshot older than the retained history
  // aborts by a rule deterministic across replicas, and the rule also
  // makes stale (not yet drained) index entries harmless: any surviving
  // snapshot satisfies begin_pos >= oldest_retained_ - 1 >= the stale
  // entry's position.
  const bool pre_window = begin_pos + 1 < oldest_retained_;
  fork_join([&](std::size_t s) {
    shards_[s].drain(cfg_.evict_drain_per_delivery);
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
  ++commits_;
  fork_join([&](std::size_t s) {
    shards_[s].install(slice_of(write_set, s, write_slices_), position_);
  });
  history_.push_back(cert_entry{position_, write_set});
  while (history_.size() > cfg_.history_window) {
    oldest_retained_ = history_.front().pos + 1;
    queue_evicted(std::move(history_.front()));
    history_.pop_front();
  }
  return true;
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

void sharded_certifier::queue_evicted(cert_entry e, bool install) {
  if (shards_.size() == 1) {
    if (install) shards_[0].install(e.write_set, e.pos);
    shards_[0].queue_eviction(std::move(e));
    return;
  }
  partition(e.write_set, evict_slices_);
  bool queued = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (evict_slices_[s].empty()) continue;
    if (install) shards_[s].install(evict_slices_[s], e.pos);
    // Scratch slices are cleared by the next partition(); moving them
    // out here is free.
    shards_[s].queue_eviction(cert_entry{e.pos, std::move(evict_slices_[s])});
    queued = true;
  }
  // An (unusual) empty write set still occupies one ring slot, like the
  // single-index layout, so drains converge at the same positions.
  if (!queued) shards_[0].queue_eviction(cert_entry{e.pos, {}});
}

std::size_t sharded_certifier::index_size() const {
  std::size_t n = 0;
  for (const index_shard& s : shards_) n += s.index_size();
  return n;
}

std::size_t sharded_certifier::evicted_backlog() const {
  std::size_t n = 0;
  for (const index_shard& s : shards_) n += s.evicted_backlog();
  return n;
}

std::vector<cert_entry> sharded_certifier::merged_evicted() const {
  // K-way merge of the per-shard rings by position. Shards may have
  // drained to different positions (an entry's slice can be absent from a
  // shard that already dropped it, or never owned part of the set) — the
  // merged entry then carries the surviving subset, which restore replays
  // identically: stale entries are decision-safe whatever their extent.
  std::vector<cert_entry> out;
  if (shards_.size() == 1) {
    const auto& ring = shards_[0].evicted();
    out.assign(ring.begin(), ring.end());
    return out;
  }
  std::vector<std::size_t> cursor(shards_.size(), 0);
  for (;;) {
    std::uint64_t pos = std::numeric_limits<std::uint64_t>::max();
    bool any = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& ring = shards_[s].evicted();
      if (cursor[s] < ring.size()) {
        pos = std::min(pos, ring[cursor[s]].pos);
        any = true;
      }
    }
    if (!any) break;
    cert_entry e;
    e.pos = pos;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& ring = shards_[s].evicted();
      if (cursor[s] < ring.size() && ring[cursor[s]].pos == pos) {
        const auto& slice = ring[cursor[s]].write_set;
        e.write_set.insert(e.write_set.end(), slice.begin(), slice.end());
        ++cursor[s];
      }
    }
    // Slices are disjoint id subsets; sorting restores the canonical
    // (normalized write set) order.
    std::sort(e.write_set.begin(), e.write_set.end());
    out.push_back(std::move(e));
  }
  return out;
}

void sharded_certifier::snapshot(util::buffer_writer& w) const {
  w.put_u64(position_);
  w.put_u64(oldest_retained_);
  w.put_u64(commits_);
  w.put_u64(aborts_);
  write_entry_block(w, merged_evicted());
  write_entry_block(w, history_);
}

void sharded_certifier::restore(util::buffer_reader& r) {
  DBSM_CHECK_MSG(position_ == 0, "restore() needs a fresh certifier");
  position_ = r.get_u64();
  oldest_retained_ = r.get_u64();
  commits_ = r.get_u64();
  aborts_ = r.get_u64();
  // Replay in donor order — evicted (older) entries first, then the
  // retained window — re-partitioned by the *local* shard count: the
  // canonical blocks carry full write sets, so the donor's shard count
  // is irrelevant here. Installs run
  // inline: a per-entry fork-join would cost more than the few hash
  // inserts it parallelizes.
  for (cert_entry& e : read_entry_block(r))
    queue_evicted(std::move(e), /*install=*/true);
  for (cert_entry& e : read_entry_block(r)) {
    partition(e.write_set, write_slices_);
    for (std::size_t s = 0; s < shards_.size(); ++s)
      shards_[s].install(slice_of(e.write_set, s, write_slices_), e.pos);
    history_.push_back(std::move(e));
  }
}

}  // namespace dbsm::cert
