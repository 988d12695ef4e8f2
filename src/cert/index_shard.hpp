// One hash-partition of the certification state, plus the canonical
// snapshot format of cert::sharded_certifier.
//
// A shard owns the last-writer entries of the item ids that hash into it
// (tuple and granule spaces both) and the lazy-eviction ring for those
// same ids. Probes, installs and eviction drains touch only this shard's
// maps, so distinct shards can run concurrently with no synchronization:
// the sharded certifier forks one task per shard range (and at one shard
// simply owns one).
//
// Snapshot format (cert_entry blocks): a membership-recovery state
// transfer serializes write sets as flat position-ordered entries with
// *full* (unpartitioned) sets — first the not-yet-drained eviction
// backlog, then the retained window. The layout is deliberately
// independent of cert_config::shards: the donor merges its per-shard
// rings back into canonical entries and the joiner re-partitions them by
// its own shard count on restore, so donor and joiner may disagree on
// `shards`. Replaying
// the entries in order rebuilds identical index contents — stale backlog
// entries included — at any partitioning.
#ifndef DBSM_CERT_INDEX_SHARD_HPP
#define DBSM_CERT_INDEX_SHARD_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "cert/cert_index.hpp"
#include "db/item.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::cert {

/// One committed (or evicted-pending-drain) write set at its delivery
/// position. In a shard's ring the set is this shard's slice; in the
/// canonical snapshot it is the full set.
struct cert_entry {
  std::uint64_t pos = 0;
  std::vector<db::item_id> write_set;
};

class index_shard {
 public:
  /// Probes this shard's slices of a transaction's sets: escalated
  /// (granule) reads against the last committed writer of the granule,
  /// writes against tuple-granularity write-write. The global pre-window
  /// rule is the caller's job — it depends only on positions, never on
  /// shard contents.
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_slice,
                 const std::vector<db::item_id>* write_slice) const;

  /// Records `pos` as the last writer of this shard's slice of a
  /// committed write set.
  void install(const std::vector<db::item_id>& write_slice,
               std::uint64_t pos) {
    index_.note_commit(write_slice, pos);
  }

  /// Queues a slice that slid out of the history window for lazy index
  /// cleanup (stale entries are decision-safe; see cert_index.hpp).
  void queue_eviction(cert_entry slice) {
    evicted_.push_back(std::move(slice));
  }

  /// Removes up to `max_entries` queued slices' stale index entries.
  void drain(std::size_t max_entries);

  std::size_t index_size() const { return index_.size(); }
  std::size_t evicted_backlog() const { return evicted_.size(); }
  /// Queued slices in eviction (= position) order, for snapshot merging.
  const std::deque<cert_entry>& evicted() const { return evicted_; }

 private:
  last_writer_index index_;
  std::deque<cert_entry> evicted_;
};

/// Writes one canonical block of cert_entries (count, then pos + set per
/// entry). `Seq` is any forward range of cert_entry.
template <typename Seq>
void write_entry_block(util::buffer_writer& w, const Seq& entries) {
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const cert_entry& e : entries) {
    w.put_u64(e.pos);
    w.put_u32(static_cast<std::uint32_t>(e.write_set.size()));
    for (const db::item_id id : e.write_set) w.put_u64(id);
  }
}

/// Reads one block written by write_entry_block.
std::vector<cert_entry> read_entry_block(util::buffer_reader& r);

}  // namespace dbsm::cert

#endif  // DBSM_CERT_INDEX_SHARD_HPP
