// Inverted last-writer index over the retained certification history.
//
// Maps every identifier appearing in a committed write set to the delivery
// position of its most recent committed writer. Identifiers keep the exact
// equality semantics of the merge-scan certifier. Tuple ids and granule ids
// share one flat table: they differ in bit 0, so they never collide, and
//   * a point write probes its tuple id (write-write, first-committer-
//     wins — granule markers never equal tuple ids);
//   * an escalated granule read probes its granule id, which catches
//     point writes inside its granule because write sets advertise the
//     granule marker of every written tuple (§3.3 escalation), and catches
//     committed granule writes for the same reason.
// Entries whose writer slid out of the history window are removed lazily
// (see cert::index_shard): a stale entry is harmless for decisions because
// its position precedes every snapshot that survives the conservative
// pre-window abort rule, so it can never satisfy `pos > begin_pos`.
#ifndef DBSM_CERT_CERT_INDEX_HPP
#define DBSM_CERT_CERT_INDEX_HPP

#include <cstdint>
#include <vector>

#include "db/item.hpp"
#include "util/open_table.hpp"

namespace dbsm::cert {

class last_writer_index {
 public:
  /// Records `pos` as the last committed writer of every id in
  /// `write_set`. Positions are strictly increasing across calls.
  void note_commit(const std::vector<db::item_id>& write_set,
                   std::uint64_t pos);

  /// Last committed delivery position that wrote `id`, or 0 if no retained
  /// committed write set contains it (positions start at 1).
  std::uint64_t last_writer(db::item_id id) const {
    const writer* w = table_.find(id);
    return w == nullptr ? 0 : w->pos;
  }

  /// Drops every id of `write_set` whose recorded last writer is exactly
  /// `pos` (nothing newer overwrote it) — called when the committed entry
  /// at `pos` leaves the history window.
  void forget_commit(const std::vector<db::item_id>& write_set,
                     std::uint64_t pos);

  /// Live index entries (memory probe for tests/bench).
  std::size_t size() const { return table_.size(); }

 private:
  /// One table slot; positions start at 1, so pos 0 marks an empty slot.
  struct writer {
    db::item_id id;
    std::uint64_t pos;
  };
  struct writer_policy {
    static std::uint64_t key(const writer& w) { return w.id; }
    static bool empty(const writer& w) { return w.pos == 0; }
    static writer empty_slot() { return {0, 0}; }
  };

  util::open_table<writer, writer_policy> table_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERT_INDEX_HPP
