// Inverted last-writer index: one shard of cert::sharded_certifier's
// certification state.
//
// Maps every identifier appearing in a committed write set to the delivery
// position of its most recent committed writer. Identifiers keep the exact
// equality semantics of the reference scan certifier. Tuple ids and granule
// ids share one flat table: they differ in bit 0, so they never collide, and
//   * a point write probes its tuple id (write-write, first-committer-
//     wins — granule markers never equal tuple ids);
//   * an escalated granule read probes its granule id, which catches
//     point writes inside its granule because write sets advertise the
//     granule marker of every written tuple (§3.3 escalation), and catches
//     committed granule writes for the same reason.
// An entry whose writer slid out of the history window stays until the
// certifier's next purge_before(): a stale entry is harmless for decisions
// because its position precedes every snapshot that survives the
// conservative pre-window abort rule, so it can never satisfy
// `pos > begin_pos`.
//
// A slot is 12 bytes: the id as two 32-bit halves and the position in 32
// bits. The table still keys, hashes and orders by the whole 64-bit id.
// Positions narrow here only: note_commit() and set_last_writer() throw
// invariant_violation on a position past max_pos rather than wrap, and
// the certifier's counters and snapshot stay 64-bit.
#ifndef DBSM_CERT_CERT_INDEX_HPP
#define DBSM_CERT_CERT_INDEX_HPP

#include <cstdint>
#include <vector>

#include "db/item.hpp"
#include "util/open_table.hpp"

namespace dbsm::cert {

class last_writer_index {
 public:
  /// The largest position a slot holds (2^32 - 1).
  static constexpr std::uint64_t max_pos = ~std::uint32_t{0};

  /// Records `pos` as the last committed writer of every id in
  /// `write_set`. Positions are strictly increasing across calls.
  void note_commit(const std::vector<db::item_id>& write_set,
                   std::uint64_t pos);

  /// Records `pos` as the last committed writer of `id` (restore).
  void set_last_writer(db::item_id id, std::uint64_t pos);

  /// Last committed delivery position that wrote `id`, or 0 if the index
  /// holds no entry for it (positions start at 1).
  std::uint64_t last_writer(db::item_id id) const {
    const writer* w = table_.find(id);
    return w == nullptr ? 0 : w->pos;
  }

  /// Probes a transaction's sets (or this shard's slices of them):
  /// escalated (granule) reads against the last committed writer of the
  /// granule, writes against tuple-granularity write-write. The global
  /// pre-window rule is the caller's job — it depends only on positions.
  bool conflicts(std::uint64_t begin_pos,
                 const std::vector<db::item_id>& read_set,
                 const std::vector<db::item_id>* write_set) const;

  /// Drops every entry whose last writer precedes `oldest`, compacting the
  /// table in place (util::open_table::erase_if).
  void purge_before(std::uint64_t oldest);

  /// Calls `fn(id, pos)` for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    table_.for_each(
        [&](const writer& w) { fn(writer_policy::key(w), w.pos); });
  }

  /// Index entries, stale ones included (memory probe for tests/bench).
  std::size_t size() const { return table_.size(); }

 private:
  /// One table slot; positions start at 1, so pos 0 marks an empty slot.
  /// The id is split in halves so the slot packs into 12 bytes.
  struct writer {
    std::uint32_t id_lo;
    std::uint32_t id_hi;
    std::uint32_t pos;
  };
  struct writer_policy {
    static std::uint64_t key(const writer& w) {
      return (std::uint64_t{w.id_hi} << 32) | w.id_lo;
    }
    static bool empty(const writer& w) { return w.pos == 0; }
    static writer empty_slot() { return {0, 0, 0}; }
  };
  static_assert(sizeof(writer) == 12);

  /// The slot recording `pos` as the last writer of `id`.
  static writer slot(db::item_id id, std::uint64_t pos);

  util::open_table<writer, writer_policy> table_;
};

}  // namespace dbsm::cert

#endif  // DBSM_CERT_CERT_INDEX_HPP
