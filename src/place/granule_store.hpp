// Per-site granule store bookkeeping for partial replication.
//
// Two tiers, one structure:
//
//   * The DIRECTORY tracks every granule the delivered total order has
//     ever written — update count, distinct written tuples, and the
//     modeled data bytes those tuples hold. Every site maintains it for
//     ALL granules (it is a deterministic function of the delivered
//     commit stream, which certification already ships everywhere), so
//     any snapshot donor can serialize any site's slice — in particular
//     a joiner's granules the donor itself does not replicate.
//   * The DURABLE view is the directory restricted to the granules the
//     local placement assigns to this site: only those contribute to
//     durable_bytes()/owned accounting, mirroring what the disk model
//     actually wrote.
//
// The store is pure bookkeeping: apply() runs inside the delivery job but
// never charges modeled CPU, schedules simulator work, or consumes
// randomness, so runs with any placement remain bit-identical in
// simulated behavior to runs without the store.
//
// The directory is a flat table from granule id to an index into a vector
// of granule states. The tuples of one granule differ only in their
// 25-bit row (db/item.hpp), so each state keeps the rows of its written
// tuples in a row_set, and the granule id supplies the rest of each
// tuple id. A row_set holds its rows in one of two forms:
//
//   * a sorted array of 32-bit rows;
//   * a bitmap over [0, max row], one bit per row in 32-bit words.
//
// Either grows its capacity by a quarter, not by doubling, and a bitmap
// by at most 512 B at a time.
//
// The data picks the form. An insert that leaves the bitmap over
// [0, max row] no larger than the array (words <= rows) turns the array
// into that bitmap; a row past the bitmap that would make it more than
// twice the array (words > 2 x rows) turns the bitmap back into an
// array. Scattered rows (a history granule's, drawn from the whole row
// space) stay an array at 4 B a row; dense ones (a warehouse's stock
// once a few percent of it is written) become a bitmap at under 1 B a
// row. Both forms list their rows in ascending order, so snapshot_for
// sorts only the granule ids.
//
// snapshot_for(site) serializes the directory slice a joining `site`
// replicates (granules and each granule's tuples in ascending id order),
// followed by padding bytes equal to the slice's modeled data size — the
// same convention the txn codec uses for written values ("padding of the
// same total size", §3.3) — so recovery join_chunk counts genuinely track
// the placement-filtered database size instead of the full one.
#ifndef DBSM_PLACE_GRANULE_STORE_HPP
#define DBSM_PLACE_GRANULE_STORE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/item.hpp"
#include "place/placement.hpp"
#include "util/byte_buffer.hpp"
#include "util/open_table.hpp"

namespace dbsm::place {

class granule_store {
 public:
  granule_store() = default;
  granule_store(placement p, unsigned self) : placement_(p), self_(self) {}

  /// Applies one committed update's write set (granule markers and all) to
  /// the directory; durable accounting moves only for granules this site
  /// replicates. `update_bytes` is attributed evenly across the written
  /// tuples; re-writing an existing tuple does not grow the data size
  /// (the store models a materialized database, not a log).
  void apply(const std::vector<db::item_id>& write_set,
             std::uint32_t update_bytes);

  // --- accounting ---
  /// Modeled bytes of tuple data durably held at this site.
  std::uint64_t durable_bytes() const { return durable_bytes_; }
  /// Distinct tuples durably held at this site.
  std::uint64_t durable_tuples() const { return durable_tuples_; }
  /// Committed updates with at least one element stored at this site.
  std::uint64_t applied_updates() const { return applied_updates_; }
  /// Granules the directory tracks (all granules ever written).
  std::uint64_t tracked_granules() const { return dir_.size(); }
  /// Tracked granules this site replicates.
  std::uint64_t owned_granules() const { return owned_granules_; }

  /// Serializes the directory slice `for_site` replicates under this
  /// store's placement, plus data-sized padding (see header).
  void snapshot_for(util::buffer_writer& w, unsigned for_site) const;

  /// Installs a transferred slice: entries replace same-granule directory
  /// state wholesale; durable accounting is recomputed. Entries for
  /// granules this site does not replicate are still installed into the
  /// directory (they refresh the joiner's stale view of them). Throws
  /// invariant_violation on a listed tuple outside its granule, or on a
  /// granule's tuples not strictly ascending, as snapshot_for lists them.
  void restore(util::buffer_reader& r);

 private:
  /// The rows of one granule's written tuples (see header).
  class row_set {
   public:
    std::uint32_t size() const { return count_; }
    /// Adds `row`; false when it was there already.
    bool insert(std::uint32_t row);
    /// Calls `fn(row)` for every row, in ascending order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (!bitmap_) {
        for (const std::uint32_t row : words_) fn(row);
        return;
      }
      for (std::size_t w = 0; w < words_.size(); ++w)
        for (std::uint32_t bits = words_[w]; bits != 0; bits &= bits - 1)
          fn(static_cast<std::uint32_t>(w * 32 + std::countr_zero(bits)));
    }

   private:
    /// Makes room for `n` words, growing the capacity by a quarter.
    void make_room(std::size_t n);
    /// Replaces the array by the bitmap over [0, `max_row`].
    void to_bitmap(std::uint32_t max_row);
    /// Replaces the bitmap by the array of its rows, with room for one
    /// more.
    void to_array();

    /// The sorted rows, or the bitmap's words (bit r % 32 of word r / 32
    /// is row r).
    std::vector<std::uint32_t> words_;
    std::uint32_t count_ = 0;
    bool bitmap_ = false;
  };

  struct granule_state {
    std::uint64_t updates = 0;     // committed updates that touched it
    std::uint64_t data_bytes = 0;  // modeled materialized size
    row_set rows;                  // rows of distinct written tuples
  };

  /// Granule id -> index of its state in states_.
  struct dir_slot {
    db::item_id granule;
    std::uint32_t state;
  };
  struct dir_policy {
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    static std::uint64_t key(const dir_slot& s) { return s.granule; }
    static bool empty(const dir_slot& s) { return s.state == none; }
    static dir_slot empty_slot() { return {0, none}; }
  };

  /// The state of granule `g`, added empty if the directory lacks it.
  granule_state& state_of(db::item_id g);
  void recount();

  placement placement_;
  unsigned self_ = 0;
  util::open_table<dir_slot, dir_policy> dir_;
  std::vector<granule_state> states_;  // in order of first write
  std::uint64_t durable_bytes_ = 0;
  std::uint64_t durable_tuples_ = 0;
  std::uint64_t owned_granules_ = 0;
  std::uint64_t applied_updates_ = 0;
  /// Scratch: granules touched by the current apply (small, reused).
  std::vector<db::item_id> touched_scratch_;
};

}  // namespace dbsm::place

#endif  // DBSM_PLACE_GRANULE_STORE_HPP
