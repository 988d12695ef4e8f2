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
// of granule states, each holding its tuples in a flat set. The tuples of
// one granule differ only in their 25-bit row (db/item.hpp), so the set
// keeps 32-bit rows, and the granule id supplies the rest of each tuple
// id. Neither table keeps an order, so snapshot_for sorts the granule ids
// and each granule's rebuilt tuple ids before it writes them.
//
// snapshot_for(site) serializes the directory slice a joining `site`
// replicates (granules and each granule's tuples in ascending id order),
// followed by padding bytes equal to the slice's modeled data size — the
// same convention the txn codec uses for written values ("padding of the
// same total size", §3.3) — so recovery join_chunk counts genuinely track
// the placement-filtered database size instead of the full one.
#ifndef DBSM_PLACE_GRANULE_STORE_HPP
#define DBSM_PLACE_GRANULE_STORE_HPP

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
  /// invariant_violation on a listed tuple outside its granule.
  void restore(util::buffer_reader& r);

 private:
  /// Rows are 25 bits wide, so the all-ones row marks an empty slot.
  struct row_policy {
    static std::uint64_t key(std::uint32_t row) { return row; }
    static bool empty(std::uint32_t row) { return row == ~std::uint32_t{0}; }
    static std::uint32_t empty_slot() { return ~std::uint32_t{0}; }
  };
  using row_set = util::open_table<std::uint32_t, row_policy>;

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
