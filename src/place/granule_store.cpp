#include "place/granule_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dbsm::place {

namespace {

/// The id of tuple `row` of granule `g`.
db::item_id tuple_of(db::item_id g, std::uint32_t row) {
  return db::make_item(db::item_table(g), db::item_warehouse(g),
                       db::item_district(g), row);
}

}  // namespace

granule_store::granule_state& granule_store::state_of(db::item_id g) {
  const auto [s, fresh] =
      dir_.try_insert({g, static_cast<std::uint32_t>(states_.size())});
  if (fresh) states_.emplace_back();
  return states_[s->state];
}

void granule_store::apply(const std::vector<db::item_id>& write_set,
                          std::uint32_t update_bytes) {
  // Split the write set: tuples carry data, granule markers only locate
  // it. Bytes are attributed evenly across the written tuples (the codec
  // models values the same way — one padded blob for the whole update).
  std::size_t tuples = 0;
  for (const db::item_id it : write_set)
    if (!db::is_granule(it)) ++tuples;

  touched_scratch_.clear();
  bool any_stored = false;
  const std::uint64_t share =
      tuples > 0 ? update_bytes / tuples : update_bytes;
  // Normalized write sets keep a granule's marker and tuples adjacent, so
  // the directory entry is looked up once per run of one granule.
  db::item_id g = 0;  // no granule id is 0 (bit 0 is set)
  granule_state* st = nullptr;
  bool owned = false;
  for (const db::item_id it : write_set) {
    if (db::granule_of(it) != g) {
      g = db::granule_of(it);
      owned = placement_.stores(self_, g);
      any_stored = any_stored || owned;
      st = &state_of(g);
      if (std::find(touched_scratch_.begin(), touched_scratch_.end(), g) ==
          touched_scratch_.end()) {
        touched_scratch_.push_back(g);
        if (st->updates == 0 && owned) ++owned_granules_;
        ++st->updates;
      }
    }
    if (db::is_granule(it)) continue;
    // First write of a tuple materializes it; later writes overwrite in
    // place and do not grow the modeled database.
    if (st->rows.insert_or_assign(db::item_row(it))) {
      st->data_bytes += share;
      if (owned) {
        durable_bytes_ += share;
        ++durable_tuples_;
      }
    }
  }
  if (any_stored) ++applied_updates_;
}

void granule_store::snapshot_for(util::buffer_writer& w,
                                 unsigned for_site) const {
  std::vector<dir_slot> slice;
  std::uint64_t data = 0;
  dir_.for_each([&](const dir_slot& s) {
    if (!placement_.stores(for_site, s.granule)) return;
    slice.push_back(s);
    data += states_[s.state].data_bytes;
  });
  std::sort(slice.begin(), slice.end(),
            [](const dir_slot& a, const dir_slot& b) {
              return a.granule < b.granule;
            });
  w.put_u32(static_cast<std::uint32_t>(slice.size()));
  std::vector<db::item_id> sorted;
  for (const dir_slot& s : slice) {
    const granule_state& st = states_[s.state];
    w.put_u64(s.granule);
    w.put_u64(st.updates);
    w.put_u64(st.data_bytes);
    w.put_u32(static_cast<std::uint32_t>(st.rows.size()));
    sorted.clear();
    st.rows.for_each(
        [&](std::uint32_t row) { sorted.push_back(tuple_of(s.granule, row)); });
    std::sort(sorted.begin(), sorted.end());
    for (const db::item_id t : sorted) w.put_u64(t);
  }
  // The tuple data itself, modeled as padding of the slice's total size —
  // this is what makes a k-of-N snapshot genuinely smaller on the wire.
  w.put_padding(static_cast<std::size_t>(data));
}

void granule_store::restore(util::buffer_reader& r) {
  const std::uint32_t count = r.get_u32();
  std::uint64_t data = 0;
  db::item_id prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const db::item_id g = r.get_u64();
    // snapshot_for writes each granule once, in ascending id order.
    DBSM_CHECK_MSG(db::is_granule(g) && g > prev,
                   "granule snapshot: directory id " << g << " after " << prev);
    prev = g;
    granule_state st;
    st.updates = r.get_u64();
    st.data_bytes = r.get_u64();
    // The padding that follows the directory is `data` bytes long, so
    // neither one granule's share nor the running sum can exceed what is
    // left.
    DBSM_CHECK_MSG(data <= r.remaining() &&
                       st.data_bytes <= r.remaining() - data,
                   "granule snapshot: " << st.data_bytes
                                        << " data bytes past the end");
    data += st.data_bytes;
    const std::uint32_t ntuples = r.get_u32();
    for (std::uint32_t t = 0; t < ntuples; ++t) {
      const db::item_id id = r.get_u64();
      DBSM_CHECK_MSG(!db::is_granule(id), "granule id in a tuple list: " << id);
      DBSM_CHECK_MSG(db::granule_of(id) == g,
                     "tuple " << id << " listed under granule " << g);
      st.rows.insert_or_assign(db::item_row(id));
    }
    state_of(g) = std::move(st);
  }
  r.skip(static_cast<std::size_t>(data));
  recount();
}

void granule_store::recount() {
  durable_bytes_ = 0;
  durable_tuples_ = 0;
  owned_granules_ = 0;
  dir_.for_each([&](const dir_slot& s) {
    if (!placement_.stores(self_, s.granule)) return;
    ++owned_granules_;
    durable_bytes_ += states_[s.state].data_bytes;
    durable_tuples_ += states_[s.state].rows.size();
  });
}

}  // namespace dbsm::place
