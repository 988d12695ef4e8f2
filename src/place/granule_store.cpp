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

/// A bitmap grows by at most this many words (4,096 rows) at a time, so a
/// dense granule keeps at most 512 B of slack past its last row.
constexpr std::size_t max_bitmap_step = 128;

}  // namespace

bool granule_store::row_set::insert(std::uint32_t row) {
  const std::size_t word = row / 32;
  const std::uint32_t bit = std::uint32_t{1} << (row % 32);
  if (bitmap_) {
    if (word < words_.size()) {
      if ((words_[word] & bit) != 0) return false;
    } else if (word + 1 > 2 * (std::size_t{count_} + 1)) {
      // A far row: the bitmap would be more than twice the array.
      to_array();
      words_.push_back(row);  // above every row of the bitmap
      ++count_;
      return true;
    } else {
      make_room(word + 1);
      words_.resize(word + 1);
    }
    words_[word] |= bit;
    ++count_;
    return true;
  }
  const auto at = std::lower_bound(words_.begin(), words_.end(), row);
  if (at != words_.end() && *at == row) return false;
  const std::uint32_t max_row = at == words_.end() ? row : words_.back();
  if (max_row / 32 + 1 <= std::size_t{count_} + 1) {
    // The bitmap over [0, max_row] is no larger than the array.
    to_bitmap(max_row);
    words_[word] |= bit;
  } else {
    const auto i = at - words_.begin();
    make_room(words_.size() + 1);
    words_.insert(words_.begin() + i, row);
  }
  ++count_;
  return true;
}

void granule_store::row_set::make_room(std::size_t n) {
  const std::size_t cap = words_.capacity();
  if (n <= cap) return;
  std::size_t step = std::max<std::size_t>(cap / 4, 4);
  if (bitmap_) step = std::min(step, max_bitmap_step);
  words_.reserve(std::max(n, cap + step));
}

void granule_store::row_set::to_bitmap(std::uint32_t max_row) {
  std::vector<std::uint32_t> bits(max_row / 32 + 1, 0);
  for (const std::uint32_t row : words_)
    bits[row / 32] |= std::uint32_t{1} << (row % 32);
  words_ = std::move(bits);
  bitmap_ = true;
}

void granule_store::row_set::to_array() {
  std::vector<std::uint32_t> rows;
  rows.reserve(std::size_t{count_} + 1);
  for_each([&](std::uint32_t row) { rows.push_back(row); });
  words_ = std::move(rows);
  bitmap_ = false;
}

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
    if (st->rows.insert(db::item_row(it))) {
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
  for (const dir_slot& s : slice) {
    const granule_state& st = states_[s.state];
    w.put_u64(s.granule);
    w.put_u64(st.updates);
    w.put_u64(st.data_bytes);
    w.put_u32(st.rows.size());
    st.rows.for_each(
        [&](std::uint32_t row) { w.put_u64(tuple_of(s.granule, row)); });
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
    db::item_id prev_tuple = 0;
    for (std::uint32_t t = 0; t < ntuples; ++t) {
      const db::item_id id = r.get_u64();
      DBSM_CHECK_MSG(!db::is_granule(id), "granule id in a tuple list: " << id);
      DBSM_CHECK_MSG(db::granule_of(id) == g,
                     "tuple " << id << " listed under granule " << g);
      // snapshot_for lists each tuple once, in ascending id order, so the
      // listed count is the number of rows stored.
      DBSM_CHECK_MSG(t == 0 || id > prev_tuple,
                     "granule snapshot: tuple " << id << " after "
                                                << prev_tuple);
      prev_tuple = id;
      st.rows.insert(db::item_row(id));
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
