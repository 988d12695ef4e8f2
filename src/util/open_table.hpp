// Flat open-addressing hash table keyed by 64-bit integers.
//
// The one implementation behind the per-write tables of the hot path:
// cert::last_writer_index (item id -> last writer position), the
// place::granule_store directory (granule id -> state), and the
// db::lock_table's item and transaction tables. Slots live in one
// power-of-two array kept at most 3/4 full. Lookup probes linearly from
// the key's home slot (Fibonacci hashing) to the first empty slot. There
// are no tombstones, so churn never lengthens probes: erase shifts the
// rest of the probe run back into the hole, and erase_if compacts the
// whole array in one pass, moving each survivor back toward its home.
//
// Inserting or erasing moves slots, so a slot pointer is good only until
// the table's next insert or erase.
//
// `Policy` describes a slot; the user gives up one slot value to mark
// "empty" (a key sentinel, or a payload value that never occurs):
//   static std::uint64_t key(const Slot&);
//   static bool empty(const Slot&);
//   static Slot empty_slot();
// A slot may be narrower than a 64-bit key: the last-writer index keeps
// its ids as two 32-bit halves that key() joins again.
//
// Contents, and therefore for_each order, are a pure function of the
// operation sequence, so runs stay deterministic. The order itself is
// unspecified: callers that serialize must sort.
#ifndef DBSM_UTIL_OPEN_TABLE_HPP
#define DBSM_UTIL_OPEN_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbsm::util {

/// Home slot of `key` in a table of 2^`bits` slots (1 <= bits <= 63): the
/// top `bits` bits of key × 2^64/φ. A key's home at fewer bits is a prefix
/// of its home at more, which lets tests craft keys that collide at every
/// table size.
inline std::size_t open_table_home(std::uint64_t key, unsigned bits) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                  (64 - bits));
}

template <typename Slot, typename Policy>
class open_table {
 public:
  std::size_t size() const { return size_; }

  /// The slot holding `key`, or nullptr. The caller may change the
  /// slot's payload, but not its key, and must erase it rather than
  /// make it empty.
  const Slot* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[probe(key)];
    return Policy::empty(s) ? nullptr : &s;
  }
  Slot* find(std::uint64_t key) {
    return const_cast<Slot*>(std::as_const(*this).find(key));
  }

  /// Stores `slot` unless its key is present. Returns the slot holding the
  /// key and whether it was new.
  std::pair<Slot*, bool> try_insert(const Slot& slot) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    Slot& s = slots_[probe(Policy::key(slot))];
    if (!Policy::empty(s)) return {&s, false};
    s = slot;
    ++size_;
    return {&s, true};
  }

  /// Stores `slot`, replacing the slot with the same key if there is one.
  /// Returns true when the key was new.
  bool insert_or_assign(const Slot& slot) {
    auto [s, fresh] = try_insert(slot);
    if (!fresh) *s = slot;
    return fresh;
  }

  /// Removes the slot `at`, which find() or try_insert() returned since
  /// the last insert or erase.
  void erase(const Slot* at) {
    std::size_t hole = static_cast<std::size_t>(at - slots_.data());
    // Backward shift: walk the run after the hole and pull back every
    // slot whose home lies at or before the hole (cyclically), so no
    // probe from any home crosses an empty slot before reaching its key.
    for (std::size_t j = next(hole);; j = next(j)) {
      Slot& s = slots_[j];
      if (Policy::empty(s)) break;
      const std::size_t k = open_table_home(Policy::key(s), bits_);
      if (((j - k) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = s;
        hole = j;
      }
    }
    slots_[hole] = Policy::empty_slot();
    --size_;
  }

  /// Removes every slot `dead(slot)` selects, in one pass over the array
  /// and without reallocating: each survivor moves back to the first
  /// free slot at or after its home.
  template <typename Pred>
  void erase_if(Pred&& dead) {
    if (size_ == 0) return;
    // Start after an empty slot: no probe run crosses it, so every
    // survivor's home is visited before the survivor itself.
    std::size_t start = 0;
    while (!Policy::empty(slots_[start])) start = next(start);
    std::size_t i = start;
    for (std::size_t n = slots_.size(); n > 0; --n) {
      i = next(i);
      Slot& s = slots_[i];
      if (Policy::empty(s)) continue;
      if (dead(s)) {
        s = Policy::empty_slot();
        --size_;
        continue;
      }
      std::size_t j = open_table_home(Policy::key(s), bits_);
      while (j != i && !Policy::empty(slots_[j])) j = next(j);
      if (j != i) {
        slots_[j] = s;
        s = Policy::empty_slot();
      }
    }
  }

  /// Calls `fn(slot)` for every stored slot, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (!Policy::empty(s)) fn(s);
  }

 private:
  static constexpr unsigned min_bits = 3;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = open_table_home(key, bits_);
    while (!Policy::empty(slots_[i]) && Policy::key(slots_[i]) != key)
      i = next(i);
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    bits_ = old.empty() ? min_bits : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, Policy::empty_slot());
    for (const Slot& s : old) {
      if (Policy::empty(s)) continue;
      std::size_t i = open_table_home(Policy::key(s), bits_);
      while (!Policy::empty(slots_[i])) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned bits_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dbsm::util

#endif  // DBSM_UTIL_OPEN_TABLE_HPP
