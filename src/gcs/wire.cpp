#include "gcs/wire.hpp"

#include <array>
#include <type_traits>

#include "util/check.hpp"

namespace dbsm::gcs {

namespace {

template <class T> constexpr bool is_vector = false;
template <class T> constexpr bool is_vector<std::vector<T>> = true;
template <class T> constexpr bool is_pair = false;
template <class A, class B> constexpr bool is_pair<std::pair<A, B>> = true;
template <class T> constexpr bool is_optional = false;
template <class T> constexpr bool is_optional<std::optional<T>> = true;

template <class T>
concept format = requires(const T& v) { T::fields(v); };

/// Wire size of a vector element: an integer or a pair of integers.
template <class T> constexpr std::size_t fixed_size() {
  if constexpr (is_pair<T>)
    return fixed_size<typename T::first_type>() +
           fixed_size<typename T::second_type>();
  else
    return sizeof(T);
}

// The two rules a field list cannot state, checked on both sides.
void check_rules(const stab_msg& m) {
  DBSM_CHECK(m.stable.size() == m.min_received.size());
}
void check_rules(const view_cut_msg& m) {
  DBSM_CHECK(m.cut.size() == m.sources.size());
}
void check_rules(const auto&) {}

/// Counts the bytes a buffer_writer would store: the sizing pass of
/// encode, so a datagram costs one exact allocation. A blob is the last
/// field of every format that has one, so its zeros stay a count.
struct byte_counter {
  std::size_t n = 0;
  void put_u8(std::uint8_t) { n += 1; }
  void put_u16(std::uint16_t) { n += 2; }
  void put_u32(std::uint32_t) { n += 4; }
  void put_u64(std::uint64_t) { n += 8; }
  void put_buffer(const util::byte_buffer& b) { n += b.stored().size(); }
};

template <class W, class T> void put(W& w, const T& v) {
  if constexpr (format<T>) {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::fields(v));
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (is_pair<T>) {
    put(w, v.first);
    put(w, v.second);
  } else if constexpr (is_vector<T>) {
    DBSM_CHECK_MSG(v.size() <= 0xffff, "vector of " << v.size()
                                                    << " exceeds a u16 count");
    w.put_u16(static_cast<std::uint16_t>(v.size()));
    for (const auto& x : v) put(w, x);
  } else if constexpr (std::is_same_v<T, util::shared_bytes>) {
    DBSM_CHECK(v != nullptr);
    w.put_u32(static_cast<std::uint32_t>(v->size()));
    w.put_buffer(*v);
  } else if constexpr (is_optional<T>) {
    if (v) put(w, *v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.put_u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.put_u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.put_u32(v);
  } else {
    static_assert(std::is_same_v<T, std::uint64_t>, "no wire form");
    w.put_u64(v);
  }
}

template <class T> void get(util::buffer_reader& r, T& v) {
  if constexpr (format<T>) {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, T::fields(v));
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> u = 0;
    get(r, u);
    v = static_cast<T>(u);
  } else if constexpr (is_pair<T>) {
    get(r, v.first);
    get(r, v.second);
  } else if constexpr (is_vector<T>) {
    const std::uint16_t n = r.get_u16();
    DBSM_CHECK_MSG(n <= r.remaining() / fixed_size<typename T::value_type>(),
                   "count of " << n << " overruns the datagram");
    v.resize(n);
    for (auto& x : v) get(r, x);
  } else if constexpr (std::is_same_v<T, util::shared_bytes>) {
    const std::uint32_t len = r.get_u32();
    DBSM_CHECK_MSG(len <= r.remaining(),
                   "blob of " << len << " bytes overruns the datagram");
    v = r.get_buffer(len);
  } else if constexpr (is_optional<T>) {
    if (!r.done()) get(r, v.emplace());
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.get_u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = r.get_u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.get_u32();
  } else {
    static_assert(std::is_same_v<T, std::uint64_t>, "no wire form");
    v = r.get_u64();
  }
}

template <class T> util::shared_bytes write(const T& v) {
  check_rules(v);
  byte_counter size;
  put(size, v);
  util::buffer_writer w(size.n);
  put(w, v);
  return w.take();
}

template <class T> T read(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  T v;
  get(r, v);
  DBSM_CHECK_MSG(r.done(), r.remaining() << " bytes left after the last field");
  check_rules(v);
  return v;
}

template <std::size_t... I>
constexpr bool in_wire_order(std::index_sequence<I...>) {
  return ((std::variant_alternative_t<I, message>::wire_type ==
           static_cast<msg_type>(I + 1)) &&
          ...);
}

constexpr auto alternatives =
    std::make_index_sequence<std::variant_size_v<message>>{};
static_assert(in_wire_order(alternatives),
              "alternative i of gcs::message must be wire type i + 1");

template <class T> message read_message(const util::shared_bytes& raw) {
  return read<T>(raw);
}

template <std::size_t... I>
constexpr auto make_readers(std::index_sequence<I...>) {
  return std::array<message (*)(const util::shared_bytes&), sizeof...(I)>{
      &read_message<std::variant_alternative_t<I, message>>...};
}

constexpr auto readers = make_readers(alternatives);

}  // namespace

util::shared_bytes encode(const message& m) {
  return std::visit([](const auto& v) { return write(v); }, m);
}

std::size_t data_msg_size(std::size_t fragment_bytes) {
  static const std::size_t fixed = [] {
    data_msg m;
    m.payload = std::make_shared<const util::byte_buffer>();
    byte_counter n;
    put(n, m);
    return n.n;
  }();
  return fixed + fragment_bytes;
}

message decode(const util::shared_bytes& raw) {
  const std::size_t type = util::buffer_reader(raw).get_u8();
  DBSM_CHECK_MSG(type >= 1 && type <= readers.size(),
                 "unknown wire type " << type);
  return readers[type - 1](raw);
}

header decode_header(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  header h;
  get(r, h);
  return h;
}

util::shared_bytes encode_assignment_batch(const assignment_batch& b) {
  return write(b);
}

assignment_batch decode_assignment_batch(const util::shared_bytes& raw) {
  return read<assignment_batch>(raw);
}

}  // namespace dbsm::gcs
