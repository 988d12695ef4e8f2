#include "util/byte_buffer.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace dbsm::util {

bytes byte_buffer::written_out() const {
  bytes out;
  out.reserve(size());
  out = stored_;
  out.resize(size(), std::uint8_t{0});
  return out;
}

std::uint8_t* buffer_writer::grow(std::size_t n) {
  const std::size_t at = data_.size() + padding_;
  data_.resize(at + n);  // the pending zeros are written out as zeros
  padding_ = 0;
  return data_.data() + at;
}

template <class T> void buffer_writer::put_le(T v) {
  std::uint8_t* p = grow(sizeof v);
  for (std::size_t i = 0; i < sizeof v; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void buffer_writer::put_u8(std::uint8_t v) { put_le(v); }
void buffer_writer::put_u16(std::uint16_t v) { put_le(v); }
void buffer_writer::put_u32(std::uint32_t v) { put_le(v); }
void buffer_writer::put_u64(std::uint64_t v) { put_le(v); }

void buffer_writer::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void buffer_writer::put_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void buffer_writer::put_bytes(const std::uint8_t* p, std::size_t n) {
  if (n == 0) return;  // stores nothing, so pending zeros stay a count
  std::memcpy(grow(n), p, n);
}

void buffer_writer::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void buffer_writer::put_padding(std::size_t n) { padding_ += n; }

void buffer_writer::put_buffer(const byte_buffer& b) {
  put_bytes(b.stored().data(), b.stored().size());
  padding_ += b.padding();
}

shared_bytes buffer_writer::take() {
  auto out = std::make_shared<const byte_buffer>(std::move(data_), padding_);
  padding_ = 0;
  return out;
}

shared_bytes concat(const std::vector<shared_bytes>& parts) {
  std::size_t stored = 0;
  for (const shared_bytes& p : parts) stored += p->stored().size();
  buffer_writer w(stored);
  for (const shared_bytes& p : parts) w.put_buffer(*p);
  return w.take();
}

buffer_reader::buffer_reader(shared_bytes data)
    : owner_(std::move(data)),
      data_(owner_ ? owner_->stored().data() : nullptr),
      stored_(owner_ ? owner_->stored().size() : 0),
      size_(owner_ ? owner_->size() : 0) {}

buffer_reader::buffer_reader(const std::uint8_t* p, std::size_t n)
    : data_(p), stored_(n), size_(n) {}

void buffer_reader::need(std::size_t n) const {
  DBSM_CHECK_MSG(n <= size_ - pos_,
                 "buffer underflow: pos=" << pos_ << " need=" << n
                                          << " size=" << size_);
}

std::size_t buffer_reader::stored_in(std::size_t n) const {
  return pos_ < stored_ ? std::min(n, stored_ - pos_) : 0;
}

template <class T> T buffer_reader::get_le() {
  const auto byte = [this](std::size_t i) {
    return static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
  };
  T v = 0;
  if (pos_ < stored_ && stored_ - pos_ >= sizeof(T)) {
    // All stored (so in bounds): the common case, a fixed-count loop.
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= byte(i);
  } else {
    need(sizeof(T));
    // Bytes past the stored ones are zeros and add nothing.
    const std::size_t k = stored_in(sizeof(T));
    for (std::size_t i = 0; i < k; ++i) v |= byte(i);
  }
  pos_ += sizeof(T);
  return v;
}

std::uint8_t buffer_reader::get_u8() { return get_le<std::uint8_t>(); }
std::uint16_t buffer_reader::get_u16() { return get_le<std::uint16_t>(); }
std::uint32_t buffer_reader::get_u32() { return get_le<std::uint32_t>(); }
std::uint64_t buffer_reader::get_u64() { return get_le<std::uint64_t>(); }

std::int64_t buffer_reader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double buffer_reader::get_double() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void buffer_reader::get_bytes(std::uint8_t* out, std::size_t n) {
  need(n);
  if (n == 0) return;  // an empty destination may be null, UB for memcpy
  const std::size_t k = stored_in(n);
  if (k != 0) std::memcpy(out, data_ + pos_, k);
  std::memset(out + k, 0, n - k);
  pos_ += n;
}

std::string buffer_reader::get_string() {
  const std::uint32_t n = get_u32();
  need(n);
  std::string s(n, '\0');
  get_bytes(reinterpret_cast<std::uint8_t*>(s.data()), n);
  return s;
}

void buffer_reader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

shared_bytes buffer_reader::get_buffer(std::size_t n) {
  need(n);
  const std::size_t k = stored_in(n);
  const std::uint8_t* p = data_ + (k != 0 ? pos_ : 0);
  auto out = std::make_shared<const byte_buffer>(bytes(p, p + k), n - k);
  pos_ += n;
  return out;
}

}  // namespace dbsm::util
