#include "util/byte_buffer.hpp"

#include <cstring>

#include "util/check.hpp"

namespace dbsm::util {

void buffer_writer::put_u8(std::uint8_t v) { data_.push_back(v); }

void buffer_writer::put_u16(std::uint16_t v) {
  data_.push_back(static_cast<std::uint8_t>(v));
  data_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void buffer_writer::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    data_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void buffer_writer::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    data_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void buffer_writer::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void buffer_writer::put_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void buffer_writer::put_bytes(const std::uint8_t* p, std::size_t n) {
  data_.insert(data_.end(), p, p + n);
}

void buffer_writer::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void buffer_writer::put_padding(std::size_t n) {
  data_.insert(data_.end(), n, std::uint8_t{0});
}

shared_bytes buffer_writer::take() {
  return std::make_shared<const bytes>(std::move(data_));
}

buffer_reader::buffer_reader(shared_bytes data)
    : owner_(std::move(data)),
      data_(owner_ ? owner_->data() : nullptr),
      size_(owner_ ? owner_->size() : 0) {}

buffer_reader::buffer_reader(const std::uint8_t* p, std::size_t n)
    : data_(p), size_(n) {}

void buffer_reader::need(std::size_t n) const {
  DBSM_CHECK_MSG(n <= size_ - pos_,
                 "buffer underflow: pos=" << pos_ << " need=" << n
                                          << " size=" << size_);
}

std::uint8_t buffer_reader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t buffer_reader::get_u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v |= static_cast<std::uint16_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 2;
  return v;
}

std::uint32_t buffer_reader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t buffer_reader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

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
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::string buffer_reader::get_string() {
  const std::uint32_t n = get_u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void buffer_reader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

}  // namespace dbsm::util
