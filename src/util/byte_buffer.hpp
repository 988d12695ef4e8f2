// Wire-format marshaling buffers.
//
// The certification prototype marshals transaction ids, read/write sets and
// written values into message buffers (§3.3). Encoding is little-endian,
// fixed width. The written values are modeled as zero padding, which is
// most of a payload's size; a buffer therefore stores the bytes written
// before the padding and keeps the padding itself as a count of zeros.
// size() is the wire size, which is all the network and CPU cost models
// read, while memory holds only the stored bytes.
//
// A payload is immutable and shared (shared_ptr): handing it to another
// layer or to the simulated network copies nothing. Building a new payload
// from old ones — wrapping, unwrapping, fragment extraction, decoding a
// blob, reassembly — copies their stored bytes and carries their count of
// zeros; only a real socket write spells the zeros out (written_out()).
#ifndef DBSM_UTIL_BYTE_BUFFER_HPP
#define DBSM_UTIL_BYTE_BUFFER_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dbsm::util {

using bytes = std::vector<std::uint8_t>;

/// Stored bytes followed by padding() zeros that are kept as a count.
class byte_buffer {
 public:
  byte_buffer() = default;
  explicit byte_buffer(bytes stored, std::size_t padding = 0)
      : stored_(std::move(stored)), padding_(padding) {}

  /// Wire size: the stored bytes plus the zeros.
  std::size_t size() const { return stored_.size() + padding_; }
  bool empty() const { return size() == 0; }
  const bytes& stored() const { return stored_; }
  std::size_t padding() const { return padding_; }

  /// The wire image: the stored bytes, then the zeros written out.
  bytes written_out() const;

 private:
  bytes stored_;
  std::size_t padding_ = 0;
};

using shared_bytes = std::shared_ptr<const byte_buffer>;

/// Appends fixed-width little-endian values to a growable buffer.
class buffer_writer {
 public:
  buffer_writer() = default;
  /// Reserves room for `stored` bytes; padding needs none.
  explicit buffer_writer(std::size_t stored) { data_.reserve(stored); }

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_double(double v);
  void put_bytes(const std::uint8_t* p, std::size_t n);
  void put_string(std::string_view s);  // u32 length prefix + bytes

  /// Appends `n` zero bytes; models the padding the prototype adds so that
  /// message sizes match the tuple values of a real system (§3.3). They
  /// stay a count until a later put stores a byte after them.
  void put_padding(std::size_t n);

  /// Appends `b`: its stored bytes, then its zeros as a count.
  void put_buffer(const byte_buffer& b);

  std::size_t size() const { return data_.size() + padding_; }

  /// Finishes writing and returns the buffer as an immutable shared payload.
  shared_bytes take();

 private:
  /// Stores `n` more bytes, writing any pending zeros out before them.
  std::uint8_t* grow(std::size_t n);
  template <class T> void put_le(T v);

  bytes data_;
  std::size_t padding_ = 0;  // zeros after data_
};

/// The parts one after another, as one payload.
shared_bytes concat(const std::vector<shared_bytes>& parts);

/// Reads values written by buffer_writer; past the stored bytes it reads
/// zeros. Out-of-bounds reads throw.
class buffer_reader {
 public:
  explicit buffer_reader(shared_bytes data);
  buffer_reader(const std::uint8_t* p, std::size_t n);

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_double();
  void get_bytes(std::uint8_t* out, std::size_t n);
  std::string get_string();
  void skip(std::size_t n);

  /// The next `n` bytes as a payload of their own: the stored part is
  /// copied, the zeros stay a count.
  shared_bytes get_buffer(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const;
  /// Stored bytes among the next `n` (need(n) has passed).
  std::size_t stored_in(std::size_t n) const;
  template <class T> T get_le();

  shared_bytes owner_;  // keeps the payload alive when reading shared data
  const std::uint8_t* data_;
  std::size_t stored_;  // bytes at data_; zeros from there to size_
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dbsm::util

#endif  // DBSM_UTIL_BYTE_BUFFER_HPP
