// Marshaling of transaction termination data (§3.3): "identifiers of read
// and written tuples ... the values of the written tuples ... along with
// the identifiers of the last transaction that has been committed locally,
// are marshaled into a message buffer."
//
// Written values are represented by padding of the same total size, so
// message sizes match what a real system would multicast — the padding is
// what the network and CPU cost models see. The buffer keeps it as a count
// of zeros (util::byte_buffer), so memory holds only the ids and sets.
//
// Wire layout, little-endian: id u64, class u16, lag u32 (begin_pos −
// low_water), begin_pos u64, read-set count u32 and ids u64, write-set
// count u32 and ids u64, disk sectors u16, update bytes u32, then the
// value padding. The origin travels in the id's site bits
// (db::make_txn_id), so the four bytes a separate origin field took carry
// the low water instead and no payload changes size.
#ifndef DBSM_CERT_TXN_CODEC_HPP
#define DBSM_CERT_TXN_CODEC_HPP

#include "db/transaction.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::cert {

/// Termination payload of one update transaction.
struct txn_payload {
  std::uint64_t id = 0;
  db::txn_class cls = 0;
  node_id origin = 0;           // db::txn_site(id); decode derives it
  std::uint64_t begin_pos = 0;  // snapshot: last locally applied position
  /// The origin's low water when it broadcast this payload: the smallest
  /// begin_pos among its pending transactions, this one included. No
  /// later payload of the origin has a smaller begin_pos
  /// (cert::sharded_certifier::note_low_water). At most begin_pos, and
  /// begin_pos − low_water fits in 32 bits.
  std::uint64_t low_water = 0;
  std::vector<db::item_id> read_set;
  std::vector<db::item_id> write_set;
  std::uint32_t update_bytes = 0;
  std::uint16_t disk_sectors = 0;
};

/// Builds the payload from an executed request, its snapshot and its
/// origin's low water.
txn_payload make_payload(const db::txn_request& req, std::uint64_t begin_pos,
                         std::uint64_t low_water);

/// Throws invariant_violation on a payload whose origin is not its id's
/// site, or whose low water is above begin_pos or 2^32 or more below it.
util::shared_bytes encode_txn(const txn_payload& p);
/// Throws invariant_violation on malformed input, a lag above begin_pos
/// included.
txn_payload decode_txn(const util::shared_bytes& raw);

/// Marshaled size without building the buffer (for tests / sizing).
std::size_t encoded_size(const txn_payload& p);

}  // namespace dbsm::cert

#endif  // DBSM_CERT_TXN_CODEC_HPP
