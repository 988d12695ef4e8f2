// Marshaling of transaction termination data (§3.3): "identifiers of read
// and written tuples ... the values of the written tuples ... along with
// the identifiers of the last transaction that has been committed locally,
// are marshaled into a message buffer."
//
// Written values are represented by padding of the same total size, so
// message sizes match what a real system would multicast — the padding is
// what the network and CPU cost models see. The buffer keeps it as a count
// of zeros (util::byte_buffer), so memory holds only the ids and sets.
#ifndef DBSM_CERT_TXN_CODEC_HPP
#define DBSM_CERT_TXN_CODEC_HPP

#include "db/transaction.hpp"
#include "util/byte_buffer.hpp"

namespace dbsm::cert {

/// Termination payload of one update transaction.
struct txn_payload {
  std::uint64_t id = 0;
  db::txn_class cls = 0;
  node_id origin = 0;
  std::uint64_t begin_pos = 0;  // snapshot: last locally applied position
  std::vector<db::item_id> read_set;
  std::vector<db::item_id> write_set;
  std::uint32_t update_bytes = 0;
  std::uint16_t disk_sectors = 0;
};

/// Builds the payload from an executed request and its snapshot.
txn_payload make_payload(const db::txn_request& req, std::uint64_t begin_pos);

util::shared_bytes encode_txn(const txn_payload& p);
txn_payload decode_txn(const util::shared_bytes& raw);

/// Marshaled size without building the buffer (for tests / sizing).
std::size_t encoded_size(const txn_payload& p);

}  // namespace dbsm::cert

#endif  // DBSM_CERT_TXN_CODEC_HPP
