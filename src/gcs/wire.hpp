// Wire formats of the group communication protocol.
//
// Every datagram starts with: type (u8), view id (u32), sender (u32).
// DATA datagrams additionally carry two sequence spaces per sender:
//   * dgram_seq — transport-level, contiguous, drives NAK recovery,
//     stability vectors and flush cuts;
//   * app_seq / fragment indices — application messages, possibly
//     fragmented over several consecutive datagrams.
//
// Each format is written once, as its `fields` list in wire order; one
// writer and one reader (wire.cpp) walk that list. Integers and enums are
// fixed-width little-endian, a vector is a u16 count then its elements, a
// pair is its two members, a blob (util::shared_bytes) is a u32 length
// then its bytes, a nested format (the header) is its own fields, and an
// optional travels only when set and only as the last field. The reader
// checks every count and length against the bytes left before it
// allocates, and rejects bytes left over after the last field. A blob is
// the last field of every format that has one, so its padding
// (util::byte_buffer) stays a count of zeros in the datagram that carries
// it, and the blob decoded from that datagram keeps it as one.
#ifndef DBSM_GCS_WIRE_HPP
#define DBSM_GCS_WIRE_HPP

#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/types.hpp"

namespace dbsm::gcs {

enum class msg_type : std::uint8_t {
  data = 1,
  nak = 2,
  stab = 3,
  heartbeat = 4,
  view_propose = 5,
  view_state = 6,
  view_cut = 7,
  view_flush_ok = 8,
  view_install = 9,
  // Membership recovery (rejoin protocol, gcs/recovery.hpp).
  join_request = 10,
  join_chunk = 11,
  join_chunk_ack = 12,
  join_fwd = 13,
  join_fwd_ack = 14,
  join_commit = 15,
  join_done = 16,
  // 17 is retired (the token of a removed rotating-token orderer): decode()
  // rejects it like any other unknown type.
};

struct header {
  msg_type type = msg_type::heartbeat;
  std::uint32_t view_id = 0;
  node_id sender = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.type, m.view_id, m.sender);
  }
};

struct data_msg {
  static constexpr msg_type wire_type = msg_type::data;
  header hdr;
  std::uint64_t dgram_seq = 0;
  std::uint64_t app_seq = 0;
  std::uint16_t frag_idx = 0;
  std::uint16_t frag_cnt = 1;
  util::shared_bytes payload;  // fragment bytes

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.dgram_seq, m.app_seq, m.frag_idx, m.frag_cnt,
                    m.payload);
  }
};

struct nak_msg {
  static constexpr msg_type wire_type = msg_type::nak;
  header hdr;
  node_id target_sender = 0;  // whose stream has the gaps
  std::vector<std::uint64_t> missing;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.target_sender, m.missing);
  }
};

/// One gossip round contribution of the stability detection protocol
/// (Guo's S/W/M scheme, §3.4). Vectors are indexed by the member list of
/// the current view, so `stable` and `min_received` have equal lengths.
struct stab_msg {
  static constexpr msg_type wire_type = msg_type::stab;
  header hdr;
  std::uint32_t round = 0;
  std::uint32_t voters_bitmap = 0;          // W, bit i = member[i] voted
  std::vector<std::uint64_t> stable;        // S
  std::vector<std::uint64_t> min_received;  // M

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.round, m.voters_bitmap, m.stable,
                    m.min_received);
  }
};

struct heartbeat_msg {
  static constexpr msg_type wire_type = msg_type::heartbeat;
  header hdr;
  /// Sender's own datagram-stream high water (my_dgram_seq). Carried only
  /// when membership recovery is enabled: it lets a freshly (re)joined
  /// member discover datagrams it never saw — gaps with no later traffic
  /// to expose them — and NAK for them. Absent (and ignored) otherwise,
  /// so recovery-off runs stay bit-identical to the historical protocol.
  std::optional<std::uint64_t> sent_high;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.sent_high);
  }
};

struct view_propose_msg {
  static constexpr msg_type wire_type = msg_type::view_propose;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> proposed_members;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.new_view_id, m.proposed_members);
  }
};

/// Member → coordinator: per-sender contiguous receive prefixes (over the
/// OLD view's members).
struct view_state_msg {
  static constexpr msg_type wire_type = msg_type::view_state;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<std::uint64_t> prefixes;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.new_view_id, m.prefixes);
  }
};

/// Coordinator → members: agreed flush cut and, per sender, a member that
/// already holds that prefix and can serve retransmissions (so `cut` and
/// `sources` have equal lengths).
struct view_cut_msg {
  static constexpr msg_type wire_type = msg_type::view_cut;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;      // indexed by old-view member list
  std::vector<node_id> sources;        // who to NAK for each old member

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.new_view_id, m.new_members, m.cut, m.sources);
  }
};

struct view_flush_ok_msg {
  static constexpr msg_type wire_type = msg_type::view_flush_ok;
  header hdr;
  std::uint32_t new_view_id = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.new_view_id);
  }
};

struct view_install_msg {
  static constexpr msg_type wire_type = msg_type::view_install;
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.new_view_id, m.new_members, m.cut);
  }
};

// --- membership recovery (gcs/recovery.hpp) ---
//
// All join messages carry the joiner's `incarnation` (a fresh value per
// join attempt) so a restarted attempt never consumes stale state from an
// earlier one.

/// Joiner → everyone: request readmission with state transfer. Served by
/// the primary partition's coordinator (its lowest-id member).
struct join_request_msg {
  static constexpr msg_type wire_type = msg_type::join_request;
  header hdr;
  std::uint64_t incarnation = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation);
  }
};

/// Donor → joiner: one chunk of the state snapshot (db + certification
/// index + commit log, marshaled by the replica layer), stop-and-wait.
/// `snap_pos` is the global delivery position the snapshot captures.
struct join_chunk_msg {
  static constexpr msg_type wire_type = msg_type::join_chunk;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t snap_pos = 0;
  std::uint32_t chunk_idx = 0;
  std::uint32_t chunk_cnt = 1;
  util::shared_bytes payload;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation, m.snap_pos, m.chunk_idx,
                    m.chunk_cnt, m.payload);
  }
};

/// Joiner → donor: snapshot chunk received.
struct join_chunk_ack_msg {
  static constexpr msg_type wire_type = msg_type::join_chunk_ack;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint32_t chunk_idx = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation, m.chunk_idx);
  }
};

/// Donor → joiner: one totally ordered delivery made after the snapshot,
/// forwarded so the joiner replays the exact committed sequence.
struct join_fwd_msg {
  static constexpr msg_type wire_type = msg_type::join_fwd;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t global_seq = 0;
  node_id orig_sender = 0;
  util::shared_bytes payload;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation, m.global_seq, m.orig_sender,
                    m.payload);
  }
};

/// Joiner → donor: cumulative replay progress (go-back-N ack).
struct join_fwd_ack_msg {
  static constexpr msg_type wire_type = msg_type::join_fwd_ack;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t replayed_to = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation, m.replayed_to);
  }
};

/// Donor → joiner: the merged view is installed at the members; once the
/// joiner's replay reaches `commit_seq` it installs `view_id`/`members`
/// with fresh streams and goes live.
struct join_commit_msg {
  static constexpr msg_type wire_type = msg_type::join_commit;
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t commit_seq = 0;
  std::uint32_t view_id = 0;
  std::vector<node_id> members;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation, m.commit_seq, m.view_id,
                    m.members);
  }
};

/// Joiner → donor: live in the merged view; the donor forgets the join.
struct join_done_msg {
  static constexpr msg_type wire_type = msg_type::join_done;
  header hdr;
  std::uint64_t incarnation = 0;

  template <class M> static auto fields(M& m) {
    return std::tie(m.hdr, m.incarnation);
  }
};

/// Any protocol datagram; alternative i is wire type i + 1.
using message =
    std::variant<data_msg, nak_msg, stab_msg, heartbeat_msg, view_propose_msg,
                 view_state_msg, view_cut_msg, view_flush_ok_msg,
                 view_install_msg, join_request_msg, join_chunk_msg,
                 join_chunk_ack_msg, join_fwd_msg, join_fwd_ack_msg,
                 join_commit_msg, join_done_msg>;

util::shared_bytes encode(const message& m);

/// Encoded size of a DATA datagram carrying `fragment_bytes` of payload.
std::size_t data_msg_size(std::size_t fragment_bytes);

/// Decodes a datagram by its type byte. Throws dbsm::invariant_violation
/// on a truncated or malformed datagram, on bytes left over after its last
/// field, and on an unknown or retired type.
message decode(const util::shared_bytes& raw);

/// Peeks the header of any protocol datagram.
header decode_header(const util::shared_bytes& raw);

/// The assignment record, the only ordering wire format (gcs/sequencer.hpp;
/// it travels inside the sequencer's reliable stream, not as a datagram):
/// one base global sequence plus the (sender, app_seq) keys it covers, in
/// minting order — key i gets global sequence base + i. 12 bytes per key
/// plus 10, and one wire record (and one handler charge) per batch.
struct assignment_batch {
  std::uint64_t base = 0;
  std::vector<std::pair<node_id, std::uint64_t>> keys;

  template <class M> static auto fields(M& m) {
    return std::tie(m.base, m.keys);
  }
};

util::shared_bytes encode_assignment_batch(const assignment_batch& b);
/// Throws dbsm::invariant_violation on a truncated or malformed record.
assignment_batch decode_assignment_batch(const util::shared_bytes& raw);

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_WIRE_HPP
