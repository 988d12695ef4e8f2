// Wire formats of the group communication protocol.
//
// Every datagram starts with: type (u8), view id (u32), sender (u32).
// DATA datagrams additionally carry two sequence spaces per sender:
//   * dgram_seq — transport-level, contiguous, drives NAK recovery,
//     stability vectors and flush cuts;
//   * app_seq / fragment indices — application messages, possibly
//     fragmented over several consecutive datagrams.
#ifndef DBSM_GCS_WIRE_HPP
#define DBSM_GCS_WIRE_HPP

#include <cstdint>
#include <optional>
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
};

struct data_msg {
  header hdr;
  std::uint64_t dgram_seq = 0;
  std::uint64_t app_seq = 0;
  std::uint16_t frag_idx = 0;
  std::uint16_t frag_cnt = 1;
  util::shared_bytes payload;  // fragment bytes
};

struct nak_msg {
  header hdr;
  node_id target_sender = 0;  // whose stream has the gaps
  std::vector<std::uint64_t> missing;
};

/// One gossip round contribution of the stability detection protocol
/// (Guo's S/W/M scheme, §3.4). Vectors are indexed by the member list of
/// the current view.
struct stab_msg {
  header hdr;
  std::uint32_t round = 0;
  std::uint32_t voters_bitmap = 0;          // W, bit i = member[i] voted
  std::vector<std::uint64_t> stable;        // S
  std::vector<std::uint64_t> min_received;  // M
};

struct heartbeat_msg {
  header hdr;
  /// Sender's own datagram-stream high water (my_dgram_seq). Carried only
  /// when membership recovery is enabled: it lets a freshly (re)joined
  /// member discover datagrams it never saw — gaps with no later traffic
  /// to expose them — and NAK for them. Absent (and ignored) otherwise,
  /// so recovery-off runs stay bit-identical to the historical protocol.
  std::optional<std::uint64_t> sent_high;
};

struct view_propose_msg {
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> proposed_members;
};

/// Member → coordinator: per-sender contiguous receive prefixes (over the
/// OLD view's members).
struct view_state_msg {
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<std::uint64_t> prefixes;
};

/// Coordinator → members: agreed flush cut and, per sender, a member that
/// already holds that prefix and can serve retransmissions.
struct view_cut_msg {
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;      // indexed by old-view member list
  std::vector<node_id> sources;        // who to NAK for each old member
};

struct view_flush_ok_msg {
  header hdr;
  std::uint32_t new_view_id = 0;
};

struct view_install_msg {
  header hdr;
  std::uint32_t new_view_id = 0;
  std::vector<node_id> new_members;
  std::vector<std::uint64_t> cut;
};

// --- membership recovery (gcs/recovery.hpp) ---
//
// All join messages carry the joiner's `incarnation` (a fresh value per
// join attempt) so a restarted attempt never consumes stale state from an
// earlier one.

/// Joiner → everyone: request readmission with state transfer. Served by
/// the primary partition's coordinator (its lowest-id member).
struct join_request_msg {
  header hdr;
  std::uint64_t incarnation = 0;
};

/// Donor → joiner: one chunk of the state snapshot (db + certification
/// index + commit log, marshaled by the replica layer), stop-and-wait.
/// `snap_pos` is the global delivery position the snapshot captures.
struct join_chunk_msg {
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t snap_pos = 0;
  std::uint32_t chunk_idx = 0;
  std::uint32_t chunk_cnt = 1;
  util::shared_bytes payload;
};

/// Joiner → donor: snapshot chunk received.
struct join_chunk_ack_msg {
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint32_t chunk_idx = 0;
};

/// Donor → joiner: one totally ordered delivery made after the snapshot,
/// forwarded so the joiner replays the exact committed sequence.
struct join_fwd_msg {
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t global_seq = 0;
  node_id orig_sender = 0;
  util::shared_bytes payload;
};

/// Joiner → donor: cumulative replay progress (go-back-N ack).
struct join_fwd_ack_msg {
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t replayed_to = 0;
};

/// Donor → joiner: the merged view is installed at the members; once the
/// joiner's replay reaches `commit_seq` it installs `view_id`/`members`
/// with fresh streams and goes live.
struct join_commit_msg {
  header hdr;
  std::uint64_t incarnation = 0;
  std::uint64_t commit_seq = 0;
  std::uint32_t view_id = 0;
  std::vector<node_id> members;
};

/// Joiner → donor: live in the merged view; the donor forgets the join.
struct join_done_msg {
  header hdr;
  std::uint64_t incarnation = 0;
};

// --- encoding ---

util::shared_bytes encode(const data_msg& m);
util::shared_bytes encode(const nak_msg& m);
util::shared_bytes encode(const stab_msg& m);
util::shared_bytes encode(const heartbeat_msg& m);
util::shared_bytes encode(const view_propose_msg& m);
util::shared_bytes encode(const view_state_msg& m);
util::shared_bytes encode(const view_cut_msg& m);
util::shared_bytes encode(const view_flush_ok_msg& m);
util::shared_bytes encode(const view_install_msg& m);
util::shared_bytes encode(const join_request_msg& m);
util::shared_bytes encode(const join_chunk_msg& m);
util::shared_bytes encode(const join_chunk_ack_msg& m);
util::shared_bytes encode(const join_fwd_msg& m);
util::shared_bytes encode(const join_fwd_ack_msg& m);
util::shared_bytes encode(const join_commit_msg& m);
util::shared_bytes encode(const join_done_msg& m);

/// Peeks the header of any protocol datagram.
header decode_header(const util::shared_bytes& raw);

// Full decoders; they throw dbsm::invariant_violation on malformed input.
data_msg decode_data(const util::shared_bytes& raw);
heartbeat_msg decode_heartbeat(const util::shared_bytes& raw);
nak_msg decode_nak(const util::shared_bytes& raw);
stab_msg decode_stab(const util::shared_bytes& raw);
view_propose_msg decode_view_propose(const util::shared_bytes& raw);
view_state_msg decode_view_state(const util::shared_bytes& raw);
view_cut_msg decode_view_cut(const util::shared_bytes& raw);
view_flush_ok_msg decode_view_flush_ok(const util::shared_bytes& raw);
view_install_msg decode_view_install(const util::shared_bytes& raw);
join_request_msg decode_join_request(const util::shared_bytes& raw);
join_chunk_msg decode_join_chunk(const util::shared_bytes& raw);
join_chunk_ack_msg decode_join_chunk_ack(const util::shared_bytes& raw);
join_fwd_msg decode_join_fwd(const util::shared_bytes& raw);
join_fwd_ack_msg decode_join_fwd_ack(const util::shared_bytes& raw);
join_commit_msg decode_join_commit(const util::shared_bytes& raw);
join_done_msg decode_join_done(const util::shared_bytes& raw);

/// Any protocol datagram, decoded.
using message =
    std::variant<data_msg, nak_msg, stab_msg, heartbeat_msg, view_propose_msg,
                 view_state_msg, view_cut_msg, view_flush_ok_msg,
                 view_install_msg, join_request_msg, join_chunk_msg,
                 join_chunk_ack_msg, join_fwd_msg, join_fwd_ack_msg,
                 join_commit_msg, join_done_msg>;

/// Decodes a datagram by its type byte. Throws dbsm::invariant_violation
/// on a truncated or malformed datagram and on an unknown or retired type.
message decode(const util::shared_bytes& raw);

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_WIRE_HPP
