#include "gcs/wire.hpp"

#include "util/check.hpp"

namespace dbsm::gcs {

namespace {

void put_header(util::buffer_writer& w, const header& h) {
  w.put_u8(static_cast<std::uint8_t>(h.type));
  w.put_u32(h.view_id);
  w.put_u32(h.sender);
}

header get_header(util::buffer_reader& r) {
  header h;
  h.type = static_cast<msg_type>(r.get_u8());
  h.view_id = r.get_u32();
  h.sender = r.get_u32();
  return h;
}

void put_u64_vec(util::buffer_writer& w, const std::vector<std::uint64_t>& v) {
  w.put_u16(static_cast<std::uint16_t>(v.size()));
  for (std::uint64_t x : v) w.put_u64(x);
}

std::vector<std::uint64_t> get_u64_vec(util::buffer_reader& r) {
  const std::uint16_t n = r.get_u16();
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) v.push_back(r.get_u64());
  return v;
}

void put_node_vec(util::buffer_writer& w, const std::vector<node_id>& v) {
  w.put_u16(static_cast<std::uint16_t>(v.size()));
  for (node_id x : v) w.put_u32(x);
}

std::vector<node_id> get_node_vec(util::buffer_reader& r) {
  const std::uint16_t n = r.get_u16();
  std::vector<node_id> v;
  v.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) v.push_back(r.get_u32());
  return v;
}

/// A length-prefixed byte blob. The length is checked against the bytes
/// left before anything is allocated, so a corrupt prefix cannot request
/// gigabytes.
util::shared_bytes get_blob(util::buffer_reader& r) {
  const std::uint32_t len = r.get_u32();
  DBSM_CHECK_MSG(len <= r.remaining(),
                 "blob of " << len << " bytes overruns the datagram");
  auto blob = std::make_shared<util::bytes>(len);
  r.get_bytes(blob->data(), len);
  return blob;
}

util::buffer_reader open(const util::shared_bytes& raw, msg_type expect,
                         header& h) {
  util::buffer_reader r(raw);
  h = get_header(r);
  DBSM_CHECK_MSG(h.type == expect,
                 "wire type mismatch: got " << static_cast<int>(h.type));
  return r;
}

}  // namespace

util::shared_bytes encode(const data_msg& m) {
  DBSM_CHECK(m.payload != nullptr);
  util::buffer_writer w(32 + m.payload->size());
  put_header(w, m.hdr);
  w.put_u64(m.dgram_seq);
  w.put_u64(m.app_seq);
  w.put_u16(m.frag_idx);
  w.put_u16(m.frag_cnt);
  w.put_u32(static_cast<std::uint32_t>(m.payload->size()));
  w.put_bytes(m.payload->data(), m.payload->size());
  return w.take();
}

data_msg decode_data(const util::shared_bytes& raw) {
  data_msg m;
  auto r = open(raw, msg_type::data, m.hdr);
  m.dgram_seq = r.get_u64();
  m.app_seq = r.get_u64();
  m.frag_idx = r.get_u16();
  m.frag_cnt = r.get_u16();
  m.payload = get_blob(r);
  return m;
}

util::shared_bytes encode(const nak_msg& m) {
  util::buffer_writer w(16 + 8 * m.missing.size());
  put_header(w, m.hdr);
  w.put_u32(m.target_sender);
  put_u64_vec(w, m.missing);
  return w.take();
}

nak_msg decode_nak(const util::shared_bytes& raw) {
  nak_msg m;
  auto r = open(raw, msg_type::nak, m.hdr);
  m.target_sender = r.get_u32();
  m.missing = get_u64_vec(r);
  return m;
}

util::shared_bytes encode(const stab_msg& m) {
  DBSM_CHECK(m.stable.size() == m.min_received.size());
  util::buffer_writer w(24 + 16 * m.stable.size());
  put_header(w, m.hdr);
  w.put_u32(m.round);
  w.put_u32(m.voters_bitmap);
  put_u64_vec(w, m.stable);
  put_u64_vec(w, m.min_received);
  return w.take();
}

stab_msg decode_stab(const util::shared_bytes& raw) {
  stab_msg m;
  auto r = open(raw, msg_type::stab, m.hdr);
  m.round = r.get_u32();
  m.voters_bitmap = r.get_u32();
  m.stable = get_u64_vec(r);
  m.min_received = get_u64_vec(r);
  DBSM_CHECK(m.stable.size() == m.min_received.size());
  return m;
}

util::shared_bytes encode(const heartbeat_msg& m) {
  util::buffer_writer w(24);
  put_header(w, m.hdr);
  // The high-water field travels only when recovery is enabled (the caller
  // leaves it empty otherwise), keeping the historical wire size — and the
  // serialization timing of recovery-off runs — unchanged.
  if (m.sent_high) w.put_u64(*m.sent_high);
  return w.take();
}

heartbeat_msg decode_heartbeat(const util::shared_bytes& raw) {
  heartbeat_msg m;
  auto r = open(raw, msg_type::heartbeat, m.hdr);
  if (!r.done()) m.sent_high = r.get_u64();
  return m;
}

util::shared_bytes encode(const view_propose_msg& m) {
  util::buffer_writer w(32);
  put_header(w, m.hdr);
  w.put_u32(m.new_view_id);
  put_node_vec(w, m.proposed_members);
  return w.take();
}

view_propose_msg decode_view_propose(const util::shared_bytes& raw) {
  view_propose_msg m;
  auto r = open(raw, msg_type::view_propose, m.hdr);
  m.new_view_id = r.get_u32();
  m.proposed_members = get_node_vec(r);
  return m;
}

util::shared_bytes encode(const view_state_msg& m) {
  util::buffer_writer w(32);
  put_header(w, m.hdr);
  w.put_u32(m.new_view_id);
  put_u64_vec(w, m.prefixes);
  return w.take();
}

view_state_msg decode_view_state(const util::shared_bytes& raw) {
  view_state_msg m;
  auto r = open(raw, msg_type::view_state, m.hdr);
  m.new_view_id = r.get_u32();
  m.prefixes = get_u64_vec(r);
  return m;
}

util::shared_bytes encode(const view_cut_msg& m) {
  util::buffer_writer w(64);
  put_header(w, m.hdr);
  w.put_u32(m.new_view_id);
  put_node_vec(w, m.new_members);
  put_u64_vec(w, m.cut);
  put_node_vec(w, m.sources);
  return w.take();
}

view_cut_msg decode_view_cut(const util::shared_bytes& raw) {
  view_cut_msg m;
  auto r = open(raw, msg_type::view_cut, m.hdr);
  m.new_view_id = r.get_u32();
  m.new_members = get_node_vec(r);
  m.cut = get_u64_vec(r);
  m.sources = get_node_vec(r);
  DBSM_CHECK(m.cut.size() == m.sources.size());
  return m;
}

util::shared_bytes encode(const view_flush_ok_msg& m) {
  util::buffer_writer w(16);
  put_header(w, m.hdr);
  w.put_u32(m.new_view_id);
  return w.take();
}

view_flush_ok_msg decode_view_flush_ok(const util::shared_bytes& raw) {
  view_flush_ok_msg m;
  auto r = open(raw, msg_type::view_flush_ok, m.hdr);
  m.new_view_id = r.get_u32();
  return m;
}

util::shared_bytes encode(const view_install_msg& m) {
  util::buffer_writer w(64);
  put_header(w, m.hdr);
  w.put_u32(m.new_view_id);
  put_node_vec(w, m.new_members);
  put_u64_vec(w, m.cut);
  return w.take();
}

view_install_msg decode_view_install(const util::shared_bytes& raw) {
  view_install_msg m;
  auto r = open(raw, msg_type::view_install, m.hdr);
  m.new_view_id = r.get_u32();
  m.new_members = get_node_vec(r);
  m.cut = get_u64_vec(r);
  return m;
}

util::shared_bytes encode(const join_request_msg& m) {
  util::buffer_writer w(24);
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  return w.take();
}

join_request_msg decode_join_request(const util::shared_bytes& raw) {
  join_request_msg m;
  auto r = open(raw, msg_type::join_request, m.hdr);
  m.incarnation = r.get_u64();
  return m;
}

util::shared_bytes encode(const join_chunk_msg& m) {
  DBSM_CHECK(m.payload != nullptr);
  util::buffer_writer w(40 + m.payload->size());
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  w.put_u64(m.snap_pos);
  w.put_u32(m.chunk_idx);
  w.put_u32(m.chunk_cnt);
  w.put_u32(static_cast<std::uint32_t>(m.payload->size()));
  w.put_bytes(m.payload->data(), m.payload->size());
  return w.take();
}

join_chunk_msg decode_join_chunk(const util::shared_bytes& raw) {
  join_chunk_msg m;
  auto r = open(raw, msg_type::join_chunk, m.hdr);
  m.incarnation = r.get_u64();
  m.snap_pos = r.get_u64();
  m.chunk_idx = r.get_u32();
  m.chunk_cnt = r.get_u32();
  m.payload = get_blob(r);
  return m;
}

util::shared_bytes encode(const join_chunk_ack_msg& m) {
  util::buffer_writer w(24);
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  w.put_u32(m.chunk_idx);
  return w.take();
}

join_chunk_ack_msg decode_join_chunk_ack(const util::shared_bytes& raw) {
  join_chunk_ack_msg m;
  auto r = open(raw, msg_type::join_chunk_ack, m.hdr);
  m.incarnation = r.get_u64();
  m.chunk_idx = r.get_u32();
  return m;
}

util::shared_bytes encode(const join_fwd_msg& m) {
  DBSM_CHECK(m.payload != nullptr);
  util::buffer_writer w(40 + m.payload->size());
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  w.put_u64(m.global_seq);
  w.put_u32(m.orig_sender);
  w.put_u32(static_cast<std::uint32_t>(m.payload->size()));
  w.put_bytes(m.payload->data(), m.payload->size());
  return w.take();
}

join_fwd_msg decode_join_fwd(const util::shared_bytes& raw) {
  join_fwd_msg m;
  auto r = open(raw, msg_type::join_fwd, m.hdr);
  m.incarnation = r.get_u64();
  m.global_seq = r.get_u64();
  m.orig_sender = r.get_u32();
  m.payload = get_blob(r);
  return m;
}

util::shared_bytes encode(const join_fwd_ack_msg& m) {
  util::buffer_writer w(24);
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  w.put_u64(m.replayed_to);
  return w.take();
}

join_fwd_ack_msg decode_join_fwd_ack(const util::shared_bytes& raw) {
  join_fwd_ack_msg m;
  auto r = open(raw, msg_type::join_fwd_ack, m.hdr);
  m.incarnation = r.get_u64();
  m.replayed_to = r.get_u64();
  return m;
}

util::shared_bytes encode(const join_commit_msg& m) {
  util::buffer_writer w(48);
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  w.put_u64(m.commit_seq);
  w.put_u32(m.view_id);
  put_node_vec(w, m.members);
  return w.take();
}

join_commit_msg decode_join_commit(const util::shared_bytes& raw) {
  join_commit_msg m;
  auto r = open(raw, msg_type::join_commit, m.hdr);
  m.incarnation = r.get_u64();
  m.commit_seq = r.get_u64();
  m.view_id = r.get_u32();
  m.members = get_node_vec(r);
  return m;
}

util::shared_bytes encode(const join_done_msg& m) {
  util::buffer_writer w(24);
  put_header(w, m.hdr);
  w.put_u64(m.incarnation);
  return w.take();
}

join_done_msg decode_join_done(const util::shared_bytes& raw) {
  join_done_msg m;
  auto r = open(raw, msg_type::join_done, m.hdr);
  m.incarnation = r.get_u64();
  return m;
}

header decode_header(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  return get_header(r);
}

message decode(const util::shared_bytes& raw) {
  switch (decode_header(raw).type) {
    case msg_type::data:
      return decode_data(raw);
    case msg_type::nak:
      return decode_nak(raw);
    case msg_type::stab:
      return decode_stab(raw);
    case msg_type::heartbeat:
      return decode_heartbeat(raw);
    case msg_type::view_propose:
      return decode_view_propose(raw);
    case msg_type::view_state:
      return decode_view_state(raw);
    case msg_type::view_cut:
      return decode_view_cut(raw);
    case msg_type::view_flush_ok:
      return decode_view_flush_ok(raw);
    case msg_type::view_install:
      return decode_view_install(raw);
    case msg_type::join_request:
      return decode_join_request(raw);
    case msg_type::join_chunk:
      return decode_join_chunk(raw);
    case msg_type::join_chunk_ack:
      return decode_join_chunk_ack(raw);
    case msg_type::join_fwd:
      return decode_join_fwd(raw);
    case msg_type::join_fwd_ack:
      return decode_join_fwd_ack(raw);
    case msg_type::join_commit:
      return decode_join_commit(raw);
    case msg_type::join_done:
      return decode_join_done(raw);
  }
  DBSM_CHECK_MSG(false, "unknown wire type "
                            << static_cast<int>((*raw)[0]));
  return {};
}

}  // namespace dbsm::gcs
