#include "cert/txn_codec.hpp"

#include <limits>

#include "util/check.hpp"

namespace dbsm::cert {

txn_payload make_payload(const db::txn_request& req, std::uint64_t begin_pos,
                         std::uint64_t low_water) {
  txn_payload p;
  p.id = req.id;
  p.cls = req.cls;
  p.origin = req.origin;
  p.begin_pos = begin_pos;
  p.low_water = low_water;
  p.read_set = req.read_set;
  p.write_set = req.write_set;
  p.update_bytes = req.update_bytes;
  p.disk_sectors = req.disk_sectors;
  return p;
}

std::size_t encoded_size(const txn_payload& p) {
  return 8 + 2 + 4 + 8 + 2 + 4 + 8 * p.read_set.size() + 4 +
         8 * p.write_set.size() + 4 + p.update_bytes;
}

util::shared_bytes encode_txn(const txn_payload& p) {
  // The origin is not on the wire: its four bytes carry the low water's
  // lag behind the snapshot.
  DBSM_CHECK_MSG(p.origin == db::txn_site(p.id),
                 "payload " << p.id << " names origin " << p.origin);
  DBSM_CHECK_MSG(p.low_water <= p.begin_pos &&
                     p.begin_pos - p.low_water <=
                         std::numeric_limits<std::uint32_t>::max(),
                 "low water " << p.low_water << " for snapshot "
                              << p.begin_pos);
  // The padding stays a count: only the ids and sets are stored.
  util::buffer_writer w(encoded_size(p) - p.update_bytes);
  w.put_u64(p.id);
  w.put_u16(p.cls);
  w.put_u32(static_cast<std::uint32_t>(p.begin_pos - p.low_water));
  w.put_u64(p.begin_pos);
  w.put_u32(static_cast<std::uint32_t>(p.read_set.size()));
  for (db::item_id it : p.read_set) w.put_u64(it);
  w.put_u32(static_cast<std::uint32_t>(p.write_set.size()));
  for (db::item_id it : p.write_set) w.put_u64(it);
  w.put_u16(p.disk_sectors);
  w.put_u32(p.update_bytes);
  // The written values: padding of the real payload size (§3.3).
  w.put_padding(p.update_bytes);
  return w.take();
}

txn_payload decode_txn(const util::shared_bytes& raw) {
  util::buffer_reader r(raw);
  txn_payload p;
  p.id = r.get_u64();
  p.cls = r.get_u16();
  p.origin = db::txn_site(p.id);
  const std::uint32_t lag = r.get_u32();
  p.begin_pos = r.get_u64();
  DBSM_CHECK_MSG(lag <= p.begin_pos,
                 "low-water lag " << lag << " exceeds snapshot "
                                  << p.begin_pos);
  p.low_water = p.begin_pos - lag;
  // Each count is checked against the bytes left before anything is
  // reserved, so a corrupt count cannot request gigabytes.
  const auto get_set = [&r](std::vector<db::item_id>& set) {
    const std::uint32_t n = r.get_u32();
    DBSM_CHECK_MSG(n <= r.remaining() / 8,
                   "set of " << n << " items overruns the payload");
    set.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) set.push_back(r.get_u64());
  };
  get_set(p.read_set);
  get_set(p.write_set);
  p.disk_sectors = r.get_u16();
  p.update_bytes = r.get_u32();
  r.skip(p.update_bytes);
  DBSM_CHECK(r.done());
  return p;
}

}  // namespace dbsm::cert
