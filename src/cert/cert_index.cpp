#include "cert/cert_index.hpp"

#include "util/check.hpp"

namespace dbsm::cert {

last_writer_index::writer last_writer_index::slot(db::item_id id,
                                                  std::uint64_t pos) {
  return {static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(id >> 32),
          static_cast<std::uint32_t>(pos)};
}

void last_writer_index::note_commit(
    const std::vector<db::item_id>& write_set, std::uint64_t pos) {
  DBSM_CHECK_MSG(pos != 0 && pos <= max_pos,
                 "position " << pos << " does not fit an index slot");
  for (const db::item_id id : write_set)
    table_.insert_or_assign(slot(id, pos));
}

void last_writer_index::set_last_writer(db::item_id id, std::uint64_t pos) {
  DBSM_CHECK_MSG(pos != 0 && pos <= max_pos,
                 "position " << pos << " does not fit an index slot");
  table_.insert_or_assign(slot(id, pos));
}

bool last_writer_index::conflicts(
    std::uint64_t begin_pos, const std::vector<db::item_id>& read_set,
    const std::vector<db::item_id>* write_set) const {
  // Point reads are snapshot-served; only escalated (granule) reads can
  // conflict — with the last committed write advertising that granule.
  for (const db::item_id id : read_set) {
    if (db::is_granule(id) && last_writer(id) > begin_pos) return true;
  }
  if (write_set != nullptr) {
    // Write-write at tuple granularity: granule markers are skipped (two
    // writers inside one granule do not conflict), exactly like the
    // reference scan's merge rule.
    for (const db::item_id id : *write_set) {
      if (!db::is_granule(id) && last_writer(id) > begin_pos) return true;
    }
  }
  return false;
}

void last_writer_index::purge_before(std::uint64_t oldest) {
  table_.erase_if([oldest](const writer& w) { return w.pos < oldest; });
}

}  // namespace dbsm::cert
