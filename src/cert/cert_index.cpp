#include "cert/cert_index.hpp"

#include "util/check.hpp"

namespace dbsm::cert {

void last_writer_index::note_commit(
    const std::vector<db::item_id>& write_set, std::uint64_t pos) {
  DBSM_CHECK(pos != 0);
  for (const db::item_id id : write_set) table_.insert_or_assign({id, pos});
}

void last_writer_index::forget_commit(
    const std::vector<db::item_id>& write_set, std::uint64_t pos) {
  for (const db::item_id id : write_set) {
    const writer* w = table_.find(id);
    if (w != nullptr && w->pos == pos) table_.erase(w);
  }
}

}  // namespace dbsm::cert
