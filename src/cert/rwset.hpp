// Read/write-set utilities for the certification prototype (§3.3).
//
// Sets are sorted vectors of 64-bit tuple identifiers, put in order by
// normalize(). The reference scan certifier relies on that order to confirm
// a filter hit by binary search, and the helpers below to test two sets in
// one merge pass. Sets may contain granule ids (escalated scans / the
// granules written tuples fall into) — see db/item.hpp for the escalation
// semantics.
#ifndef DBSM_CERT_RWSET_HPP
#define DBSM_CERT_RWSET_HPP

#include <vector>

#include "db/item.hpp"

namespace dbsm::cert {

/// Sorts and deduplicates a set in place.
void normalize(std::vector<db::item_id>& set);

/// True if the sets share any element (both must be normalized).
bool intersects(const std::vector<db::item_id>& a,
                const std::vector<db::item_id>& b);

/// Write/write conflict test: like intersects(), but granule-granule
/// matches do not count — two transactions writing different tuples of the
/// same granule do not conflict; the granule markers exist only so that
/// escalated *reads* catch point writes.
bool write_write_conflicts(const std::vector<db::item_id>& a,
                           const std::vector<db::item_id>& b);

/// Applies read-set escalation: if `scan_tuples` exceeds `threshold`, the
/// scan contributes only its granule id; otherwise the tuples themselves.
/// Appends to `out` (normalize afterwards).
void append_scan(std::vector<db::item_id>& out,
                 const std::vector<db::item_id>& scan_tuples,
                 db::item_id granule, std::size_t threshold);

}  // namespace dbsm::cert

#endif  // DBSM_CERT_RWSET_HPP
