#include "cert/rwset.hpp"

#include <algorithm>

namespace dbsm::cert {

void normalize(std::vector<db::item_id>& set) {
  // Sets built by ascending scans (and already-normalized sets passing
  // through again) are common; the O(n) sortedness check dodges the
  // O(n log n) sort for them on the per-transaction hot path.
  if (!std::is_sorted(set.begin(), set.end()))
    std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
}

bool intersects(const std::vector<db::item_id>& a,
                const std::vector<db::item_id>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

bool write_write_conflicts(const std::vector<db::item_id>& a,
                           const std::vector<db::item_id>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      // Equal ids are either the same tuple (conflict) or the same granule
      // marker (two writers inside one granule — not a tuple conflict).
      if (!db::is_granule(*ia)) return true;
      ++ia;
      ++ib;
    }
  }
  return false;
}

void append_scan(std::vector<db::item_id>& out,
                 const std::vector<db::item_id>& scan_tuples,
                 db::item_id granule, std::size_t threshold) {
  if (scan_tuples.size() > threshold) {
    out.push_back(granule);
  } else {
    // No reserve here: repeated appends into one set must keep the
    // vector's geometric growth (an exact-size reserve per call would
    // force a reallocation on every subsequent append). Callers that
    // know their final size reserve up front (tpcc/workload.cpp).
    out.insert(out.end(), scan_tuples.begin(), scan_tuples.end());
  }
}

}  // namespace dbsm::cert
