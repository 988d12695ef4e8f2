// Minimal CSV emission for benchmark series (one file per figure).
#ifndef DBSM_UTIL_CSV_HPP
#define DBSM_UTIL_CSV_HPP

#include <fstream>
#include <string>
#include <vector>

namespace dbsm::util {

/// Writes rows to a CSV file; silently no-ops if the path is empty, so
/// benches can make file output optional.
class csv_writer {
 public:
  csv_writer() = default;
  explicit csv_writer(const std::string& path);

  void row(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
};

}  // namespace dbsm::util

#endif  // DBSM_UTIL_CSV_HPP
