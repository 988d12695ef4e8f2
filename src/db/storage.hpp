// Storage element (§3.1): "defined by its latency and number of allowed
// concurrent requests. Each request manipulates a single storage sector,
// hence storage bandwidth becomes configured indirectly. A cache hit ratio
// determines the probability of a read request being handled instantaneously
// without consuming storage resources."
//
// Defaults model the paper's testbed: IOzone measured 9.486 MB/s of
// synchronous 4 KB writes on the RAID-5 box; with 4 concurrent requests
// that is a per-request latency of 4 × 4096 B / 9.486 MB/s ≈ 1.73 ms.
#ifndef DBSM_DB_STORAGE_HPP
#define DBSM_DB_STORAGE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dbsm::db {

/// Bytes one storage request manipulates.
inline constexpr std::size_t sector_bytes = 4096;

struct storage_config {
  sim_duration request_latency = from_micros(1727);
  unsigned max_concurrent = 4;
  double cache_hit_ratio = 1.0;  // §4.1: observed > 98%, configured 100%

  /// Effective write bandwidth implied by the parameters, bytes/second.
  double bandwidth_bytes_per_s() const {
    return static_cast<double>(sector_bytes) * max_concurrent /
           to_seconds(request_latency);
  }
};

class storage {
 public:
  storage(sim::simulator& sim, storage_config cfg, util::rng gen);

  storage(const storage&) = delete;
  storage& operator=(const storage&) = delete;

  /// Reads `bytes` (rounded up to sectors). With probability
  /// cache_hit_ratio per sector the read is free; misses queue storage
  /// requests. `done` fires when all sectors are available.
  void read(std::size_t bytes, std::function<void()> done);

  /// Writes `bytes` (rounded up to sectors); writes always hit storage.
  void write(std::size_t bytes, std::function<void()> done);

  /// Busy fraction of the storage element so far (feeds Fig 6b).
  double utilization() const { return busy_.utilization(sim_.now()); }

  std::uint64_t sectors_read() const { return sectors_read_; }
  std::uint64_t sectors_written() const { return sectors_written_; }
  /// Nothing queued and nothing in service: no completion event is
  /// pending that points into this object.
  bool idle() const { return queue_.empty() && active_ == 0; }

  const storage_config& config() const { return cfg_; }

 private:
  struct request_group {
    unsigned remaining;
    std::function<void()> done;
  };

  /// Enqueues `sectors` single-sector requests completing into one group.
  void enqueue(unsigned sectors, std::function<void()> done);
  void pump();
  unsigned sectors_for(std::size_t bytes) const;

  sim::simulator& sim_;
  storage_config cfg_;
  util::rng rng_;
  std::deque<std::shared_ptr<request_group>> queue_;
  unsigned active_ = 0;
  util::utilization_tracker busy_;
  std::uint64_t sectors_read_ = 0;
  std::uint64_t sectors_written_ = 0;
};

}  // namespace dbsm::db

#endif  // DBSM_DB_STORAGE_HPP
