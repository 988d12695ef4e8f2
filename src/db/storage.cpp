#include "db/storage.hpp"

#include <utility>

#include "util/check.hpp"

namespace dbsm::db {

storage::storage(sim::simulator& sim, storage_config cfg, util::rng gen)
    : sim_(sim), cfg_(cfg), rng_(gen),
      busy_(static_cast<double>(cfg.max_concurrent)) {
  DBSM_CHECK(cfg_.max_concurrent > 0);
  DBSM_CHECK(cfg_.request_latency > 0);
  DBSM_CHECK(cfg_.cache_hit_ratio >= 0.0 && cfg_.cache_hit_ratio <= 1.0);
}

unsigned storage::sectors_for(std::size_t bytes) const {
  if (bytes == 0) return 1;
  return static_cast<unsigned>((bytes + sector_bytes - 1) / sector_bytes);
}

void storage::read(std::size_t bytes, std::function<void()> done) {
  unsigned misses = 0;
  const unsigned sectors = sectors_for(bytes);
  for (unsigned i = 0; i < sectors; ++i) {
    if (!rng_.bernoulli(cfg_.cache_hit_ratio)) ++misses;
  }
  sectors_read_ += misses;
  if (misses == 0) {
    // Cache hit: handled instantaneously, but still via an event so the
    // caller's control flow is uniform.
    sim_.schedule_at(sim_.now(), std::move(done));
    return;
  }
  enqueue(misses, std::move(done));
}

void storage::write(std::size_t bytes, std::function<void()> done) {
  const unsigned sectors = sectors_for(bytes);
  sectors_written_ += sectors;
  enqueue(sectors, std::move(done));
}

void storage::enqueue(unsigned sectors, std::function<void()> done) {
  DBSM_CHECK(sectors > 0);
  auto group = std::make_shared<request_group>();
  group->remaining = sectors;
  group->done = std::move(done);
  for (unsigned i = 0; i < sectors; ++i) queue_.push_back(group);
  pump();
}

void storage::pump() {
  while (active_ < cfg_.max_concurrent && !queue_.empty()) {
    auto group = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    busy_.set_busy(sim_.now(), static_cast<double>(active_));
    sim_.schedule_after(cfg_.request_latency, [this, group] {
      --active_;
      busy_.set_busy(sim_.now(), static_cast<double>(active_));
      if (--group->remaining == 0 && group->done) group->done();
      pump();
    });
  }
}

}  // namespace dbsm::db
