// Certify→install hand-off of the replica's delivery path.
//
// The group hands totally ordered deliveries up as contiguous runs, and
// the replica splits each run into two stages: stage 1 probes every
// transaction of run n against the sharded certifier back-to-back
// (decisions, commit log, monitors — all the order-dependent state), and
// stage 2 installs the certified updates into db/ from a deferred job, so
// run n+1's probes run while run n's installs drain. The hand-off is
// this bounded FIFO: stage 1 pushes (payload, verdict) pairs in delivery
// order, stage 2 drains them in the same order, and a full queue forces a
// synchronous drain (deterministic back-pressure — no work is dropped,
// reordered, or raced). Commit decisions and the committed sequence are
// made entirely in stage 1, so they are bit-identical to certifying the
// same payload stream one at a time, whatever the queue does and wherever
// run boundaries fall; the tests/batching_test.cpp differential suite
// holds the path to that against the cert::certifier oracle.
#ifndef DBSM_CORE_PIPELINE_HPP
#define DBSM_CORE_PIPELINE_HPP

#include <cstdint>
#include <deque>
#include <functional>

#include "cert/txn_codec.hpp"

namespace dbsm::core {

class commit_pipeline {
 public:
  /// One certified delivery awaiting install: the unmarshaled payload and
  /// its certification verdict. Read-only broadcasts queue too (their
  /// origin-side finish must keep its delivery-order slot relative to the
  /// installs around it).
  struct item {
    cert::txn_payload txn;
    bool commit = false;
    bool read_only = false;
  };

  /// `capacity` bounds the queued items; 0 means unbounded (never
  /// back-pressures).
  explicit commit_pipeline(std::size_t capacity) : capacity_(capacity) {}

  /// At capacity? The caller must drain() before the next push.
  bool full() const { return capacity_ != 0 && q_.size() >= capacity_; }

  /// False when the queue was at capacity — the caller must drain() first
  /// (the item is NOT queued; probe full() before moving one in).
  bool push(item it) {
    if (full()) return false;
    q_.push_back(std::move(it));
    ++enqueued_;
    if (q_.size() > high_water_) high_water_ = q_.size();
    return true;
  }

  /// Drains every queued item through `sink` in FIFO (delivery) order;
  /// returns how many were drained. Items pushed by the sink itself are
  /// drained too (the loop re-reads the queue).
  std::size_t drain(const std::function<void(item&)>& sink) {
    std::size_t n = 0;
    while (!q_.empty()) {
      item it = std::move(q_.front());
      q_.pop_front();
      ++n;
      ++drained_;
      sink(it);
    }
    return n;
  }

  std::size_t size() const { return q_.size(); }
  bool empty() const { return q_.empty(); }
  std::size_t capacity() const { return capacity_; }

  // --- probes (batching_test + bench assertions) ---
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t drained() const { return drained_; }
  std::size_t high_water() const { return high_water_; }

 private:
  std::deque<item> q_;
  std::size_t capacity_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t drained_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace dbsm::core

#endif  // DBSM_CORE_PIPELINE_HPP
