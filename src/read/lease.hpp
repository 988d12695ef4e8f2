// Local read-only fast path: epoch leases (ROADMAP *Read path*; design after
// *Invalidation-Based Protocols for Replicated Datastores*).
//
// A lease is a per-site permission to serve read-only transactions from
// the local committed prefix without a broadcast. It is granted along the
// delivery stream (at every view install, and at cluster start for the
// initial view) and revoked by the events that could make local reads
// unserializable:
//
//   - view change     — the old view's lease dies with the view; the
//                       install itself re-grants (the agreed cut is
//                       uniform by flush consensus).
//   - suspicion       — the local failure detector suspects a member: we
//                       may be on the minority side of a partition, so
//                       the lease is suspended until a completed
//                       stability round (gcs uniform watermark advance)
//                       proves full-membership connectivity again.
//   - exclusion       — this site was voted out; permanent until the
//                       merged view re-grants after recovery.
//
// The lease is the protocol-level invalidation story; the actual safety
// anchor of the fast path is the gcs uniform-delivered watermark (reads
// are served AT the agreed epoch, never ahead of it — see
// read::snapshot_manager and docs/ARCHITECTURE.md).
#ifndef DBSM_READ_LEASE_HPP
#define DBSM_READ_LEASE_HPP

#include <cstdint>

#include "util/types.hpp"

namespace dbsm::read {

/// How the replica terminates read-only transactions.
enum class mode : std::uint8_t {
  off = 0,        // historical path: local certification, no broadcast
  certified = 1,  // all-certified baseline: RO txns broadcast through
                  // total order and certify at their delivery point
  fast = 2,       // lease-guarded snapshot reads; stale lease or
                  // placement miss falls back to the certified path
};

const char* mode_name(mode m);

struct read_config {
  mode path = mode::off;
};

/// Modeled CPU cost of a fast-path snapshot read (version lookup on the
/// local committed prefix — no certification, no broadcast).
constexpr sim_duration fast_read_cost = microseconds(5);

enum class revoke_reason : std::uint8_t {
  view_change = 0,
  suspicion = 1,
  exclusion = 2,
};

class lease {
 public:
  /// Grants (or re-grants) the lease for `view_id`. A grant for a newer
  /// view than the one held counts as a view-change revocation of the
  /// old lease.
  void grant(std::uint32_t view_id);

  void revoke(revoke_reason r);

  /// The gcs uniform watermark advanced: a stability round completed with
  /// every view member voting, so a suspicion-suspended lease re-arms
  /// (exclusion stays revoked until the merged view re-grants).
  void on_uniform_advance();

  bool valid() const { return held_ && !suspended_; }
  bool suspended() const { return held_ && suspended_; }
  std::uint32_t view() const { return view_; }
  std::uint64_t revocations() const { return revocations_; }

 private:
  bool held_ = false;
  bool suspended_ = false;  // suspicion episode in progress
  std::uint32_t view_ = 0;
  std::uint64_t revocations_ = 0;
};

}  // namespace dbsm::read

#endif  // DBSM_READ_LEASE_HPP
