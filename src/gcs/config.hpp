// Tunables of the group communication prototype (§3.4).
#ifndef DBSM_GCS_CONFIG_HPP
#define DBSM_GCS_CONFIG_HPP

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace dbsm::gcs {

struct group_config {
  /// Static initial membership (node ids on the transport).
  std::vector<node_id> members;

  // --- reliability (window-based, receiver-initiated; §3.4) ---
  sim_duration nak_delay = milliseconds(8);     // gap age before first NAK

  // --- buffering / window flow control ---
  /// Total buffer space for unstable messages; each member may only use
  /// its share (total / |members|) — the fairness rule whose exhaustion
  /// the paper observes under random loss (§5.3). Accounted in message
  /// slots (the dominant constraint for the sequencer, which multicasts
  /// the most messages) with a byte total as a secondary cap.
  std::size_t total_buffer_msgs = 120;
  std::size_t total_buffer_bytes = 256 * 1024;

  // --- stability detection (gossip rounds; §3.4) ---
  sim_duration stability_period = milliseconds(40);

  // --- failure detection / view synchrony ---
  sim_duration suspect_timeout = milliseconds(300);

  /// TESTING ONLY — disables the primary-partition majority rule in
  /// membership, allowing a minority partition to install views and keep
  /// committing (split brain). Exists so the check layer's online
  /// monitors can be shown to catch the resulting violation; never set
  /// in real configurations.
  bool unsafe_no_primary_partition = false;

  // --- total order (fixed sequencer) ---
  /// The sequencer mints one assignment record per batch: up to this many
  /// payloads with consecutive global sequences, closed by this size or
  /// by batch_delay. Delivery hands whole contiguous runs to the
  /// application in one callback either way; 1 mints a record per
  /// payload. (The §3.4 prototype's flush rule: 16 assignments or 500 us.)
  std::size_t batch_max = 16;
  /// Age of the oldest pending payload at which a partial batch closes
  /// anyway (the latency bound of batching).
  sim_duration batch_delay = microseconds(500);

  // --- membership recovery (rejoin with state transfer; gcs/recovery.hpp) ---
  /// Master switch. Off (the default), no join protocol exists: no extra
  /// wire bytes, timers, or state — runs are bit-identical to the
  /// crash-stop protocol the paper evaluates.
  bool enable_recovery = false;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_CONFIG_HPP
