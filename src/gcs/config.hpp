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

  /// Maximum payload carried by one DATA datagram; the prototype restricts
  /// packets to a safe size well under the Ethernet MTU (§4.2).
  std::size_t max_fragment = 1024;

  // --- reliability (window-based, receiver-initiated; §3.4) ---
  sim_duration nak_delay = milliseconds(8);     // gap age before first NAK
  sim_duration nak_backoff_max = milliseconds(100);
  std::size_t nak_batch = 64;                   // max seqs per NAK message

  // --- buffering / window flow control ---
  /// Total buffer space for unstable messages; each member may only use
  /// its share (total / |members|) — the fairness rule whose exhaustion
  /// the paper observes under random loss (§5.3). Accounted in message
  /// slots (the dominant constraint for the sequencer, which multicasts
  /// the most messages) with a byte total as a secondary cap.
  std::size_t total_buffer_msgs = 120;
  std::size_t total_buffer_bytes = 256 * 1024;

  // --- rate-based flow control (dissemination phase) ---
  double send_rate_bytes_per_s = 8e6;
  std::size_t send_burst_bytes = 32 * 1024;

  // --- stability detection (gossip rounds; §3.4) ---
  sim_duration stability_period = milliseconds(40);

  // --- failure detection / view synchrony ---
  sim_duration heartbeat_period = milliseconds(20);
  sim_duration suspect_timeout = milliseconds(300);
  /// Miss-count hysteresis: a member is only suspected after this many
  /// consecutive heartbeat intervals with no traffic from it — a single
  /// late arrival (one delayed datagram past suspect_timeout) is not
  /// enough. The default adds no latency over the plain timeout (any
  /// silence longer than suspect_timeout spans well over 3 heartbeat
  /// ticks); raise it to tolerate transient link-delay windows longer
  /// than suspect_timeout without flapping views.
  unsigned suspect_misses = 3;
  sim_duration view_change_retry = milliseconds(500);

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

  /// Deterministic CPU cost charged per handled datagram when real
  /// measurement is off (base protocol processing).
  sim_duration handler_cpu_cost = microseconds(3);

  // --- membership recovery (rejoin with state transfer; gcs/recovery.hpp) ---
  /// Master switch. Off (the default), no join protocol exists: no extra
  /// wire bytes, timers, or state — runs are bit-identical to the
  /// crash-stop protocol the paper evaluates.
  bool enable_recovery = false;
  /// State-transfer chunk payload (must fit the transport datagram limit).
  std::size_t join_chunk_bytes = 32 * 1024;
  /// Retransmission cadence of the join protocol (chunks, forwarded
  /// deliveries, commit message).
  sim_duration join_retry = milliseconds(40);
  /// A join attempt with no progress for this long is abandoned (donor
  /// side) or restarted with a fresh incarnation (joiner side) — a second
  /// failure during transfer must not wedge either end.
  sim_duration join_timeout = seconds(2);
  /// Forwarded-delivery window (go-back-N) during catch-up.
  std::size_t join_fwd_window = 32;
  /// The donor asks membership to merge the joiner in once the joiner's
  /// replay lags the live delivery position by at most this much.
  std::uint64_t join_merge_lag = 16;
};

}  // namespace dbsm::gcs

#endif  // DBSM_GCS_CONFIG_HPP
