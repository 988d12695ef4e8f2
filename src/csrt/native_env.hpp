// env bridge onto the native OS (§2.3): the same protocol code that runs
// under the simulation runs here over real UDP sockets and OS timers —
// the paper's second implementation of the abstraction layer (its Java
// version used java.util.Timer, java.lang.System and DatagramSocket).
//
// Each native_env owns one UDP socket bound to 127.0.0.1:(base_port+node)
// and a single-threaded poll loop; peers map node ids to ports. Multicast
// falls back to unicast fan-out, which is also what the paper's protocol
// does outside multicast-capable LANs.
#ifndef DBSM_CSRT_NATIVE_ENV_HPP
#define DBSM_CSRT_NATIVE_ENV_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

#include "csrt/env.hpp"

namespace dbsm::csrt {

class native_env final : public env {
 public:
  struct config {
    node_id self = 0;
    std::vector<node_id> peers;   // includes self
    std::uint16_t base_port = 28500;
  };

  /// Largest datagram sent over the sockets (one Ethernet frame's worth).
  static constexpr std::size_t max_datagram_bytes = 1400;

  native_env(config cfg, util::rng rng);
  ~native_env() override;

  native_env(const native_env&) = delete;
  native_env& operator=(const native_env&) = delete;

  // --- env interface ---
  node_id self() const override { return cfg_.self; }
  const std::vector<node_id>& peers() const override { return cfg_.peers; }
  sim_time now() override;
  timer_id set_timer(sim_duration d, std::function<void()> fn) override;
  bool cancel_timer(timer_id id) override;
  void send(node_id to, util::shared_bytes msg) override;
  void multicast(util::shared_bytes msg) override;
  void charge(sim_duration) override {}  // real execution needs no model
  void set_handler(msg_handler h) override;
  void post(std::function<void()> fn) override;  // thread-safe
  util::rng& random() override { return rng_; }
  std::size_t max_datagram() const override { return max_datagram_bytes; }

  // --- loop control ---

  /// Runs the event loop on the calling thread until stop() is called.
  void run();

  /// Requests run() to return; callable from any thread.
  void stop();

 private:
  struct timer_entry {
    sim_time at;
    timer_id id;
    bool operator<(const timer_entry& o) const { return at > o.at; }
  };

  void send_to_port(std::uint16_t port, const util::bytes& payload);
  void fire_due_timers();
  int poll_timeout_ms() const;
  void drain_posted();
  void wake();

  config cfg_;
  util::rng rng_;
  msg_handler handler_;

  int sock_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<bool> stop_{false};
  std::int64_t start_mono_ = 0;

  timer_id next_timer_ = 1;
  std::priority_queue<timer_entry> timer_heap_;
  std::map<timer_id, std::function<void()>> timer_fns_;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace dbsm::csrt

#endif  // DBSM_CSRT_NATIVE_ENV_HPP
