#include "csrt/native_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::csrt {

namespace {
std::int64_t mono_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

native_env::native_env(config cfg, util::rng rng)
    : cfg_(std::move(cfg)), rng_(rng) {
  start_mono_ = mono_now_ns();

  sock_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  DBSM_CHECK_MSG(sock_ >= 0, "socket(): " << std::strerror(errno));
  int one = 1;
  ::setsockopt(sock_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(
      static_cast<std::uint16_t>(cfg_.base_port + cfg_.self));
  const int rc =
      ::bind(sock_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  DBSM_CHECK_MSG(rc == 0, "bind(port=" << cfg_.base_port + cfg_.self
                                       << "): " << std::strerror(errno));

  int pipe_fds[2];
  DBSM_CHECK(::pipe(pipe_fds) == 0);
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  ::fcntl(wake_read_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_write_, F_SETFL, O_NONBLOCK);
}

native_env::~native_env() {
  if (sock_ >= 0) ::close(sock_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

sim_time native_env::now() { return mono_now_ns() - start_mono_; }

timer_id native_env::set_timer(sim_duration d, std::function<void()> fn) {
  DBSM_CHECK(d >= 0);
  const timer_id id = next_timer_++;
  timer_heap_.push(timer_entry{now() + d, id});
  timer_fns_.emplace(id, std::move(fn));
  return id;
}

bool native_env::cancel_timer(timer_id id) {
  return timer_fns_.erase(id) > 0;  // heap entry becomes a tombstone
}

void native_env::send_to_port(std::uint16_t port, const util::bytes& payload) {
  sockaddr_in addr = loopback_addr(port);
  const auto n = ::sendto(sock_, payload.data(), payload.size(), 0,
                          reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (n < 0) {
    // UDP is best-effort; a full socket buffer or ICMP-refused peer just
    // looks like message loss to the protocol, which must cope anyway.
    DBSM_LOG(debug, "native_env", "sendto failed: " << std::strerror(errno));
  }
}

void native_env::send(node_id to, util::shared_bytes msg) {
  DBSM_CHECK(msg != nullptr);
  DBSM_CHECK(msg->size() <= max_datagram_bytes);
  send_to_port(static_cast<std::uint16_t>(cfg_.base_port + to),
               msg->written_out());
}

void native_env::multicast(util::shared_bytes msg) {
  DBSM_CHECK(msg != nullptr);
  DBSM_CHECK(msg->size() <= max_datagram_bytes);
  // Self-delivery is the protocol layer's responsibility (matching the
  // simulated LAN's IP-multicast semantics, which exclude the sender).
  const util::bytes wire = msg->written_out();
  for (node_id peer : cfg_.peers) {
    if (peer == cfg_.self) continue;
    send_to_port(static_cast<std::uint16_t>(cfg_.base_port + peer), wire);
  }
}

void native_env::set_handler(msg_handler h) { handler_ = std::move(h); }

void native_env::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void native_env::wake() {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_write_, &b, 1);
}

void native_env::stop() {
  stop_.store(true);
  wake();
}

void native_env::drain_posted() {
  std::vector<std::function<void()>> work;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    work.swap(posted_);
  }
  for (auto& fn : work) fn();
}

void native_env::fire_due_timers() {
  const sim_time t = now();
  while (!timer_heap_.empty() && timer_heap_.top().at <= t) {
    const timer_entry e = timer_heap_.top();
    timer_heap_.pop();
    auto it = timer_fns_.find(e.id);
    if (it == timer_fns_.end()) continue;  // cancelled
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    fn();
  }
}

int native_env::poll_timeout_ms() const {
  // Skip over tombstoned heads so a cancelled timer does not cause a
  // needless early wakeup storm.
  auto heap = timer_heap_;  // cheap: ids only
  while (!heap.empty() && !timer_fns_.count(heap.top().id)) heap.pop();
  if (heap.empty()) return 50;
  const sim_time t = mono_now_ns() - start_mono_;
  const sim_duration d = heap.top().at - t;
  if (d <= 0) return 0;
  const auto ms = d / 1'000'000 + 1;
  return static_cast<int>(ms > 50 ? 50 : ms);
}

void native_env::run() {
  std::vector<std::uint8_t> buf(65536);
  while (!stop_.load()) {
    drain_posted();
    fire_due_timers();
    if (stop_.load()) break;

    pollfd fds[2];
    fds[0] = {sock_, POLLIN, 0};
    fds[1] = {wake_read_, POLLIN, 0};
    const int rc = ::poll(fds, 2, poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      DBSM_CHECK_MSG(false, "poll(): " << std::strerror(errno));
    }
    if (fds[1].revents & POLLIN) {
      char scratch[256];
      while (::read(wake_read_, scratch, sizeof scratch) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) {
      sockaddr_in from{};
      socklen_t from_len = sizeof from;
      const auto n =
          ::recvfrom(sock_, buf.data(), buf.size(), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n > 0 && handler_) {
        const int port = ntohs(from.sin_port);
        const int node = port - static_cast<int>(cfg_.base_port);
        if (node >= 0) {
          auto payload = std::make_shared<const util::byte_buffer>(
              util::bytes(buf.begin(), buf.begin() + n));
          handler_(static_cast<node_id>(node), payload);
        }
      }
    }
  }
}

}  // namespace dbsm::csrt
