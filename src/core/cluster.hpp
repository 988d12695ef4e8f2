// Builds and wires a replicated database over the simulated LAN: one
// simulator, one network, and per site a CPU pool, env bridge, group
// communication stack and replica (Fig 2's full architecture).
#ifndef DBSM_CORE_CLUSTER_HPP
#define DBSM_CORE_CLUSTER_HPP

#include <memory>
#include <vector>

#include "core/replica.hpp"
#include "csrt/cpu.hpp"
#include "csrt/sim_env.hpp"
#include "gcs/group.hpp"
#include "net/lan.hpp"
#include "net/udp_transport.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"

namespace dbsm::core {

class cluster {
 public:
  struct config {
    unsigned sites = 3;
    unsigned cpus_per_site = 1;
    replica::config replica_cfg;
    gcs::group_config gcs;  // `members` filled automatically
    csrt::net_cost_model costs;
    net::lan_config lan;
    /// Use a wide-area mesh instead of the LAN (unicast fan-out, §3.4).
    bool use_wan = false;
    net::wan_config wan;
    /// Measure real protocol execution with the thread CPU clock instead
    /// of the deterministic cost model (§2.3).
    bool measure_real_time = false;
    double measured_scale = 1.0;
    std::uint64_t seed = 42;
  };

  explicit cluster(config cfg);
  ~cluster();

  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  /// Boots all protocol stacks (group membership, replicas).
  void start();

  sim::simulator& sim() { return sim_; }
  net::medium& network() { return *net_; }
  unsigned sites() const { return cfg_.sites; }

  replica& site(unsigned i) { return *replicas_.at(i); }
  gcs::group& group(unsigned i) { return *groups_.at(i); }
  csrt::cpu_pool& cpu(unsigned i) { return *cpus_.at(i); }
  csrt::sim_env& env(unsigned i) { return *envs_.at(i); }

  /// Crash fault (§5.3): "a node is stopped at the specified time, thus
  /// completely stopping interaction with other nodes."
  void crash_site(unsigned i);
  bool crashed(unsigned i) const {
    return status_.at(i) == site_status::crashed ||
           status_.at(i) == site_status::excluded ||
           status_.at(i) == site_status::recovering;
  }

  /// Where a site stands in the crash/recover life cycle (fault campaigns
  /// report it per site, distinguishing "aborted" from "site was gone").
  enum class site_status : std::uint8_t {
    operational,  // never left (or only transiently partitioned)
    crashed,      // crash-stopped
    excluded,     // alive but voted out of the view: delivery has halted
    recovering,   // restart under way: quiesce, state transfer, rejoin
    rejoined,     // back in the view after a completed state transfer
  };
  site_status status(unsigned i) const { return status_.at(i); }

  /// Membership recovery (requires cfg.gcs.enable_recovery): brings a
  /// crashed or partition-excluded site back. The site's stack is
  /// quiesced, torn down once its CPU drains, rebuilt from scratch, and
  /// started in joining mode; the gcs recovery protocol then transfers
  /// state from the primary partition and merges the site back into the
  /// view. `on_rejoined` fires when the site is live again (e.g. to
  /// resume its clients). Safe to call on a live member too — it is
  /// excluded first, then rejoins (a rolling restart).
  void recover_site(unsigned i, std::function<void(unsigned)> on_rejoined = {});

  std::vector<unsigned> operational_sites() const;

  /// Observation seam for the check layer: passive callbacks fired
  /// synchronously from inside the protocol jobs, with the site's
  /// profiling clock stopped (measured mode never charges them). The
  /// cluster rewires every callback into a site's stack when recovery
  /// rebuilds it, so observers outlive replica/group incarnations.
  /// Callbacks must not schedule simulator work or mutate the observed
  /// objects.
  struct observer {
    /// Certification decision applied at `site` (see
    /// replica::set_decision_observer).
    std::function<void(unsigned site, const cert::txn_payload& txn,
                       std::uint64_t global_seq, bool commit,
                       std::uint64_t log_len)>
        on_decision;
    /// View installed at `site`; `delivered` is the site's delivery count
    /// at the instant of the install (the view-synchrony cut).
    std::function<void(unsigned site, const gcs::view& v,
                       std::uint64_t delivered)>
        on_view;
    /// `site` discovered that a view install excluded it (delivery halts
    /// there until it rejoins through recovery).
    std::function<void(unsigned site)> on_excluded;
    /// Committed update folded into `site`'s store: the write-set slice
    /// the site makes durable under its placement (see
    /// replica::set_apply_observer). Fires right after on_decision for
    /// every commit, at every site.
    std::function<void(unsigned site, const cert::txn_payload& txn,
                       std::uint64_t global_seq,
                       const std::vector<db::item_id>& durable_slice,
                       std::uint64_t durable_bytes)>
        on_apply;
    /// Recovery state transfer replaced `site`'s commit log.
    std::function<void(unsigned site, const std::vector<std::uint64_t>& log)>
        on_log_reset;
    std::function<void(unsigned site)> on_recovery_start;
    /// `site` is live again in the merged view with `log_len` committed.
    std::function<void(unsigned site, std::uint64_t log_len)> on_rejoined;
    /// Read-only transaction terminated on the read path at `site` (see
    /// replica::set_read_observer): fast == true claims the snapshot
    /// (epoch, log_len, last_commit_id) the read was served at.
    std::function<void(unsigned site, bool fast, std::uint64_t epoch,
                       std::uint64_t log_len, std::uint64_t last_commit_id)>
        on_read;
  };
  void set_observer(observer obs);

 private:
  void build_site_stack(unsigned i, bool joining,
                        std::uint64_t first_local_txn, unsigned restart_no);
  void wire_observer(unsigned i);
  /// Calls observer `hook` for site `i` off the site's profiling clock.
  template <class Hook, class... Args>
  void notify(unsigned i, const Hook& hook, const Args&... args) {
    if (hook) envs_[i]->off_clock([&] { hook(i, args...); });
  }
  void finish_recover(unsigned i, std::uint64_t epoch);

  config cfg_;
  sim::simulator sim_;
  std::unique_ptr<net::medium> net_;
  std::vector<std::unique_ptr<csrt::cpu_pool>> cpus_;
  std::vector<std::unique_ptr<net::udp_transport>> transports_;
  std::vector<std::unique_ptr<csrt::sim_env>> envs_;
  std::vector<std::unique_ptr<gcs::group>> groups_;
  std::vector<std::unique_ptr<replica>> replicas_;
  std::vector<site_status> status_;
  /// Bumped by every crash/recover of the site; in-flight recovery steps
  /// carry the epoch they were scheduled under and fizzle when stale.
  std::vector<std::uint64_t> recover_epoch_;
  std::vector<unsigned> restarts_;
  std::vector<std::function<void(unsigned)>> on_rejoined_;
  observer obs_;
};

}  // namespace dbsm::core

#endif  // DBSM_CORE_CLUSTER_HPP
