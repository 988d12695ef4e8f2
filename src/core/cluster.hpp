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

  /// Observation seam for the check layer (core::observer): replicas
  /// call it directly and the cluster calls it for views, exclusions and
  /// recovery, all with the site's profiling clock stopped. It lives in
  /// the cluster, so it outlives every replica and group incarnation.
  using observer = core::observer;
  void set_observer(observer obs) { obs_ = std::move(obs); }

 private:
  void build_site_stack(unsigned i, bool joining,
                        std::uint64_t first_local_txn, unsigned restart_no);
  void finish_recover(unsigned i, std::uint64_t epoch);

  config cfg_;
  /// Declared before replicas_: every replica incarnation holds a
  /// reference to it.
  observer obs_;
  sim::simulator sim_;
  std::unique_ptr<net::medium> net_;
  std::vector<std::unique_ptr<csrt::cpu_pool>> cpus_;
  std::vector<std::unique_ptr<csrt::sim_env>> envs_;
  std::vector<std::unique_ptr<gcs::group>> groups_;
  std::vector<std::unique_ptr<replica>> replicas_;
  std::vector<site_status> status_;
  /// Bumped by every crash/recover of the site; in-flight recovery steps
  /// carry the epoch they were scheduled under and fizzle when stale.
  std::vector<std::uint64_t> recover_epoch_;
  std::vector<unsigned> restarts_;
  std::vector<std::function<void(unsigned)>> on_rejoined_;
};

}  // namespace dbsm::core

#endif  // DBSM_CORE_CLUSTER_HPP
