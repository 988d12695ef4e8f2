#include "core/cluster.hpp"

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::core {

namespace {
/// How long a recovering site's old stack gets to drain in-flight CPU and
/// disk work before its objects are destroyed (re-checked until idle).
constexpr sim_duration kRecoverSettle = milliseconds(300);
constexpr sim_duration kRecoverRecheck = milliseconds(50);
}  // namespace

cluster::cluster(config cfg) : cfg_(std::move(cfg)) {
  DBSM_CHECK(cfg_.sites >= 1);
  util::rng root(cfg_.seed);
  if (cfg_.use_wan) {
    net_ = std::make_unique<net::wan>(sim_, cfg_.wan, root.fork("wan"));
  } else {
    net_ = std::make_unique<net::lan>(sim_, cfg_.lan, root.fork("lan"));
  }

  std::vector<node_id> members;
  for (unsigned i = 0; i < cfg_.sites; ++i) {
    const node_id id = net_->add_host();
    DBSM_CHECK(id == i);
    members.push_back(id);
  }
  cfg_.gcs.members = members;

  DBSM_CHECK_MSG(cfg_.replica_cfg.placement.is_full() ||
                     cfg_.replica_cfg.placement.sites() == cfg_.sites,
                 "placement built for "
                     << cfg_.replica_cfg.placement.sites()
                     << " sites, cluster has " << cfg_.sites);
  groups_.resize(cfg_.sites);
  replicas_.resize(cfg_.sites);
  for (unsigned i = 0; i < cfg_.sites; ++i) {
    util::rng site_rng = root.fork("site" + std::to_string(i));
    cpus_.push_back(
        std::make_unique<csrt::cpu_pool>(sim_, cfg_.cpus_per_site));

    csrt::sim_env::config env_cfg;
    env_cfg.self = i;
    env_cfg.peers = members;
    env_cfg.costs = cfg_.costs;
    env_cfg.measure_real_time = cfg_.measure_real_time;
    envs_.push_back(std::make_unique<csrt::sim_env>(
        sim_, *cpus_.back(), *net_, env_cfg, site_rng.fork("env")));

    build_site_stack(i, /*joining=*/false, /*first_local_txn=*/0,
                     /*restart_no=*/0);
  }
  status_.assign(cfg_.sites, site_status::operational);
  recover_epoch_.assign(cfg_.sites, 0);
  restarts_.assign(cfg_.sites, 0);
  on_rejoined_.resize(cfg_.sites);
}

cluster::~cluster() = default;

void cluster::build_site_stack(unsigned i, bool joining,
                               std::uint64_t first_local_txn,
                               unsigned restart_no) {
  // A replica holds a reference to its group: destroy in reverse order,
  // construct group first. Restart forks a fresh deterministic rng branch
  // per incarnation so reruns with the same seed stay bit-identical.
  replicas_[i].reset();
  groups_[i].reset();

  util::rng root(cfg_.seed);
  util::rng site_rng = root.fork("site" + std::to_string(i));
  if (restart_no != 0)
    site_rng = site_rng.fork("restart" + std::to_string(restart_no));

  groups_[i] = std::make_unique<gcs::group>(*envs_[i], cfg_.gcs);
  replicas_[i] = std::make_unique<replica>(
      sim_, *cpus_[i], *envs_[i], *groups_[i], obs_, cfg_.replica_cfg,
      site_rng.fork("replica"), first_local_txn);

  if (cfg_.gcs.enable_recovery) {
    groups_[i]->set_state_transfer(
        {[r = replicas_[i].get()](node_id joiner) {
           return r->snapshot(joiner);
         },
         [r = replicas_[i].get()](util::shared_bytes blob) {
           r->install_snapshot(std::move(blob));
         }});
    groups_[i]->set_joined_handler([this, i](const gcs::view&) {
      status_[i] = site_status::rejoined;
      notify(*envs_[i], obs_.on_rejoined, replicas_[i]->commit_log().size());
      if (on_rejoined_[i]) on_rejoined_[i](i);
    });
  }
  // Always wired (not part of the optional observer seam): discovering an
  // exclusion halts the site's delivery, so from here until a recovery
  // brings it back the site counts as down — its commit log may carry a
  // non-uniform orphan suffix the surviving majority discarded, which the
  // end-of-run safety check must not read as a live site's divergence.
  groups_[i]->set_excluded_handler([this, i] {
    if (status_[i] == site_status::operational ||
        status_[i] == site_status::rejoined) {
      status_[i] = site_status::excluded;
    }
    replicas_[i]->revoke_lease(read::revoke_reason::exclusion);
    notify(*envs_[i], obs_.on_excluded);
  });
  // Lease protocol wiring (no-ops unless the fast read path is on): a
  // local suspicion suspends the site's lease until connectivity is
  // proven again; every view install re-grants it (the agreed cut is
  // uniform by flush consensus).
  groups_[i]->set_suspicion_handler([this, i](node_id) {
    replicas_[i]->revoke_lease(read::revoke_reason::suspicion);
  });
  groups_[i]->set_view_handler([this, i](const gcs::view& v) {
    replicas_[i]->grant_lease(v.id);
    notify(*envs_[i], obs_.on_view, v, groups_[i]->delivered_count());
  });
  if (joining) {
    replicas_[i]->start();
    groups_[i]->start_joining();
  }
}

void cluster::start() {
  for (auto& r : replicas_) r->start();
  for (auto& g : groups_) g->start();
  // The initial view (id 1) installs silently inside group construction —
  // no view callback fires — so the initial leases are granted here.
  for (auto& r : replicas_) r->grant_lease(1);
}

void cluster::crash_site(unsigned i) {
  DBSM_CHECK(i < cfg_.sites);
  if (status_[i] == site_status::crashed) return;
  status_[i] = site_status::crashed;
  ++recover_epoch_[i];  // cancels an in-flight recovery of this site
  net_->isolate(i);
  replicas_[i]->halt();
}

void cluster::recover_site(unsigned i,
                           std::function<void(unsigned)> on_rejoined) {
  DBSM_CHECK(i < cfg_.sites);
  DBSM_CHECK_MSG(cfg_.gcs.enable_recovery,
                 "recover_site() requires gcs.enable_recovery");
  const std::uint64_t epoch = ++recover_epoch_[i];
  status_[i] = site_status::recovering;
  on_rejoined_[i] = std::move(on_rejoined);
  notify(*envs_[i], obs_.on_recovery_start);
  DBSM_LOG(info, "core.cluster", "site " << i << " begins recovery");

  // Phase 1 — quiesce: detach the datagram handler, kill every armed
  // protocol timer, halt the replica. In-flight CPU/disk work of the old
  // stack runs to completion against the still-live objects.
  envs_[i]->set_handler({});
  envs_[i]->cancel_all_timers();
  groups_[i]->shutdown();
  replicas_[i]->halt();

  // Phase 2 — once the site's CPU and disk drain, destroy the old stack,
  // rebuild it, reconnect the network, and start the join protocol.
  sim_.schedule_after(kRecoverSettle,
                      [this, i, epoch] { finish_recover(i, epoch); });
}

void cluster::finish_recover(unsigned i, std::uint64_t epoch) {
  if (recover_epoch_[i] != epoch) return;  // crashed again meanwhile
  if (!cpus_[i]->idle() || !replicas_[i]->server().disk().idle()) {
    sim_.schedule_after(kRecoverRecheck,
                        [this, i, epoch] { finish_recover(i, epoch); });
    return;
  }
  // Anything re-armed by straggler jobs since phase 1 dies here, before
  // the objects those callbacks point into are destroyed.
  envs_[i]->cancel_all_timers();
  const std::uint64_t next_txn = replicas_[i]->next_local_txn();
  ++restarts_[i];
  build_site_stack(i, /*joining=*/true, next_txn, restarts_[i]);
  net_->restore(i);
  DBSM_LOG(info, "core.cluster",
           "site " << i << " restarted (incarnation " << restarts_[i]
                   << "), joining");
}

std::vector<unsigned> cluster::operational_sites() const {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < cfg_.sites; ++i)
    if (status_[i] == site_status::operational ||
        status_[i] == site_status::rejoined)
      out.push_back(i);
  return out;
}

}  // namespace dbsm::core
