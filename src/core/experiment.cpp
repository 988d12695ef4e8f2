#include "core/experiment.hpp"

#include <memory>

#include "tpcc/tpcc_workload.hpp"
#include "util/check.hpp"
#include "workload/client.hpp"

namespace dbsm::core {

experiment_result run_experiment(const experiment_config& cfg) {
  DBSM_CHECK(cfg.clients >= 1);

  // The only workload-specific line in the harness: a null factory means
  // "the paper's TPC-C workload from cfg.profile" (config-compatible with
  // the pre-seam API). Everything below is workload-agnostic.
  std::unique_ptr<workload> wl =
      cfg.workload ? cfg.workload() : tpcc::make_workload(cfg.profile);
  DBSM_CHECK(wl != nullptr);

  const unsigned total_sites =
      cfg.sites + (cfg.dedicated_sequencer ? 1 : 0);
  cluster::config ccfg;
  ccfg.sites = total_sites;
  ccfg.cpus_per_site = cfg.cpus_per_site;
  ccfg.replica_cfg = cfg.replica_cfg;
  ccfg.replica_cfg.placement =
      place::placement::make(cfg.placement, total_sites);
  // Placement-aligned certification sharding: when the data placement is
  // partial and certification is sharded, derive the shard of every id
  // from its granule's primary replica, so index partitions are congruent
  // with the storage partitioning. Decision-invariant (the map only
  // re-partitions the index); an explicitly configured map wins.
  if (!ccfg.replica_cfg.placement.is_full() &&
      ccfg.replica_cfg.cert.shards > 1 && !ccfg.replica_cfg.cert.shard_map) {
    const place::placement resolved = ccfg.replica_cfg.placement;
    ccfg.replica_cfg.cert.shard_map = [resolved](db::item_id id,
                                                 std::size_t shards) {
      return static_cast<std::size_t>(resolved.primary(id)) % shards;
    };
  }
  ccfg.gcs = cfg.gcs;
  ccfg.gcs.enable_recovery = ccfg.gcs.enable_recovery || cfg.enable_recovery;
  ccfg.costs = cfg.costs;
  ccfg.lan = cfg.lan;
  ccfg.use_wan = cfg.use_wan;
  ccfg.wan = cfg.wan;
  ccfg.measure_real_time = cfg.measure_real_time;
  ccfg.seed = cfg.seed;
  cluster c(ccfg);

  util::rng root(cfg.seed);

  // Shared workload state (e.g. one generator per site, shared by the
  // site's clients).
  wl->prepare(total_sites, cfg.clients, root);

  experiment_result result;
  result.stats = txn_stats(wl->classes());
  result.workload_name = wl->name();
  for (db::txn_class cls = 0;
       cls < static_cast<db::txn_class>(wl->classes()); ++cls) {
    result.class_names.emplace_back(wl->class_name(cls));
    result.class_is_update.push_back(wl->is_update_class(cls));
  }
  std::uint64_t responses = 0;
  struct site_counters {
    std::uint64_t commits = 0;
    std::uint64_t responses = 0;
  };
  std::vector<site_counters> by_site(total_sites);

  std::vector<std::unique_ptr<client>> clients;
  std::vector<std::vector<client*>> site_clients(total_sites);
  const double think_mean = wl->mean_think_seconds();
  util::rng stagger = root.fork("stagger");

  const unsigned first_client_site = cfg.dedicated_sequencer ? 1 : 0;
  for (unsigned i = 0; i < cfg.clients; ++i) {
    const unsigned site = first_client_site + i % cfg.sites;
    // Route through the cluster at submit time: a site's replica object is
    // rebuilt when it restarts, so no reference may be captured here.
    auto submit = [&c, site](db::txn_request req,
                             std::function<void(db::txn_outcome)> done) {
      c.site(site).submit(std::move(req), std::move(done));
    };
    auto report = [&result, &responses, &by_site, site, &c,
                   &cfg](const client::result& r) {
      result.stats.record(r.cls, r.outcome, r.submitted, r.finished);
      ++responses;
      ++by_site[site].responses;
      if (r.outcome == db::txn_outcome::committed) ++by_site[site].commits;
      if (cfg.target_responses != 0 && responses >= cfg.target_responses)
        c.sim().stop();
    };
    client_slot slot;
    slot.site = site;
    slot.index = i;
    slot.total_clients = cfg.clients;
    clients.push_back(std::make_unique<client>(
        c.sim(),
        wl->make_source(slot, root.fork("source" + std::to_string(i))),
        submit, report, root.fork("client" + std::to_string(i))));
    site_clients[site].push_back(clients.back().get());
  }

  // Install the fault scenario against this cluster's injection points:
  // whole-run faults arm now (before the protocol stacks start), timed
  // windows go onto the simulator timeline. Crashing a site also stops
  // its clients.
  fault::injection_points pts;
  pts.net = &c.network();
  for (unsigned i = 0; i < total_sites; ++i) pts.envs.push_back(&c.env(i));
  pts.crash = [&c, &site_clients](unsigned site) {
    c.crash_site(site);
    for (client* cl : site_clients[site]) cl->stop();
  };
  if (ccfg.gcs.enable_recovery) {
    // The recover hook restarts the site's stack; its clients stay
    // stopped until the rejoin completes, then resume issuing (their
    // commits land in the same stats as everyone else's).
    pts.recover = [&c, &site_clients](unsigned site) {
      for (client* cl : site_clients[site]) cl->stop();
      c.recover_site(site, [&site_clients](unsigned s) {
        for (client* cl : site_clients[s]) cl->resume();
      });
    };
  }
  cfg.faults.install(c.sim(), std::move(pts));

  // Online invariant monitors: a passive observer of the protocol event
  // stream (no simulator work, no randomness — the run is bit-identical
  // with monitors on or off). A violation stops the simulation so the run
  // ends at the offending event.
  std::unique_ptr<check::checker> checker;
  if (cfg.checks.enabled) {
    checker = check::checker::standard(cfg.checks, total_sites,
                                       ccfg.replica_cfg.cert,
                                       ccfg.replica_cfg.placement);
    checker->set_halt([&c] { c.sim().stop(); });
    cluster::observer obs;
    check::checker* ck = checker.get();
    obs.on_decision = [ck, &c](unsigned site, const cert::txn_payload& txn,
                               std::uint64_t seq, bool commit,
                               std::uint64_t len) {
      ck->decision({site, seq, &txn, commit, len, c.sim().now()});
    };
    obs.on_apply = [ck, &c](unsigned site, const cert::txn_payload& txn,
                            std::uint64_t seq,
                            const std::vector<db::item_id>& slice,
                            std::uint64_t durable_bytes) {
      ck->applied({site, seq, &txn, &slice, durable_bytes, c.sim().now()});
    };
    obs.on_view = [ck, &c](unsigned site, const gcs::view& v,
                           std::uint64_t delivered) {
      ck->view_installed({site, v, delivered, c.sim().now()});
    };
    obs.on_excluded = [ck, &c](unsigned site) {
      ck->excluded({site, c.sim().now()});
    };
    obs.on_log_reset = [ck, &c](unsigned site,
                                const std::vector<std::uint64_t>& log) {
      ck->log_reset({site, &log, c.sim().now()});
    };
    obs.on_recovery_start = [ck, &c](unsigned site) {
      ck->recovery_started({site, c.sim().now()});
    };
    obs.on_rejoined = [ck, &c](unsigned site, std::uint64_t len) {
      ck->rejoined({site, len, c.sim().now()});
    };
    obs.on_read = [ck, &c](unsigned site, bool fast, std::uint64_t epoch,
                           std::uint64_t log_len,
                           std::uint64_t last_commit_id) {
      ck->read({site, fast, epoch, log_len, last_commit_id, c.sim().now()});
    };
    c.set_observer(std::move(obs));
  }

  c.start();
  // Stagger starts uniformly across one mean think time: steady state
  // without a thundering herd.
  for (auto& cl : clients) {
    cl->start(from_seconds(stagger.uniform() * think_mean));
  }

  c.sim().run_until(cfg.max_sim_time);

  // --- gather ---
  result.duration = c.sim().now();
  result.responses = responses;

  const auto operational = c.operational_sites();
  DBSM_CHECK(!operational.empty());
  for (unsigned i : operational) {
    result.cpu_utilization += c.cpu(i).utilization();
    result.protocol_cpu_utilization += c.cpu(i).real_utilization();
    result.disk_utilization += c.site(i).server().disk().utilization();
    for (double v : c.site(i).cert_latency_ms().sorted())
      result.cert_latency_ms.add(v);
    result.commit_logs.push_back(c.site(i).commit_log());
    const auto& rs = c.group(i).rmcast_stats();
    result.naks_sent += rs.naks_sent;
    result.retransmissions += rs.retransmissions;
    result.blocked_episodes += rs.blocked_episodes;
    result.blocked_ms += to_millis(rs.blocked_time);
    result.view_changes = std::max(result.view_changes,
                                   c.group(i).view_changes());
  }
  std::vector<site_log_input> all_site_logs;
  for (unsigned i = 0; i < total_sites; ++i) {
    site_report sr;
    sr.state = c.status(i);
    sr.committed_log = c.site(i).commit_log().size();
    sr.client_commits = by_site[i].commits;
    sr.client_responses = by_site[i].responses;
    sr.disk_utilization = c.site(i).server().disk().utilization();
    sr.applied_update_bytes = c.site(i).applied_update_bytes();
    sr.store_bytes = c.site(i).store().durable_bytes();
    sr.owned_granules = c.site(i).store().owned_granules();
    sr.tracked_granules = c.site(i).store().tracked_granules();
    sr.delivered_payload_bytes = c.site(i).delivered_payload_bytes();
    sr.interested_payload_bytes = c.site(i).interested_payload_bytes();
    sr.join_snapshot_bytes = c.group(i).join_snapshot_bytes();
    sr.join_chunk_bytes = c.group(i).join_chunk_bytes();
    sr.fast_path_reads = c.site(i).fast_path_reads();
    sr.fallback_reads = c.site(i).fallback_reads();
    sr.ro_broadcasts = c.site(i).ro_broadcasts();
    sr.lease_revocations = c.site(i).lease_revocations();
    sr.delivery_runs = c.site(i).delivery_runs();
    sr.run_payloads = c.site(i).run_payloads();
    sr.pipeline_high_water = c.site(i).pipeline_high_water();
    sr.protocol_cpu = c.cpu(i).real_utilization();
    result.sites.push_back(sr);

    site_log_input in;
    in.log = c.site(i).commit_log();
    in.state = sr.state == cluster::site_status::operational
                   ? site_log_input::kind::operational
               : sr.state == cluster::site_status::rejoined
                   ? site_log_input::kind::rejoined
                   : site_log_input::kind::crashed;
    in.reported_committed = sr.committed_log;
    all_site_logs.push_back(std::move(in));
  }
  const double n = static_cast<double>(operational.size());
  result.cpu_utilization /= n;
  result.protocol_cpu_utilization /= n;
  result.disk_utilization /= n;
  if (result.duration > 0) {
    result.network_kbps =
        static_cast<double>(c.network().total_wire_bytes()) / 1024.0 /
        to_seconds(result.duration);
  }
  result.safety = check_commit_logs(all_site_logs, cfg.checks.rejoin_max_lag);
  if (checker) {
    checker->run_end(c.sim().now());
    result.checks = checker->get_report();
  }
  return result;
}

}  // namespace dbsm::core
