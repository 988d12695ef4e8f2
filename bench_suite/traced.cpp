#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string_view>

#include "cert/sharded_certifier.hpp"
#include "cert/txn_codec.hpp"
#include "common.hpp"
#include "tpcc/tpcc_workload.hpp"
#include "util/check.hpp"
#include "workload/client.hpp"

namespace dbsm::suite {

namespace {

using wall_clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. Sim-clock spans carry
/// simulated nanoseconds; wall-clock spans carry nanoseconds since the
/// traced run began. Spans of one transaction share `txn`.
struct span {
  const char* name;
  bool sim_clock;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index of the enclosing span, -1 for a root
  std::uint64_t txn;
  unsigned site;
};

class span_log {
 public:
  explicit span_log(std::size_t cap) : cap_(cap) {}

  std::int64_t wall_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               wall_clock::now() - origin_)
        .count();
  }

  /// Index of the kept span, or -1 once its name has reached the cap.
  std::int64_t add(const span& s) {
    if (kept_[s.name]++ >= cap_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t idx, std::int64_t end_ns) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }

  /// Chrome trace-event JSON: process 1 is the simulated clock, process 2
  /// the wall clock; the thread is the site.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"sim clock\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
               "\"args\": {\"name\": \"wall clock\"}}",
               f);
    for (const span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"txn\": %llu, \"parent\": %lld}}",
                   s.name, s.sim_clock ? 1 : 2, s.site,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.txn),
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  wall_clock::time_point origin_ = wall_clock::now();
  std::vector<span> spans_;
  std::map<std::string_view, std::size_t> kept_;
  std::uint64_t dropped_ = 0;
};

/// txn_source decorator: times every request the workload generates and
/// tags it with a per-client ordinal that the submit wrapper picks up.
class timed_source final : public core::txn_source {
 public:
  timed_source(std::unique_ptr<core::txn_source> inner, span_log& spans,
               std::vector<double>& next_ns, const core::client_slot& slot)
      : inner_(std::move(inner)), spans_(spans), next_ns_(next_ns),
        slot_(slot) {}

  db::txn_request next(sim_time now) override {
    const std::int64_t t0 = spans_.wall_now();
    db::txn_request req = inner_->next(now);
    const std::int64_t t1 = spans_.wall_now();
    next_ns_.push_back(static_cast<double>(t1 - t0));
    last_txn_ = (static_cast<std::uint64_t>(slot_.index) << 32) | ++issued_;
    spans_.add({"workload.next", false, t0, t1, -1, last_txn_, slot_.site});
    return req;
  }

  double think_seconds(util::rng& gen) override {
    return inner_->think_seconds(gen);
  }

  std::uint64_t last_txn() const { return last_txn_; }

 private:
  std::unique_ptr<core::txn_source> inner_;
  span_log& spans_;
  std::vector<double>& next_ns_;
  core::client_slot slot_;
  std::uint64_t issued_ = 0;
  std::uint64_t last_txn_ = 0;
};

struct captured_decision {
  cert::txn_payload txn;
  bool commit = false;
};

bool same_payload(const cert::txn_payload& a, const cert::txn_payload& b) {
  return a.id == b.id && a.cls == b.cls && a.origin == b.origin &&
         a.begin_pos == b.begin_pos && a.read_set == b.read_set &&
         a.write_set == b.write_set && a.update_bytes == b.update_bytes &&
         a.disk_sectors == b.disk_sectors;
}

double pct(double part, double whole) {
  return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

/// What the simulation leaves for the replay and the report.
struct sim_capture {
  std::map<std::string, double> layer;
  std::vector<captured_decision> stream;
  unsigned stream_site = 0;
  cert::cert_config cert_cfg;
  std::uint64_t responses = 0;
  std::uint64_t events = 0;
  std::uint64_t log_hash = 0;
  std::vector<std::string> failures;
};

/// Builds, runs, gathers and tears down one experiment with the hooks in
/// place; the whole of it is what an untraced run_experiment call costs.
sim_capture simulate(const core::experiment_config& cfg, span_log& spans) {
  sim_capture out;
  // --- the run, assembled exactly as core::run_experiment does ---
  std::unique_ptr<core::workload> wl =
      cfg.workload ? cfg.workload() : tpcc::make_workload(cfg.profile);
  DBSM_CHECK(wl != nullptr);
  const unsigned total_sites = cfg.sites + (cfg.dedicated_sequencer ? 1 : 0);
  core::cluster::config ccfg;
  ccfg.sites = total_sites;
  ccfg.cpus_per_site = cfg.cpus_per_site;
  ccfg.replica_cfg = cfg.replica_cfg;
  ccfg.replica_cfg.placement =
      place::placement::make(cfg.placement, total_sites);
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
  core::cluster c(ccfg);

  util::rng root(cfg.seed);
  wl->prepare(total_sites, cfg.clients, root);
  core::txn_stats stats(wl->classes());
  std::uint64_t responses = 0;
  sim_time last_commit = -1;
  sim_duration max_commit_gap = 0;

  std::vector<double> next_ns;
  std::vector<std::unique_ptr<core::client>> clients;
  std::vector<std::vector<core::client*>> site_clients(total_sites);
  const double think_mean = wl->mean_think_seconds();
  util::rng stagger = root.fork("stagger");
  const unsigned first_client_site = cfg.dedicated_sequencer ? 1 : 0;
  for (unsigned i = 0; i < cfg.clients; ++i) {
    const unsigned site = first_client_site + i % cfg.sites;
    core::client_slot slot;
    slot.site = site;
    slot.index = i;
    slot.total_clients = cfg.clients;
    auto source = std::make_unique<timed_source>(
        wl->make_source(slot, root.fork("source" + std::to_string(i))),
        spans, next_ns, slot);
    const timed_source* src = source.get();
    // Submit/done wrapper: one sim-clock span per answered transaction.
    auto submit = [&c, &spans, site, src](
                      db::txn_request req,
                      std::function<void(db::txn_outcome)> done) {
      const std::uint64_t txn = src->last_txn();
      const sim_time at = c.sim().now();
      c.site(site).submit(
          std::move(req), [&c, &spans, site, txn, at, done = std::move(done)](
                              db::txn_outcome outcome) {
            spans.add({"txn", true, at, c.sim().now(), -1, txn, site});
            done(outcome);
          });
    };
    auto report = [&](const core::client::result& r) {
      stats.record(r.cls, r.outcome, r.submitted, r.finished);
      ++responses;
      if (r.outcome == db::txn_outcome::committed) {
        if (last_commit >= 0)
          max_commit_gap = std::max(max_commit_gap, r.finished - last_commit);
        last_commit = r.finished;
      }
      if (cfg.target_responses != 0 && responses >= cfg.target_responses)
        c.sim().stop();
    };
    clients.push_back(std::make_unique<core::client>(
        c.sim(), std::move(source), submit, report,
        root.fork("client" + std::to_string(i))));
    site_clients[site].push_back(clients.back().get());
  }

  // A site's decision stream is replayable from a fresh certifier only
  // up to the site's first crash or exclusion: a rejoined site certifies
  // from a transferred snapshot.
  std::vector<std::vector<captured_decision>> decided(total_sites);
  std::vector<bool> capture_closed(total_sites, false);

  fault::injection_points pts;
  pts.net = &c.network();
  for (unsigned i = 0; i < total_sites; ++i) pts.envs.push_back(&c.env(i));
  pts.crash = [&c, &site_clients, &capture_closed](unsigned site) {
    capture_closed[site] = true;
    c.crash_site(site);
    for (core::client* cl : site_clients[site]) cl->stop();
  };
  if (ccfg.gcs.enable_recovery) {
    pts.recover = [&c, &site_clients](unsigned site) {
      for (core::client* cl : site_clients[site]) cl->stop();
      c.recover_site(site, [&site_clients](unsigned s) {
        for (core::client* cl : site_clients[s]) cl->resume();
      });
    };
  }
  cfg.faults.install(c.sim(), std::move(pts));

  std::unique_ptr<check::checker> checker;
  if (cfg.checks.enabled) {
    checker = check::checker::standard(cfg.checks, total_sites,
                                       ccfg.replica_cfg.cert,
                                       ccfg.replica_cfg.placement);
    checker->set_halt([&c] { c.sim().stop(); });
  }
  check::checker* ck = checker.get();
  core::cluster::observer obs;
  obs.on_decision = [ck, &c, &decided, &capture_closed](
                        unsigned site, const cert::txn_payload& txn,
                        std::uint64_t seq, bool commit, std::uint64_t len) {
    if (ck) ck->decision({site, seq, &txn, commit, len, c.sim().now()});
    if (!capture_closed[site]) decided[site].push_back({txn, commit});
  };
  obs.on_excluded = [ck, &c, &capture_closed](unsigned site) {
    capture_closed[site] = true;
    if (ck) ck->excluded({site, c.sim().now()});
  };
  if (ck) {
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
  }
  c.set_observer(std::move(obs));

  std::uint64_t sent = 0, dropped = 0;
  c.network().set_tracer(
      [&sent, &dropped](char kind, node_id, node_id, std::size_t, sim_time) {
        if (kind == 's') ++sent;
        if (kind == 'l' || kind == 'o') ++dropped;
      });

  c.start();
  for (auto& cl : clients)
    cl->start(from_seconds(stagger.uniform() * think_mean));
  c.sim().run_until(cfg.max_sim_time);
  out.events = c.sim().executed();
  out.responses = responses;

  // --- gather, from outside each layer ---
  const std::vector<unsigned> operational = c.operational_sites();
  DBSM_CHECK(!operational.empty());
  std::vector<std::vector<std::uint64_t>> logs;
  double cpu_max = 0, proto_max = 0, proto_min = 1, disk_max = 0;
  double naks = 0, retrans = 0, blocked = 0;
  double index_size = 0, history_size = 0;
  for (unsigned i : operational) {
    logs.push_back(c.site(i).commit_log());
    cpu_max = std::max(cpu_max, c.cpu(i).utilization());
    proto_max = std::max(proto_max, c.cpu(i).real_utilization());
    proto_min = std::min(proto_min, c.cpu(i).real_utilization());
    disk_max = std::max(disk_max, c.site(i).server().disk().utilization());
    const auto& rs = c.group(i).rmcast_stats();
    naks += static_cast<double>(rs.naks_sent);
    retrans += static_cast<double>(rs.retransmissions);
    blocked += static_cast<double>(rs.blocked_episodes);
    index_size = std::max(
        index_size, static_cast<double>(c.site(i).certifier().index_size()));
    history_size = std::max(
        history_size,
        static_cast<double>(c.site(i).certifier().history_size()));
  }
  out.log_hash = hash_logs(logs);

  double runs = 0, run_payloads = 0, high_water = 0, ro_bcast = 0;
  double applied = 0;
  for (unsigned i = 0; i < total_sites; ++i) {
    runs += static_cast<double>(c.site(i).delivery_runs());
    run_payloads += static_cast<double>(c.site(i).run_payloads());
    high_water = std::max(
        high_water, static_cast<double>(c.site(i).pipeline_high_water()));
    ro_bcast += static_cast<double>(c.site(i).ro_broadcasts());
    applied += static_cast<double>(c.site(i).applied_update_bytes());
  }

  double committed = 0, lock_aborts = 0, preempt_aborts = 0, ro_responses = 0;
  for (db::txn_class cls = 0;
       cls < static_cast<db::txn_class>(stats.classes()); ++cls) {
    const core::class_stats& s = stats.of(cls);
    committed += static_cast<double>(s.committed);
    lock_aborts += static_cast<double>(s.aborted_lock);
    preempt_aborts += static_cast<double>(s.aborted_preempt);
    if (!wl->is_update_class(cls))
      ro_responses += static_cast<double>(s.total());
  }
  const double resp = static_cast<double>(responses);

  if (checker) {
    checker->run_end(c.sim().now());
    const check::report rep = checker->get_report();
    if (!rep.ok) out.failures.push_back("monitors: " + rep.summary());
  }

  const auto longest = std::max_element(
      decided.begin(), decided.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  out.stream_site = static_cast<unsigned>(longest - decided.begin());
  out.stream = std::move(*longest);
  out.cert_cfg = ccfg.replica_cfg.cert;

  auto& m = out.layer;
  m["sim.events_per_txn"] = static_cast<double>(out.events) / resp;
  m["workload.next_ns_p50"] = median(next_ns);
  m["csrt.cpu_busy_pct_max"] = 100.0 * cpu_max;
  m["csrt.protocol_cpu_pct_max"] = 100.0 * proto_max;
  m["csrt.protocol_cpu_spread"] = proto_max / std::max(proto_min, 1e-9);
  m["net.datagrams_per_commit"] = static_cast<double>(sent) / committed;
  m["net.wire_bytes_per_commit"] =
      static_cast<double>(c.network().total_wire_bytes()) / committed;
  m["net.dropped_datagrams"] = static_cast<double>(dropped);
  m["gcs.naks"] = naks;
  m["gcs.retransmissions"] = retrans;
  m["gcs.blocked_episodes"] = blocked;
  m["gcs.mean_run_len"] = runs == 0 ? 1.0 : run_payloads / runs;
  m["cert.index_size"] = index_size;
  m["cert.history_size"] = history_size;
  m["db.disk_busy_pct_max"] = 100.0 * disk_max;
  m["db.abort_lock_pct"] = pct(lock_aborts, resp);
  m["db.abort_preempt_pct"] = pct(preempt_aborts, resp);
  m["db.applied_bytes_per_commit"] = applied / committed;
  m["core.max_commit_gap_ms"] = to_millis(max_commit_gap);
  m["core.pipeline_high_water"] = high_water;
  m["read.local_pct"] = pct(ro_responses - ro_bcast, ro_responses);
  m["read.ro_broadcasts"] = ro_bcast;
  return out;
}

}  // namespace

traced_outcome run_traced(const core::experiment_config& cfg,
                          const traced_options& opt) {
  span_log spans(opt.span_cap);
  const wall_clock::time_point t0 = wall_clock::now();
  sim_capture cap = simulate(cfg, spans);
  traced_outcome out;
  out.sim_wall_s =
      std::chrono::duration<double>(wall_clock::now() - t0).count();
  out.layer = std::move(cap.layer);
  out.responses = cap.responses;
  out.events = cap.events;
  out.log_hash = cap.log_hash;
  out.failures = std::move(cap.failures);

  // Replay the stream through a fresh certifier, then round-trip every
  // payload through the codec.
  const std::vector<captured_decision>& stream = cap.stream;
  const unsigned site = cap.stream_site;
  if (stream.empty()) out.failures.push_back("no decision was captured");
  std::vector<double> certify_ns, encode_ns, decode_ns;
  double stream_aborts = 0, encoded_bytes = 0;
  std::uint64_t verdict_mismatch = 0, codec_mismatch = 0;
  cert::sharded_certifier fresh(cap.cert_cfg);
  const std::int64_t replay_root =
      spans.add({"cert.replay", false, spans.wall_now(), 0, -1, 0, site});
  for (const captured_decision& d : stream) {
    const std::int64_t t1 = spans.wall_now();
    const bool commit =
        fresh.certify_update(d.txn.begin_pos, d.txn.read_set, d.txn.write_set);
    const std::int64_t t2 = spans.wall_now();
    certify_ns.push_back(static_cast<double>(t2 - t1));
    spans.add({"cert.certify_update", false, t1, t2, replay_root, d.txn.id,
               site});
    if (commit != d.commit) ++verdict_mismatch;
    if (!d.commit) ++stream_aborts;
  }
  spans.close(replay_root, spans.wall_now());

  const std::int64_t codec_root =
      spans.add({"codec.round_trip", false, spans.wall_now(), 0, -1, 0, site});
  for (const captured_decision& d : stream) {
    const std::int64_t t1 = spans.wall_now();
    const util::shared_bytes wire = cert::encode_txn(d.txn);
    const std::int64_t t2 = spans.wall_now();
    const cert::txn_payload back = cert::decode_txn(wire);
    const std::int64_t t3 = spans.wall_now();
    encode_ns.push_back(static_cast<double>(t2 - t1));
    decode_ns.push_back(static_cast<double>(t3 - t2));
    encoded_bytes += static_cast<double>(wire->size());
    spans.add({"codec.encode", false, t1, t2, codec_root, d.txn.id, site});
    spans.add({"codec.decode", false, t2, t3, codec_root, d.txn.id, site});
    if (!same_payload(back, d.txn)) ++codec_mismatch;
  }
  spans.close(codec_root, spans.wall_now());

  if (verdict_mismatch != 0)
    out.failures.push_back("replay: " + std::to_string(verdict_mismatch) +
                           " verdicts differ from the run");
  if (codec_mismatch != 0)
    out.failures.push_back("codec: " + std::to_string(codec_mismatch) +
                           " payloads did not round-trip");
  if (!opt.trace_file.empty() && !spans.write_chrome(opt.trace_file))
    out.failures.push_back("cannot write " + opt.trace_file);

  const double n = static_cast<double>(stream.size());
  out.layer["cert.certify_ns_p50"] = median(certify_ns);
  out.layer["cert.certify_ns_p99"] = quantile(certify_ns, 0.99);
  out.layer["cert.conflict_pct"] = pct(stream_aborts, n);
  out.layer["codec.encode_ns_p50"] = median(encode_ns);
  out.layer["codec.decode_ns_p50"] = median(decode_ns);
  out.layer["codec.bytes_per_txn"] = n == 0 ? 0.0 : encoded_bytes / n;
  return out;
}

std::uint64_t hash_logs(const std::vector<std::vector<std::uint64_t>>& logs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& log : logs) {
    mix(log.size());
    for (const std::uint64_t id : log) mix(id);
  }
  return h;
}

}  // namespace dbsm::suite
