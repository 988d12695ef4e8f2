#include "core/replica.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dbsm::core {

namespace {
using db::make_txn_id;
using db::txn_counter;

/// Bound (in transactions) of the certify→install hand-off queue of the
/// delivery path: when full, the install stage drains synchronously
/// before more certifications queue behind it — deterministic
/// back-pressure, never dropped or reordered work.
constexpr std::size_t pipeline_depth = 512;

/// Modeled CPU of marshaling/unmarshaling termination messages.
constexpr sim_duration codec_cost_fixed = microseconds(15);
constexpr double codec_cost_per_byte_ns = 2.0;

/// Per-byte share of codec_cost (delivery charges the fixed share once
/// per run).
sim_duration codec_cost_bytes(std::size_t bytes) {
  return static_cast<sim_duration>(codec_cost_per_byte_ns *
                                   static_cast<double>(bytes));
}

sim_duration codec_cost(std::size_t bytes) {
  return codec_cost_fixed + codec_cost_bytes(bytes);
}
}  // namespace

replica::replica(sim::simulator& sim, csrt::cpu_pool& cpu,
                 csrt::sim_env& env, gcs::group& group, const observer& obs,
                 config cfg, util::rng gen, std::uint64_t first_local_txn)
    : sim_(sim), cpu_(cpu), env_(env), group_(group), obs_(obs), cfg_(cfg),
      server_(sim, cpu, cfg.server, gen.fork("server")),
      cert_(cfg.cert, env.peers().size()), rng_(gen.fork("replica")),
      next_local_txn_(first_local_txn), incarnation_floor_(first_local_txn),
      oldest_live_(first_local_txn + 1), store_(cfg.placement, env.self()),
      pipeline_(pipeline_depth) {}

util::shared_bytes replica::snapshot(node_id for_site) const {
  util::buffer_writer w;
  cert_.snapshot(w);
  w.put_u64(commit_log_.size());
  for (const std::uint64_t id : commit_log_) w.put_u64(id);
  // Only partial placements extend the wire format with the placement
  // stamp and the joiner's granule slice: the full-placement blob stays
  // byte-identical to the pre-placement protocol (both sides agree on
  // the format because they agree on the placement, checked below).
  if (!cfg_.placement.is_full()) {
    cfg_.placement.snapshot(w);
    store_.snapshot_for(w, for_site);
  }
  return w.take();
}

void replica::install_snapshot(util::shared_bytes blob) {
  util::buffer_reader r(std::move(blob));
  cert_.restore(r);
  commit_log_.clear();
  const std::uint64_t n = r.get_u64();
  DBSM_CHECK_MSG(n <= r.remaining() / 8,
                 "replica snapshot: commit log of " << n << " ids");
  commit_log_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) commit_log_.push_back(r.get_u64());
  if (!cfg_.placement.is_full()) {
    const place::placement donor_placement = place::placement::restore(r);
    DBSM_CHECK_MSG(donor_placement == cfg_.placement,
                   "state-transfer placement mismatch: donor "
                       << donor_placement.describe() << " vs joiner "
                       << cfg_.placement.describe());
    store_.restore(r);
  }
  // The transferred log replaces the recorded snapshot history wholesale;
  // rebase at epoch 0 so any watermark resolves to at least this state.
  snapshots_.reset({0, cert_.position(), commit_log_.size(),
                    commit_log_.empty() ? 0 : commit_log_.back()});
  notify(env_, obs_.on_log_reset, commit_log_);
}

void replica::grant_lease(std::uint32_t view_id) {
  if (cfg_.read.path != read::mode::fast) return;
  lease_.grant(view_id);
}

void replica::revoke_lease(read::revoke_reason r) {
  if (cfg_.read.path != read::mode::fast) return;
  if (r == read::revoke_reason::suspicion && !lease_.suspended())
    suspend_watermark_ = group_.uniform_delivered();
  lease_.revoke(r);
}

bool replica::lease_usable() {
  if (lease_.valid()) return true;
  if (lease_.suspended() &&
      group_.uniform_delivered() > suspend_watermark_)
    lease_.on_uniform_advance();
  return lease_.valid();
}

bool replica::stores_read_set(
    const std::vector<db::item_id>& read_set) const {
  for (const db::item_id item : read_set)
    if (!cfg_.placement.stores(env_.self(), item)) return false;
  return true;
}

void replica::start() {
  group_.set_deliver([this](std::vector<gcs::delivery>&& run) {
    on_deliver_batch(std::move(run));
  });
}

void replica::submit(db::txn_request req,
                     std::function<void(db::txn_outcome)> done) {
  if (halted_) return;  // crashed replicas leave their clients blocked
  req.id = make_txn_id(env_.self(), ++next_local_txn_);
  req.origin = env_.self();

  pending_txn p;
  p.begin_pos = cert_.position();  // snapshot at transaction begin
  pending_.emplace(req.id, p);

  const std::uint64_t id = req.id;
  server_.submit(
      std::move(req),
      [this](const db::txn_request& executed) { on_executed(executed); },
      [this, done = std::move(done), id](std::uint64_t,
                                         db::txn_outcome outcome) {
        pending_.erase(id);
        // Step past every finished counter: the oldest live one carries
        // the smallest snapshot, the low water.
        while (oldest_live_ <= next_local_txn_ &&
               !pending_.contains(make_txn_id(env_.self(), oldest_live_)))
          ++oldest_live_;
        if (!halted_ && done) done(outcome);
      });
}

std::uint64_t replica::low_water() const {
  const auto it = pending_.find(make_txn_id(env_.self(), oldest_live_));
  DBSM_CHECK_MSG(it != pending_.end(), "no pending transaction");
  return it->second.begin_pos;
}

void replica::on_executed(const db::txn_request& req) {
  if (halted_) return;  // crashed mid-execution: no termination protocol
  auto it = pending_.find(req.id);
  DBSM_CHECK(it != pending_.end());
  const std::uint64_t begin_pos = it->second.begin_pos;
  const std::uint64_t id = req.id;

  if (req.read_only()) {
    if (cfg_.read.path == read::mode::off) {
      // Read-only transactions terminate locally (§5.1: replication leaves
      // their latency unaffected): certify against the local last-writer
      // index — O(|read_set|) probes, charged via last_cost().
      env_.post([this, id, begin_pos, read_set = req.read_set] {
        env_.charge(codec_cost_fixed);
        const bool ok = cert_.certify_read_only(begin_pos, read_set);
        env_.charge(cert_.last_cost());
        env_.call_out([this, id, ok] {
          if (!server_.active(id)) return;
          if (ok) {
            server_.finish_commit(id);
          } else {
            server_.finish_abort(id);
          }
        });
      });
      return;
    }
    if (cfg_.read.path == read::mode::fast && lease_usable() &&
        stores_read_set(req.read_set)) {
      // Fast path: serve the read AT the agreed (uniform) epoch — the
      // newest committed-prefix version every current member is
      // guaranteed to hold, which can never be rolled back within the
      // view. No certification, no broadcast; the read is serializable at
      // that snapshot point (1SR requires consistency, not freshness).
      env_.post([this, id] {
        env_.charge(read::fast_read_cost);
        const read::snapshot snap =
            snapshots_.at(group_.uniform_delivered());
        ++fast_path_reads_;
        notify(env_, obs_.on_read, true, snap.epoch, snap.log_len,
               snap.last_commit_id);
        env_.call_out([this, id] {
          if (!server_.active(id)) return;
          server_.finish_commit(id);
        });
      });
      return;
    }
    // Certified baseline (read::mode::certified), or a fast-path fallback
    // on a stale lease / placement-interest miss: broadcast the
    // empty-write-set payload through the total order and certify at its
    // delivery point on the origin (all other sites skip it entirely).
    if (cfg_.read.path == read::mode::fast) {
      ++fallback_reads_;
      notify(env_, obs_.on_read, false, 0, 0, 0);
    }
    const cert::txn_payload ro_payload =
        cert::make_payload(req, begin_pos, low_water());
    env_.post([this, id, payload = std::move(ro_payload)] {
      util::shared_bytes wire = cert::encode_txn(payload);
      env_.charge(codec_cost(wire->size()));
      ++ro_broadcasts_;
      auto pit = pending_.find(id);
      if (pit != pending_.end()) pit->second.multicast_at = env_.now();
      group_.broadcast(std::move(wire));
    });
    return;
  }

  // Update transaction: marshal the execution outcome and atomically
  // multicast it to all replicas (distributed termination, §3.3). The low
  // water is taken here, while this transaction is pending, and posted
  // jobs run in order, so the payloads leave with rising low waters.
  const cert::txn_payload payload =
      cert::make_payload(req, begin_pos, low_water());
  env_.post([this, id, payload = std::move(payload)] {
    util::shared_bytes wire = cert::encode_txn(payload);
    env_.charge(codec_cost(wire->size()));
    auto pit = pending_.find(id);
    if (pit != pending_.end()) pit->second.multicast_at = env_.now();
    group_.broadcast(std::move(wire));
  });
}

std::pair<std::size_t, std::size_t> replica::owned_tuple_split(
    const std::vector<db::item_id>& write_set) const {
  std::size_t owned = 0, total = 0;
  for (const db::item_id it : write_set) {
    if (db::is_granule(it)) continue;
    ++total;
    if (cfg_.placement.stores(env_.self(), it)) ++owned;
  }
  return {owned, total};
}

void replica::finish_certified_read(std::uint64_t id, bool ok) {
  if (halted_) return;
  auto it = pending_.find(id);
  if (it != pending_.end() && it->second.multicast_at != 0)
    cert_latency_.add(to_millis(sim_.now() - it->second.multicast_at));
  if (!server_.active(id)) return;
  if (ok) {
    server_.finish_commit(id);
  } else {
    server_.finish_abort(id);
  }
}

void replica::install_decision(const cert::txn_payload& txn, bool commit) {
  if (halted_) return;
  {
    // Transactions of a previous incarnation of this site (issued before a
    // crash/restart, delivered or replayed after) have no pending entry to
    // finish: they apply like remote work below.
    if (txn.origin == env_.self() &&
        txn_counter(txn.id) > incarnation_floor_) {
      auto it = pending_.find(txn.id);
      if (it != pending_.end() && it->second.multicast_at != 0) {
        cert_latency_.add(to_millis(sim_.now() - it->second.multicast_at));
      }
      if (server_.active(txn.id)) {
        if (commit) {
          // The origin makes durable only its placement slice (pro-rated
          // when the workload packed explicit sectors); under a full
          // placement it owns every tuple and writes the whole set.
          const auto [owned, total] = owned_tuple_split(txn.write_set);
          db::txn_request probe;
          probe.write_set = txn.write_set;
          probe.disk_sectors = txn.disk_sectors;
          const std::size_t full_bytes = db::server::disk_write_bytes(probe);
          const std::size_t bytes =
              total != 0 ? full_bytes * owned / total : full_bytes;
          applied_update_bytes_ += bytes;
          server_.finish_commit_bytes(txn.id, bytes);
        } else {
          server_.finish_abort(txn.id);
        }
      } else {
        // The transaction was preempted by a certified remote conflict;
        // certification must have found that same conflict.
        DBSM_CHECK_MSG(!commit,
                       "preempted transaction passed certification");
      }
      return;
    }
    if (commit) {
      // Remotely initiated: acquire locks (preempting local holders),
      // write back, release (§3.1). Under a partial placement only the
      // locally stored slice is applied; a site outside every written
      // granule's replica set skips the transaction entirely — that is
      // the disk/CPU saving partial replication buys (§6).
      db::txn_request req;
      req.id = txn.id;
      req.cls = txn.cls;
      req.origin = txn.origin;
      req.read_set = txn.read_set;
      cfg_.placement.slice(txn.write_set, env_.self(), slice_scratch_);
      if (slice_scratch_.empty()) return;  // not in any replica set
      const auto [owned, total] = owned_tuple_split(txn.write_set);
      if (owned == total) {
        // Whole write set stored here (always, under a full placement).
        req.write_set = txn.write_set;
        req.update_bytes = txn.update_bytes;
        req.disk_sectors = txn.disk_sectors;
      } else {
        req.write_set = slice_scratch_;
        req.update_bytes = static_cast<std::uint32_t>(
            total != 0
                ? static_cast<std::uint64_t>(txn.update_bytes) * owned / total
                : txn.update_bytes);
        req.disk_sectors = static_cast<std::uint16_t>(
            total != 0 ? static_cast<std::size_t>(txn.disk_sectors) * owned /
                             total
                       : txn.disk_sectors);
      }
      applied_update_bytes_ += db::server::disk_write_bytes(req);
      server_.apply_remote(req, {});
    }
  }
}

void replica::drain_installs() {
  if (halted_) return;
  pipeline_.drain([this](commit_pipeline::item& it) {
    if (it.read_only) {
      finish_certified_read(it.txn.id, it.commit);
    } else {
      install_decision(it.txn, it.commit);
    }
  });
}

void replica::on_deliver_batch(std::vector<gcs::delivery>&& run) {
  if (halted_ || run.empty()) return;
  // Stage 1 — runs as real code in the delivery job: unmarshal and
  // certify the whole run back-to-back against the last-writer index
  // (O(|read_set| + |write_set|) probes per payload; decisions identical
  // to the reference scan certifier at every replica, shard count and run
  // boundary). The charged CPU is amortized over the run: the fixed
  // unmarshal cost once per run, and every update certification after the
  // first pays cert::cost_batch_fixed instead of cost_fixed.
  env_.charge(codec_cost_fixed);
  ++delivery_runs_;
  run_payloads_ += run.size();
  bool first_cert = true;
  for (gcs::delivery& d : run) {
    env_.charge(codec_cost_bytes(d.payload->size()));
    cert::txn_payload txn = cert::decode_txn(d.payload);
    // Every payload raises its origin's low water at every site before
    // anything is certified, so the table follows the delivered order.
    cert_.note_low_water(txn.origin, txn.low_water);

    if (txn.write_set.empty()) {
      // Read-only broadcast (read::mode::certified, or a fast-path
      // fallback). Every site pays delivery + decode, but the decision is
      // local to the origin: no update-order position, no commit-log
      // entry, no apply — certification state is untouched by an empty
      // write set. Its finish keeps its delivery-order slot by queuing
      // through the pipeline like an install.
      delivered_payload_bytes_ += d.payload->size();
      if (txn.origin == env_.self() &&
          txn_counter(txn.id) > incarnation_floor_) {
        const bool ok =
            cert_.certify_read_only(txn.begin_pos, txn.read_set);
        env_.charge(cert_.last_cost());
        if (pipeline_.full()) drain_installs();
        pipeline_.push({std::move(txn), ok, /*read_only=*/true});
      }
      continue;
    }

    const bool commit = cert_.certify_update(
        txn.begin_pos, txn.read_set, txn.write_set,
        /*amortized_fixed=*/!first_cert);
    first_cert = false;
    env_.charge(cert_.last_cost());
    const std::uint64_t pos = cert_.position();
    if (commit) commit_log_.push_back(txn.id);
    notify(env_, obs_.on_decision, txn, pos, commit, commit_log_.size());
    // Version the committed prefix for the fast read path: the snapshot at
    // this delivery's global sequence (pure bookkeeping, gated so the other
    // modes carry no memory cost).
    if (cfg_.read.path == read::mode::fast)
      snapshots_.note_delivery(d.global_seq, pos, commit_log_.size(),
                               commit_log_.empty() ? 0 : commit_log_.back());
    // Placement bookkeeping (pure — no modeled time, no randomness):
    // account the delivered payload against what a placement-aware
    // multicast would have shipped here, and fold committed writes into
    // the granule directory. The store and the observer's slice are not
    // protocol work, so they run off the profiling clock.
    delivered_payload_bytes_ += d.payload->size();
    if (cfg_.placement.interested(env_.self(), txn.write_set))
      interested_payload_bytes_ += d.payload->size();
    if (commit) {
      env_.off_clock([&] {
        store_.apply(txn.write_set, txn.update_bytes);
        if (obs_.on_apply) {
          cfg_.placement.slice(txn.write_set, env_.self(), slice_scratch_);
          notify(env_, obs_.on_apply, txn, pos, slice_scratch_,
                 store_.durable_bytes());
        }
      });
    }
    // Bounded hand-off: a full queue drains synchronously first
    // (deterministic back-pressure), then the push succeeds.
    if (pipeline_.full()) drain_installs();
    pipeline_.push({std::move(txn), commit, /*read_only=*/false});
  }
  // Stage 2 — the installs of this run drain in a deferred job, so the
  // next run's probes (another stage-1 frame) overlap batch n's installs.
  env_.call_out([this] { drain_installs(); });
}

}  // namespace dbsm::core
