#include "db/server.hpp"

#include <utility>

#include "util/check.hpp"

namespace dbsm::db {

server::server(sim::simulator& sim, csrt::cpu_pool& cpu, server_config cfg,
               util::rng gen)
    : sim_(sim), cpu_(cpu), cfg_(cfg),
      storage_(sim, cfg.storage, gen.fork("storage")) {}

std::size_t server::disk_write_bytes(const txn_request& req) {
  // The workload computes sector counts (packing sequential inserts);
  // fall back to one single-sector request per written tuple (§3.1:
  // "each request manipulates a single storage sector").
  if (req.disk_sectors != 0) return req.disk_sectors * sector_bytes;
  std::size_t tuples = 0;
  for (item_id it : req.write_set)
    if (!is_granule(it)) ++tuples;
  return tuples * sector_bytes;
}

void server::submit(txn_request req, executed_fn executed, done_fn done) {
  const std::uint64_t id = req.id;
  DBSM_CHECK_MSG(!txns_.count(id), "duplicate txn id " << id);

  active_txn txn;
  txn.req = std::move(req);
  txn.executed = std::move(executed);
  txn.done = std::move(done);
  txn.epoch = next_epoch_++;
  auto [pos, inserted] = txns_.emplace(id, std::move(txn));
  DBSM_CHECK(inserted);

  if (pos->second.req.read_only()) {
    // The policy ignores fetched items: no locks for read-only work.
    start_execution(id);
    return;
  }
  pos->second.req.lock_items_into(lock_scratch_);
  locks_.acquire(
      id, lock_scratch_, /*certified=*/false,
      [this, id] {
        auto it = txns_.find(id);
        if (it == txns_.end()) return;
        it->second.has_locks = true;
        start_execution(id);
      },
      [this, id](lock_abort_cause cause) { on_lock_abort(id, cause); });
}

void server::start_execution(std::uint64_t id) {
  auto it = txns_.find(id);
  DBSM_CHECK(it != txns_.end());
  it->second.st = stage::executing;
  run_ops(id);
}

void server::run_ops(std::uint64_t id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  active_txn& txn = it->second;
  const std::uint64_t epoch = txn.epoch;

  while (txn.next_op < txn.req.ops.size()) {
    const operation& op = txn.req.ops[txn.next_op];
    switch (op.k) {
      case operation::kind::write:
        // Write-back is buffered; the disk is touched at commit.
        ++txn.next_op;
        continue;
      case operation::kind::process:
        txn.cpu_job = cpu_.submit_simulated(op.cpu, [this, id, epoch] {
          auto jt = txns_.find(id);
          if (jt == txns_.end() || jt->second.epoch != epoch) return;
          jt->second.cpu_job = 0;
          ++jt->second.next_op;
          run_ops(id);
        });
        return;
      case operation::kind::fetch:
        storage_.read(op.bytes, [this, id, epoch] {
          auto jt = txns_.find(id);
          if (jt == txns_.end() || jt->second.epoch != epoch) return;
          ++jt->second.next_op;
          run_ops(id);
        });
        return;
    }
  }
  // Commit operation reached: enter the committing stage; the replication
  // layer now runs the distributed termination protocol (§3.1).
  txn.st = stage::committing;
  if (txn.executed) txn.executed(txn.req);
}

void server::on_lock_abort(std::uint64_t id, lock_abort_cause cause) {
  auto it = txns_.find(id);
  DBSM_CHECK(it != txns_.end());
  active_txn& txn = it->second;
  txn.has_locks = false;  // the lock table already dropped them
  txn.epoch = next_epoch_++;  // invalidate in-flight CPU/storage callbacks
  if (txn.cpu_job != 0) {
    cpu_.cancel_simulated(txn.cpu_job);
    txn.cpu_job = 0;
  }
  finish(id, cause == lock_abort_cause::holder_committed
                 ? txn_outcome::aborted_lock
                 : txn_outcome::aborted_preempt);
}

void server::finish(std::uint64_t id, txn_outcome outcome) {
  auto it = txns_.find(id);
  DBSM_CHECK(it != txns_.end());
  done_fn done = std::move(it->second.done);
  txns_.erase(it);
  if (done) done(id, outcome);
}

void server::finish_commit(std::uint64_t id, std::function<void()> applied) {
  auto it = txns_.find(id);
  DBSM_CHECK_MSG(it != txns_.end(), "finish_commit of unknown txn " << id);
  active_txn& txn = it->second;
  DBSM_CHECK(txn.st == stage::committing);

  if (txn.req.read_only()) {
    finish(id, txn_outcome::committed);
    if (applied) applied();
    return;
  }
  finish_commit_bytes(id, disk_write_bytes(txn.req), std::move(applied));
}

void server::finish_commit_bytes(std::uint64_t id, std::size_t disk_bytes,
                                 std::function<void()> applied) {
  auto it = txns_.find(id);
  DBSM_CHECK_MSG(it != txns_.end(), "finish_commit of unknown txn " << id);
  active_txn& txn = it->second;
  DBSM_CHECK(txn.st == stage::committing);
  DBSM_CHECK(!txn.req.read_only());

  txn.st = stage::applying;
  // Past certification the transaction must commit; it can no longer be
  // preempted by remote transactions.
  locks_.mark_certified(id);
  cpu_.submit_simulated(
      cfg_.commit_cpu, [this, id, disk_bytes, applied = std::move(applied)] {
        storage_.write(disk_bytes, [this, id, applied] {
          auto jt = txns_.find(id);
          DBSM_CHECK(jt != txns_.end());
          locks_.release_commit(id);
          finish(id, txn_outcome::committed);
          if (applied) applied();
        });
      });
}

void server::finish_abort(std::uint64_t id) {
  auto it = txns_.find(id);
  DBSM_CHECK_MSG(it != txns_.end(), "finish_abort of unknown txn " << id);
  active_txn& txn = it->second;
  DBSM_CHECK(txn.st == stage::committing);
  if (txn.has_locks) locks_.release_abort(id);
  finish(id, txn_outcome::aborted_cert);
}

void server::apply_remote(const txn_request& req,
                          std::function<void()> applied) {
  const std::uint64_t id = req.id;
  const std::size_t bytes = disk_write_bytes(req);
  req.lock_items_into(lock_scratch_);
  const auto& items = lock_scratch_;

  auto do_apply = [this, id, bytes, applied = std::move(applied),
                   locked = !items.empty()] {
    cpu_.submit_simulated(cfg_.remote_apply_cpu, [this, id, bytes, applied,
                                                  locked] {
      storage_.write(bytes, [this, id, applied, locked] {
        if (locked) locks_.release_commit(id);
        ++remote_applied_;
        if (applied) applied();
      });
    });
  };

  if (items.empty()) {
    do_apply();
    return;
  }
  locks_.acquire(id, items, /*certified=*/true, do_apply,
                 [](lock_abort_cause) {
                   DBSM_CHECK_MSG(false, "certified transaction aborted");
                 });
}

}  // namespace dbsm::db
