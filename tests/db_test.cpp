// Tests of the database server model: storage element, the multi-version
// lock policy (§3.1), and the transaction execution paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "counting_new.hpp"
#include "db/lock_table.hpp"
#include "db/server.hpp"
#include "db/storage.hpp"
#include "sim/simulator.hpp"

namespace dbsm::db {
namespace {

// ---------- storage ----------

TEST(storage, write_throughput_matches_config) {
  sim::simulator s;
  storage_config cfg;  // 4 concurrent, 1.727ms, 4KB sectors
  storage disk(s, cfg, util::rng(1));
  EXPECT_NEAR(cfg.bandwidth_bytes_per_s(), 9.486e6, 0.1e6);

  int done = 0;
  // 100 writes of one sector each.
  for (int i = 0; i < 100; ++i) disk.write(4096, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 100);
  // 100 sectors at 4 concurrent: 25 batches of 1.727ms each.
  EXPECT_NEAR(to_millis(s.now()), 25 * 1.727, 0.5);
  EXPECT_EQ(disk.sectors_written(), 100u);
}

TEST(storage, idle_only_once_no_sector_is_in_service) {
  // A sector in service is no longer queued, but its completion event
  // still points into the disk: only idle() says the disk may go away.
  sim::simulator s;
  storage disk(s, storage_config{}, util::rng(1));
  EXPECT_TRUE(disk.idle());
  bool done = false;
  disk.write(4096, [&] { done = true; });
  EXPECT_FALSE(disk.idle());
  s.run_until(from_micros(1000));
  EXPECT_FALSE(done);
  EXPECT_FALSE(disk.idle());
  s.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(disk.idle());
}

TEST(storage, full_cache_makes_reads_free) {
  sim::simulator s;
  storage_config cfg;
  cfg.cache_hit_ratio = 1.0;
  storage disk(s, cfg, util::rng(1));
  bool done = false;
  disk.read(64 * 1024, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(disk.sectors_read(), 0u);
}

TEST(storage, cache_misses_consume_bandwidth) {
  sim::simulator s;
  storage_config cfg;
  cfg.cache_hit_ratio = 0.0;
  storage disk(s, cfg, util::rng(1));
  bool done = false;
  disk.read(8192, [&] { done = true; });  // 2 sectors
  s.run();
  EXPECT_TRUE(done);
  EXPECT_GT(s.now(), 0);
  EXPECT_EQ(disk.sectors_read(), 2u);
}

TEST(storage, utilization_reflects_busy_slots) {
  sim::simulator s;
  storage_config cfg;
  storage disk(s, cfg, util::rng(1));
  disk.write(4 * 4096, {});  // exactly fills the 4 slots once
  s.run();
  EXPECT_NEAR(disk.utilization(), 1.0, 0.01);
}

// ---------- lock table ----------

struct lock_probe {
  bool granted = false;
  bool aborted = false;
  lock_abort_cause cause = lock_abort_cause::holder_committed;

  lock_table::granted_fn on_grant() {
    return [this] { granted = true; };
  }
  lock_table::aborted_fn on_abort() {
    return [this](lock_abort_cause c) {
      aborted = true;
      cause = c;
    };
  }
};

TEST(lock_table, atomic_grant_when_free) {
  lock_table lt;
  lock_probe p;
  const std::vector<item_id> items{1, 2, 3};
  lt.acquire(10, items, false, p.on_grant(), p.on_abort());
  EXPECT_TRUE(p.granted);
  EXPECT_TRUE(lt.holds(10));
  lt.check_invariants();
}

TEST(lock_table, conflicting_txn_waits) {
  lock_table lt;
  lock_probe a, b;
  lt.acquire(1, std::vector<item_id>{5}, false, a.on_grant(), a.on_abort());
  lt.acquire(2, std::vector<item_id>{5, 6}, false, b.on_grant(),
             b.on_abort());
  EXPECT_TRUE(a.granted);
  EXPECT_FALSE(b.granted);
  EXPECT_TRUE(lt.waiting(2));
  lt.check_invariants();
}

TEST(lock_table, holder_commit_aborts_waiters) {
  // §3.1: "When a transaction commits, all other transactions waiting on
  // the same locks are aborted due to write-write conflicts."
  lock_table lt;
  lock_probe a, b, c;
  lt.acquire(1, std::vector<item_id>{5}, false, a.on_grant(), a.on_abort());
  lt.acquire(2, std::vector<item_id>{5}, false, b.on_grant(), b.on_abort());
  lt.acquire(3, std::vector<item_id>{5}, false, c.on_grant(), c.on_abort());
  lt.release_commit(1);
  EXPECT_TRUE(b.aborted);
  EXPECT_TRUE(c.aborted);
  EXPECT_EQ(b.cause, lock_abort_cause::holder_committed);
  EXPECT_EQ(lt.held_items(), 0u);
  lt.check_invariants();
}

TEST(lock_table, holder_abort_passes_locks_on) {
  // "If the transaction aborts, the locks are released and can be
  // acquired by the next transaction."
  lock_table lt;
  lock_probe a, b;
  lt.acquire(1, std::vector<item_id>{5}, false, a.on_grant(), a.on_abort());
  lt.acquire(2, std::vector<item_id>{5}, false, b.on_grant(), b.on_abort());
  lt.release_abort(1);
  EXPECT_TRUE(b.granted);
  EXPECT_FALSE(b.aborted);
  EXPECT_TRUE(lt.holds(2));
  lt.check_invariants();
}

TEST(lock_table, atomic_acquisition_all_or_nothing) {
  lock_table lt;
  lock_probe a, b;
  lt.acquire(1, std::vector<item_id>{1}, false, a.on_grant(), a.on_abort());
  // txn 2 needs {1,2}: must hold NEITHER while waiting.
  lt.acquire(2, std::vector<item_id>{1, 2}, false, b.on_grant(),
             b.on_abort());
  EXPECT_FALSE(b.granted);
  // item 2 stays free for others.
  lock_probe c;
  lt.acquire(3, std::vector<item_id>{2}, false, c.on_grant(), c.on_abort());
  EXPECT_TRUE(c.granted);
  lt.check_invariants();
}

TEST(lock_table, certified_preempts_uncertified_holder) {
  // §3.1: remote transactions have passed certification and must commit;
  // "local transactions holding the same locks are preempted and aborted
  // right away."
  lock_table lt;
  lock_probe local, remote;
  lt.acquire(1, std::vector<item_id>{7, 8}, false, local.on_grant(),
             local.on_abort());
  EXPECT_TRUE(local.granted);
  lt.acquire(2, std::vector<item_id>{8}, true, remote.on_grant(),
             remote.on_abort());
  EXPECT_TRUE(local.aborted);
  EXPECT_EQ(local.cause, lock_abort_cause::preempted);
  EXPECT_TRUE(remote.granted);
  EXPECT_FALSE(lt.holds(1));
  lt.check_invariants();
}

TEST(lock_table, certified_waits_for_certified) {
  lock_table lt;
  lock_probe r1, r2;
  lt.acquire(1, std::vector<item_id>{7}, true, r1.on_grant(), r1.on_abort());
  lt.acquire(2, std::vector<item_id>{7}, true, r2.on_grant(), r2.on_abort());
  EXPECT_TRUE(r1.granted);
  EXPECT_FALSE(r2.granted);
  EXPECT_FALSE(r2.aborted);
  lt.release_commit(1);
  EXPECT_TRUE(r2.granted);  // certified waiters survive a commit
  lt.check_invariants();
}

TEST(lock_table, certified_beats_older_uncertified_waiter) {
  lock_table lt;
  lock_probe holder, waiter, remote;
  lt.acquire(1, std::vector<item_id>{7}, false, holder.on_grant(),
             holder.on_abort());
  lt.acquire(2, std::vector<item_id>{7}, false, waiter.on_grant(),
             waiter.on_abort());
  lt.acquire(3, std::vector<item_id>{7}, true, remote.on_grant(),
             remote.on_abort());
  // The remote takes the lock (preempting the holder); the uncertified
  // waiter keeps waiting, then aborts when the remote commits.
  EXPECT_TRUE(holder.aborted);
  EXPECT_TRUE(remote.granted);
  EXPECT_FALSE(waiter.granted);
  lt.release_commit(3);
  EXPECT_TRUE(waiter.aborted);
  lt.check_invariants();
}

TEST(lock_table, mark_certified_blocks_preemption) {
  lock_table lt;
  lock_probe local, remote;
  lt.acquire(1, std::vector<item_id>{9}, false, local.on_grant(),
             local.on_abort());
  lt.mark_certified(1);  // local transaction passed certification
  lt.acquire(2, std::vector<item_id>{9}, true, remote.on_grant(),
             remote.on_abort());
  EXPECT_FALSE(local.aborted);
  EXPECT_FALSE(remote.granted);  // queues behind the certified holder
  lt.release_commit(1);
  EXPECT_TRUE(remote.granted);
  lt.check_invariants();
}

TEST(lock_table, wait_queue_fifo_among_uncertified) {
  lock_table lt;
  lock_probe a, b, c;
  lt.acquire(1, std::vector<item_id>{4}, false, a.on_grant(), a.on_abort());
  lt.acquire(2, std::vector<item_id>{4}, false, b.on_grant(), b.on_abort());
  lt.acquire(3, std::vector<item_id>{4}, false, c.on_grant(), c.on_abort());
  lt.release_abort(1);
  EXPECT_TRUE(b.granted);
  EXPECT_FALSE(c.granted);
  lt.check_invariants();
}

// Once the table has seen its peak load, acquiring, waiting, handing a
// lock off and releasing reuse the slots and vectors they left behind.
TEST(lock_table, steady_state_cycles_allocate_nothing) {
  lock_table lt;
  std::vector<item_id> a(8), b(8);
  int granted = 0, aborted = 0;
  const auto on_grant = [&granted] { ++granted; };
  const auto on_abort = [&aborted](lock_abort_cause) { ++aborted; };
  std::uint64_t id = 1;
  // Uncontended: eight fresh items per transaction, granted at once.
  const auto uncontended = [&] {
    for (std::size_t k = 0; k < a.size(); ++k)
      a[k] = static_cast<item_id>((id * a.size() + k) % 4096) << 1;
    lt.acquire(id, a, false, on_grant, on_abort);
    lt.release_commit(id++);
  };
  // Contended: a holder, a waiter that inherits on the holder's abort,
  // and a second waiter that loses to the heir's commit.
  const auto contended = [&] {
    for (std::size_t k = 0; k < a.size(); ++k) {
      a[k] = static_cast<item_id>((id * a.size() + k) % 4096) << 1;
      b[k] = a[k] + 8192;
    }
    b[0] = a[0];
    const std::uint64_t holder = id++, heir = id++, loser = id++;
    lt.acquire(holder, a, false, on_grant, on_abort);
    lt.acquire(heir, a, false, on_grant, on_abort);
    lt.acquire(loser, b, false, on_grant, on_abort);
    lt.release_abort(holder);
    lt.release_commit(heir);
  };
  for (int i = 0; i < 1000; ++i) uncontended();
  for (int i = 0; i < 1000; ++i) contended();

  const std::uint64_t before = counting_new::allocations;
  for (int i = 0; i < 10000; ++i) uncontended();
  const std::uint64_t after_uncontended = counting_new::allocations;
  for (int i = 0; i < 10000; ++i) contended();
  const std::uint64_t after_contended = counting_new::allocations;

  EXPECT_EQ(after_uncontended - before, 0u);
  EXPECT_EQ(after_contended - after_uncontended, 0u);
  EXPECT_EQ(granted, 11000 + 2 * 11000);
  EXPECT_EQ(aborted, 11000);
  EXPECT_EQ(lt.held_items(), 0u);
  lt.check_invariants();
}

// ---------- server ----------

struct server_fixture {
  sim::simulator s;
  csrt::cpu_pool cpu{s, 1};
  server_config cfg;
  std::unique_ptr<server> srv;

  server_fixture() {
    cfg.commit_cpu = milliseconds(2);
    srv = std::make_unique<server>(s, cpu, cfg, util::rng(3));
  }

  static txn_request update_txn(std::uint64_t id, item_id item,
                                sim_duration cpu_time) {
    txn_request req;
    req.id = id;
    req.cls = 0;
    req.read_set = {item};
    req.write_set = {item};
    req.update_bytes = 100;
    operation p;
    p.k = operation::kind::process;
    p.cpu = cpu_time;
    req.ops = {p};
    return req;
  }
};

TEST(server, local_execute_then_commit) {
  server_fixture f;
  bool executed = false;
  txn_outcome outcome{};
  f.srv->submit(
      server_fixture::update_txn(1, 42, milliseconds(5)),
      [&](const txn_request& r) {
        executed = true;
        // Commit point reached: server waits for the termination protocol.
        f.srv->finish_commit(r.id);
      },
      [&](std::uint64_t, txn_outcome o) { outcome = o; });
  f.s.run();
  EXPECT_TRUE(executed);
  EXPECT_EQ(outcome, txn_outcome::committed);
  // exec 5ms + commit 2ms + one sector write 1.727ms.
  EXPECT_NEAR(to_millis(f.s.now()), 8.73, 0.2);
}

TEST(server, certification_abort_releases_locks) {
  server_fixture f;
  txn_outcome o1{}, o2{};
  f.srv->submit(
      server_fixture::update_txn(1, 42, milliseconds(5)),
      [&](const txn_request& r) { f.srv->finish_abort(r.id); },
      [&](std::uint64_t, txn_outcome o) { o1 = o; });
  f.srv->submit(
      server_fixture::update_txn(2, 42, milliseconds(5)),
      [&](const txn_request& r) { f.srv->finish_commit(r.id); },
      [&](std::uint64_t, txn_outcome o) { o2 = o; });
  f.s.run();
  EXPECT_EQ(o1, txn_outcome::aborted_cert);
  EXPECT_EQ(o2, txn_outcome::committed);  // inherited the lock after abort
}

TEST(server, waiter_aborts_when_holder_commits) {
  server_fixture f;
  txn_outcome o2{};
  bool t2_executed = false;
  f.srv->submit(
      server_fixture::update_txn(1, 42, milliseconds(5)),
      [&](const txn_request& r) { f.srv->finish_commit(r.id); },
      [](std::uint64_t, txn_outcome) {});
  f.srv->submit(
      server_fixture::update_txn(2, 42, milliseconds(5)),
      [&](const txn_request&) { t2_executed = true; },
      [&](std::uint64_t, txn_outcome o) { o2 = o; });
  f.s.run();
  EXPECT_FALSE(t2_executed);  // never got the lock
  EXPECT_EQ(o2, txn_outcome::aborted_lock);
}

TEST(server, remote_apply_preempts_executing_local) {
  server_fixture f;
  txn_outcome local_outcome{};
  bool local_executed = false;
  f.srv->submit(
      server_fixture::update_txn(1, 42, milliseconds(50)),
      [&](const txn_request&) { local_executed = true; },
      [&](std::uint64_t, txn_outcome o) { local_outcome = o; });

  bool applied = false;
  f.s.schedule_at(milliseconds(10), [&] {
    f.srv->apply_remote(server_fixture::update_txn(999, 42, 0),
                        [&] { applied = true; });
  });
  f.s.run();
  EXPECT_FALSE(local_executed);
  EXPECT_EQ(local_outcome, txn_outcome::aborted_preempt);
  EXPECT_TRUE(applied);
  EXPECT_EQ(f.srv->remote_applied(), 1u);
}

TEST(server, read_only_skips_locks_and_disk) {
  server_fixture f;
  txn_request ro;
  ro.id = 5;
  operation p;
  p.k = operation::kind::process;
  p.cpu = milliseconds(3);
  ro.ops = {p};
  ro.read_set = {1, 2, 3};

  txn_outcome outcome{};
  f.srv->submit(
      ro, [&](const txn_request& r) { f.srv->finish_commit(r.id); },
      [&](std::uint64_t, txn_outcome o) { outcome = o; });
  f.s.run();
  EXPECT_EQ(outcome, txn_outcome::committed);
  EXPECT_EQ(f.srv->disk().sectors_written(), 0u);
  EXPECT_NEAR(to_millis(f.s.now()), 3.0, 0.1);
}

TEST(server, write_set_granules_do_not_hit_disk_or_locks) {
  server_fixture f;
  txn_request req = server_fixture::update_txn(1, 42, milliseconds(1));
  req.write_set.push_back(granule_of(42));
  txn_outcome outcome{};
  f.srv->submit(
      req, [&](const txn_request& r) { f.srv->finish_commit(r.id); },
      [&](std::uint64_t, txn_outcome o) { outcome = o; });
  f.s.run();
  EXPECT_EQ(outcome, txn_outcome::committed);
  EXPECT_EQ(f.srv->disk().sectors_written(), 1u);  // one real tuple only
}

}  // namespace
}  // namespace dbsm::db
