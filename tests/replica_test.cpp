// Tests of the replica / distributed termination protocol through the
// cluster wiring: commits reach every site, certification aborts cross-site
// conflicts, remote preemption, and identical commit logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cert/rwset.hpp"
#include "core/cluster.hpp"
#include "csrt/profiler.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_workload.hpp"
#include "util/byte_buffer.hpp"
#include "util/check.hpp"
#include "workload/client.hpp"

namespace dbsm::core {
namespace {

db::txn_request update_txn(db::item_id item, sim_duration cpu_time,
                           std::uint32_t bytes = 200) {
  db::txn_request req;
  req.read_set = {item};
  req.write_set = {item};
  req.update_bytes = bytes;
  db::operation p;
  p.k = db::operation::kind::process;
  p.cpu = cpu_time;
  req.ops = {p};
  return req;
}

db::txn_request read_only_txn(db::item_id item, sim_duration cpu_time) {
  db::txn_request req;
  req.read_set = {item};
  db::operation p;
  p.k = db::operation::kind::process;
  p.cpu = cpu_time;
  req.ops = {p};
  return req;
}

cluster::config small_cluster(unsigned sites) {
  cluster::config cfg;
  cfg.sites = sites;
  cfg.cpus_per_site = 1;
  cfg.seed = 21;
  return cfg;
}

TEST(replica, local_update_commits_and_replicates) {
  cluster c(small_cluster(3));
  c.start();
  db::txn_outcome outcome{};
  bool done = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(0).submit(update_txn(42 << 1, milliseconds(5)),
                     [&](db::txn_outcome o) {
                       outcome = o;
                       done = true;
                     });
  });
  c.sim().run_until(seconds(3));
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, db::txn_outcome::committed);
  // Every site logged the same single commit; remote sites applied it.
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_EQ(c.site(i).commit_log().size(), 1u) << "site " << i;
    EXPECT_EQ(c.site(i).commit_log()[0], c.site(0).commit_log()[0]);
  }
  EXPECT_EQ(c.site(1).server().remote_applied(), 1u);
  EXPECT_EQ(c.site(2).server().remote_applied(), 1u);
  // Remote application wrote to the remote disks (read one / write all).
  EXPECT_GT(c.site(1).server().disk().sectors_written(), 0u);
}

TEST(replica, cross_site_write_conflict_aborts_exactly_one) {
  cluster c(small_cluster(3));
  c.start();
  std::map<db::txn_outcome, int> outcomes;
  int done = 0;
  const db::item_id hot = 7 << 1;
  // Two sites update the same item concurrently: no distributed locking,
  // so both execute; certification aborts the one delivered second.
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(0).submit(update_txn(hot, milliseconds(5)),
                     [&](db::txn_outcome o) {
                       ++outcomes[o];
                       ++done;
                     });
    c.site(1).submit(update_txn(hot, milliseconds(5)),
                     [&](db::txn_outcome o) {
                       ++outcomes[o];
                       ++done;
                     });
  });
  c.sim().run_until(seconds(3));
  ASSERT_EQ(done, 2);
  EXPECT_EQ(outcomes[db::txn_outcome::committed], 1);
  const int aborts = outcomes[db::txn_outcome::aborted_cert] +
                     outcomes[db::txn_outcome::aborted_preempt];
  EXPECT_EQ(aborts, 1);
  // Logs identical and contain exactly the winner.
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_EQ(c.site(i).commit_log().size(), 1u);
}

TEST(replica, sequential_cross_site_updates_both_commit) {
  cluster c(small_cluster(2));
  c.start();
  std::vector<db::txn_outcome> outcomes;
  const db::item_id item = 9 << 1;
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(0).submit(update_txn(item, milliseconds(2)),
                     [&](db::txn_outcome o) { outcomes.push_back(o); });
  });
  c.sim().schedule_at(seconds(1), [&] {
    c.site(1).submit(update_txn(item, milliseconds(2)),
                     [&](db::txn_outcome o) { outcomes.push_back(o); });
  });
  c.sim().run_until(seconds(4));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], db::txn_outcome::committed);
  EXPECT_EQ(outcomes[1], db::txn_outcome::committed);
  for (unsigned i = 0; i < 2; ++i)
    EXPECT_EQ(c.site(i).commit_log().size(), 2u);
}

TEST(replica, read_only_commits_locally_without_multicast) {
  cluster c(small_cluster(3));
  c.start();
  db::txn_outcome outcome{};
  bool done = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(2).submit(read_only_txn(11 << 1, milliseconds(3)),
                     [&](db::txn_outcome o) {
                       outcome = o;
                       done = true;
                     });
  });
  c.sim().run_until(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, db::txn_outcome::committed);
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_TRUE(c.site(i).commit_log().empty());
}

TEST(replica, read_only_scan_aborts_on_concurrent_conflicting_commit) {
  cluster c(small_cluster(2));
  c.start();
  // The read-only transaction performs an escalated scan (granule read);
  // the update writes a tuple inside that granule and advertises it.
  const db::item_id tuple = db::make_item(2, 5, 1, 100);
  const db::item_id granule = db::make_granule(2, 5, 0);
  db::txn_outcome ro_outcome{};
  bool ro_done = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    db::txn_request ro = read_only_txn(granule, milliseconds(200));
    c.site(0).submit(std::move(ro), [&](db::txn_outcome o) {
      ro_outcome = o;
      ro_done = true;
    });
  });
  c.sim().schedule_at(milliseconds(60), [&] {
    db::txn_request up = update_txn(tuple, milliseconds(1));
    up.write_set.push_back(granule);
    cert::normalize(up.write_set);
    c.site(1).submit(std::move(up), [](db::txn_outcome) {});
  });
  c.sim().run_until(seconds(3));
  ASSERT_TRUE(ro_done);
  EXPECT_EQ(ro_outcome, db::txn_outcome::aborted_cert);
}

TEST(replica, read_only_point_reads_never_abort) {
  cluster c(small_cluster(2));
  c.start();
  const db::item_id tuple = db::make_item(2, 5, 1, 100);
  db::txn_outcome ro_outcome{};
  bool ro_done = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(0).submit(read_only_txn(tuple, milliseconds(200)),
                     [&](db::txn_outcome o) {
                       ro_outcome = o;
                       ro_done = true;
                     });
  });
  c.sim().schedule_at(milliseconds(60), [&] {
    // A concurrent committed write of the same tuple: the reader is
    // served from its snapshot version (multi-version engine).
    c.site(1).submit(update_txn(tuple, milliseconds(1)),
                     [](db::txn_outcome) {});
  });
  c.sim().run_until(seconds(3));
  ASSERT_TRUE(ro_done);
  EXPECT_EQ(ro_outcome, db::txn_outcome::committed);
}

TEST(replica, remote_commit_preempts_local_executing_conflict) {
  cluster c(small_cluster(2));
  c.start();
  const db::item_id item = 17 << 1;
  db::txn_outcome slow_outcome{};
  bool slow_done = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    // Long-running local transaction holding the lock at site 0.
    c.site(0).submit(update_txn(item, milliseconds(400)),
                     [&](db::txn_outcome o) {
                       slow_outcome = o;
                       slow_done = true;
                     });
  });
  c.sim().schedule_at(milliseconds(60), [&] {
    // Fast conflicting transaction at site 1 certifies first; its remote
    // application at site 0 preempts the local holder.
    c.site(1).submit(update_txn(item, milliseconds(1)),
                     [](db::txn_outcome) {});
  });
  c.sim().run_until(seconds(3));
  ASSERT_TRUE(slow_done);
  EXPECT_EQ(slow_outcome, db::txn_outcome::aborted_preempt);
  for (unsigned i = 0; i < 2; ++i)
    EXPECT_EQ(c.site(i).commit_log().size(), 1u);
}

TEST(replica, certification_latency_recorded_for_updates) {
  cluster c(small_cluster(3));
  c.start();
  c.sim().schedule_at(milliseconds(50), [&] {
    c.site(0).submit(update_txn(23 << 1, milliseconds(2)),
                     [](db::txn_outcome) {});
  });
  c.sim().run_until(seconds(2));
  ASSERT_EQ(c.site(0).cert_latency_ms().size(), 1u);
  const double ms = c.site(0).cert_latency_ms().sorted()[0];
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 100.0);
}

TEST(replica, low_waters_bound_the_index_under_tpcc) {
  // Every payload carries its origin's low water, so each certifier
  // forgets what no live snapshot can reach: at 60 TPC-C clients the
  // index ends a few hundred ids small although the window (50,000
  // commits) never slid and every commit is still retained.
  cluster c(small_cluster(3));
  std::unique_ptr<workload> wl =
      tpcc::make_workload(tpcc::workload_profile::pentium3_1ghz());
  util::rng root(33);
  wl->prepare(3, 60, root);
  std::vector<std::unique_ptr<client>> clients;
  std::uint64_t responses = 0;
  for (unsigned i = 0; i < 60; ++i) {
    const unsigned site = i % 3;
    clients.push_back(std::make_unique<client>(
        c.sim(),
        wl->make_source({site, i, 60}, root.fork("source" + std::to_string(i))),
        [&c, site](db::txn_request req,
                   std::function<void(db::txn_outcome)> done) {
          c.site(site).submit(std::move(req), std::move(done));
        },
        [&](const client::result&) {
          if (++responses == 3000) c.sim().stop();
        },
        root.fork("client" + std::to_string(i))));
  }
  c.start();
  for (auto& cl : clients) cl->start(0);
  c.sim().run_until(seconds(3600));
  ASSERT_EQ(responses, 3000u);
  for (unsigned i = 0; i < 3; ++i) {
    const cert::sharded_certifier& cert = c.site(i).certifier();
    EXPECT_GT(cert.commits(), 1000u) << "site " << i;
    EXPECT_EQ(cert.history_size(), cert.commits()) << "site " << i;
    EXPECT_LT(cert.index_size(), 4096u) << "site " << i;
    EXPECT_GT(cert.low_water_bound(), 0u) << "site " << i;
  }
}

TEST(replica, halted_replica_never_replies) {
  cluster c(small_cluster(2));
  c.start();
  bool replied = false;
  c.sim().schedule_at(milliseconds(50), [&] {
    c.crash_site(1);
    c.site(1).submit(update_txn(29 << 1, milliseconds(1)),
                     [&](db::txn_outcome) { replied = true; });
  });
  c.sim().run_until(seconds(2));
  EXPECT_FALSE(replied);
}

TEST(replica, corrupt_snapshot_is_rejected_before_allocation) {
  // A donor with a few commits in its log.
  cluster donor(small_cluster(3));
  donor.start();
  for (int i = 0; i < 3; ++i) {
    donor.sim().schedule_at(milliseconds(50 + 200 * i), [&donor, i] {
      donor.site(0).submit(update_txn((60 + i) << 1, milliseconds(5)),
                           [](db::txn_outcome) {});
    });
  }
  donor.sim().run_until(seconds(3));
  const std::size_t log_len = donor.site(0).commit_log().size();
  ASSERT_EQ(log_len, 3u);
  const util::bytes blob = donor.site(0).snapshot(1)->written_out();

  const auto install = [](const util::bytes& b) {
    cluster joiner(small_cluster(3));
    joiner.site(1).install_snapshot(
        std::make_shared<const util::byte_buffer>(b));
  };
  install(blob);  // the intact blob installs
  // Truncated: inside the certification state, at the commit-log count,
  // inside the log.
  const std::size_t count_at = blob.size() - 8 * (log_len + 1);
  for (const std::size_t len : {std::size_t{0}, std::size_t{20}, count_at,
                                count_at + 4, blob.size() - 1}) {
    EXPECT_THROW(install(util::bytes(blob.begin(), blob.begin() + len)),
                 invariant_violation)
        << "cut at " << len;
  }
  // A commit-log count of all ones must not reach reserve().
  util::bytes huge = blob;
  std::fill(huge.begin() + static_cast<std::ptrdiff_t>(count_at),
            huge.begin() + static_cast<std::ptrdiff_t>(count_at + 8), 0xff);
  EXPECT_THROW(install(huge), invariant_violation);
}

TEST(replica, measured_mode_never_charges_observer_cpu) {
  // In measured mode a real-code job is charged its thread CPU time. An
  // observer fired inside the job is not protocol work: burning 1 ms per
  // decision there must leave the charged protocol CPU per decision
  // within noise of a no-op observer (unguarded, it adds the whole 1 ms).
  constexpr sim_duration burn = milliseconds(1);
  auto protocol_ns_per_decision = [](bool burning) {
    cluster::config cfg = small_cluster(3);
    cfg.measure_real_time = true;
    cluster c(cfg);
    std::uint64_t decisions = 0;
    cluster::observer obs;
    obs.on_decision = [&decisions, burning](unsigned,
                                            const cert::txn_payload&,
                                            std::uint64_t, bool,
                                            std::uint64_t) {
      ++decisions;
      if (!burning) return;
      csrt::thread_cpu_profiler clock;
      clock.start();
      while (clock.elapsed() < burn) {
      }
      clock.stop();
    };
    c.set_observer(std::move(obs));
    c.start();
    for (unsigned k = 0; k < 30; ++k) {
      c.sim().schedule_at(milliseconds(50 + 20 * k), [&c, k] {
        c.site(k % 3).submit(update_txn((100 + k) << 1, milliseconds(1)),
                             [](db::txn_outcome) {});
      });
    }
    c.sim().run_until(seconds(3));
    EXPECT_EQ(decisions, 90u);
    double protocol_ns = 0;
    for (unsigned i = 0; i < 3; ++i) {
      protocol_ns += c.cpu(i).real_utilization() *
                     static_cast<double>(c.sim().now());
    }
    return protocol_ns / static_cast<double>(decisions);
  };
  const double quiet = protocol_ns_per_decision(false);
  const double burning = protocol_ns_per_decision(true);
  EXPECT_LT(burning - quiet, static_cast<double>(burn) / 2)
      << "quiet " << quiet << " ns, burning " << burning << " ns per decision";
}

}  // namespace
}  // namespace dbsm::core
