#include "workloads.hpp"

#include <memory>

#include "fault/fault_types.hpp"
#include "workload/kv.hpp"

namespace dbsm::suite {

namespace {

// The paper's testbed (§4.1): 3 sites × 1 CPU, calibrated PIII engine,
// 100 Mbps LAN, RAID write ceiling, TPC-C; fixed sequencer, serial path.
core::experiment_config paper_testbed(std::uint64_t seed) {
  core::experiment_config cfg;
  cfg.sites = 3;
  cfg.cpus_per_site = 1;
  cfg.seed = seed;
  return cfg;
}

// The protocol-bound regime of the ordering and batching ablations: light
// execution and a fast engine, so ordering, codec and certification on the
// sequencer site bind instead of the PIII commit CPU or the RAID.
core::experiment_config ycsb_a(std::uint64_t seed, bool smoke) {
  core::experiment_config cfg = paper_testbed(seed);
  cfg.clients = 1500;
  cfg.target_responses = smoke ? 15000 : 180000;
  kv::kv_config k;
  k.keys = 20000;
  k.preset = kv::mix::ycsb_a;
  k.zipf_theta = 0.5;
  k.value_bytes = 32;
  k.cpu_per_op = util::constant_dist(20e-6);
  k.think_time = util::exponential_dist(0.1);
  cfg.workload = kv::factory(k);
  cfg.replica_cfg.server.commit_cpu = microseconds(200);
  cfg.replica_cfg.server.remote_apply_cpu = microseconds(100);
  cfg.replica_cfg.server.storage.request_latency = microseconds(170);
  return cfg;
}

}  // namespace

const std::vector<workload_def>& workloads() {
  static const std::vector<workload_def> all = {
      // Execution, locks and the RAID bind; gcs and cert changes should
      // leave it unmoved. Most simulator events per transaction.
      {"tpcc_paper", true},
      // Ordering, codec and certification on the sequencer site bind;
      // batching and orderer changes show here.
      {"ycsb_a_protocol", true},
      // The same, charged measured thread-CPU time (§2.3): the only
      // workload where faster certifier or codec code moves tpm and latency.
      {"ycsb_a_measured", false},
      // 95% of transactions bypass gcs and cert through lease reads: gcs
      // and cert gains should not show, reads pushed back onto the
      // broadcast path would.
      {"ycsb_b_fast_reads", true},
      // NAKs, retransmission and flow control bind the tail: the cost of
      // the fault path shows here.
      {"tpcc_bursty_loss", true},
  };
  return all;
}

core::experiment_config make_config(const workload_def& w, std::uint64_t seed,
                                    bool smoke) {
  if (w.name == "tpcc_paper") {
    core::experiment_config cfg = paper_testbed(seed);
    cfg.clients = 1000;
    cfg.target_responses = smoke ? 3000 : 22000;
    return cfg;
  }
  if (w.name == "ycsb_a_protocol") return ycsb_a(seed, smoke);
  if (w.name == "ycsb_a_measured") {
    core::experiment_config cfg = ycsb_a(seed, smoke);
    cfg.measure_real_time = true;
    return cfg;
  }
  if (w.name == "ycsb_b_fast_reads") {
    core::experiment_config cfg = paper_testbed(seed);
    cfg.clients = 360;
    cfg.target_responses = smoke ? 20000 : 480000;
    kv::kv_config k;
    k.keys = 20000;
    k.preset = kv::mix::ycsb_b;
    k.think_time = util::exponential_dist(0.5);
    cfg.workload = kv::factory(k);
    cfg.replica_cfg.read.path = read::mode::fast;
    return cfg;
  }
  // tpcc_bursty_loss: the paper's bursty-loss campaign (sec 5.3) at every
  // receiver for the whole run.
  core::experiment_config cfg = paper_testbed(seed);
  cfg.clients = 1000;
  cfg.target_responses = smoke ? 3000 : 22000;
  cfg.faults.add(fault::loss_fault::bursty(0.05, 5.0));
  cfg.faults.set_name("bursty_loss");
  return cfg;
}

}  // namespace dbsm::suite
