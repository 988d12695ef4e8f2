// Simulated CPUs (§2.2, Fig 1).
//
// A cpu_pool models `n` identical processors fed from a shared queue.
// Two job classes exist:
//   * simulated jobs — transaction-processing slices with a known duration;
//     they are preemptible;
//   * real jobs — executions of real protocol code; their duration is
//     produced by running the code under a profiling clock (or a
//     deterministic cost model). Real jobs have priority and preempt
//     simulated jobs, as in the paper.
// The pool integrates utilization separately for all jobs and for real
// (protocol) jobs, feeding Fig 6(a) and Fig 7(c).
#ifndef DBSM_CSRT_CPU_HPP
#define DBSM_CSRT_CPU_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dbsm::csrt {

/// Handle for cancelling queued or running simulated jobs. 0 is invalid.
using job_id = std::uint64_t;

/// A pool of simulated CPUs with a shared run queue.
class cpu_pool {
 public:
  /// `n` CPUs attached to `sim`.
  cpu_pool(sim::simulator& sim, unsigned n);

  cpu_pool(const cpu_pool&) = delete;
  cpu_pool& operator=(const cpu_pool&) = delete;

  /// Enqueues a simulated job of duration `d`; `done` fires when the job has
  /// consumed `d` nanoseconds of CPU (possibly split by preemption).
  job_id submit_simulated(sim_duration d, std::function<void()> done);

  /// Enqueues a real job. When dispatched, `work` runs immediately (in zero
  /// simulated time) and returns the duration to charge; the CPU is then
  /// held for that long, after which `done` (if any) fires.
  void submit_real(std::function<sim_duration()> work,
                   std::function<void()> done = {});

  /// Cancels a simulated job (queued or running). Its `done` never fires.
  /// Returns false if the job already completed or is unknown.
  bool cancel_simulated(job_id id);

  unsigned size() const { return static_cast<unsigned>(cpus_.size()); }

  /// True when nothing is running or queued — the gate a restarting site
  /// waits on before destroying the objects whose callbacks those jobs
  /// would have invoked.
  bool idle() const {
    if (!real_pending_.empty() || !sim_pending_.empty()) return false;
    for (const cpu_state& c : cpus_)
      if (c.busy) return false;
    return true;
  }

  /// Fraction of total CPU capacity used so far (all job classes).
  double utilization() const { return total_busy_.utilization(sim_.now()); }
  /// Fraction of total CPU capacity used by real (protocol) jobs.
  double real_utilization() const { return real_busy_.utilization(sim_.now()); }
  /// Integrated busy nanoseconds (per-CPU normalized).
  double busy_integral() const { return total_busy_.busy_integral(sim_.now()); }

 private:
  struct pending_job {
    job_id id = 0;  // 0 for real jobs
    bool is_real = false;
    sim_duration remaining = 0;                 // simulated jobs
    std::function<sim_duration()> work;         // real jobs
    std::function<void()> done;
  };

  struct cpu_state {
    bool busy = false;
    bool running_real = false;
    job_id running_id = 0;  // simulated job being served, 0 otherwise
    sim_time end_time = 0;
    sim::event_id completion = 0;
    std::function<void()> done;
  };

  /// Tries to dispatch pending work onto idle CPUs (preempting simulated
  /// jobs for real work when no CPU is idle).
  void dispatch();
  void start_on(unsigned cpu, pending_job job);
  void complete(unsigned cpu);
  void preempt(unsigned cpu);
  int find_idle() const;
  int find_preemptible() const;
  void update_trackers();

  sim::simulator& sim_;
  std::vector<cpu_state> cpus_;
  std::deque<pending_job> real_pending_;
  std::deque<pending_job> sim_pending_;
  job_id next_job_id_ = 1;
  util::utilization_tracker total_busy_;
  util::utilization_tracker real_busy_;
};

}  // namespace dbsm::csrt

#endif  // DBSM_CSRT_CPU_HPP
