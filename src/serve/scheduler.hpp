// Work-stealing job scheduler — many simulations over one thread team.
//
// The paper's SMP finding, turned into a serving architecture: on a
// shared-memory node the win comes from keeping one persistent thread
// team busy rather than re-spawning teams per task.  The scheduler
// multiplexes many independent SimJobs over one hdem::smp::ThreadTeam at
// step-quantum granularity:
//
//   * per-worker double-ended run queues plus a global admission
//     (injector) queue, each guarded by its own mutex held only for O(1)
//     push/pop — quanta are thousands of pair evaluations, so queue locks
//     are far off the critical path (lock-minimal, not lock-free);
//   * owners run their deque front-to-back and requeue unfinished jobs at
//     the back: round-robin time slicing, so a small job behind a large
//     one waits at most (queue length - 1) quanta, never the large job's
//     whole budget;
//   * idle workers first drain the injector (batch arrivals are split
//     into ceil(size/workers) chunks so the deques get deep enough for
//     stealing to matter; interactive arrivals are taken one at a time so
//     they spread maximally), then steal from the *back* of a victim's
//     deque — the job the victim would run last;
//   * interactive jobs are preferred over batch at every dequeue point
//     (own deque, injector, steal), which is what bounds small-job
//     completion latency under a saturating batch load;
//   * completion is reported through std::future/std::promise, carrying
//     the job's private Counters snapshot and the scheduler's per-job
//     accounting (quanta, worker migrations, cost-clock timestamps).
//
// Jobs never share mutable state, so multiplexing cannot move a bit of
// any trajectory; workers hold a trace::Mute around each quantum so
// concurrent jobs do not interleave phases into the process-wide tracer.
//
// The cost clock: every quantum adds the job's measured work delta
// (SimJob::cost_units, a bit-reproducible wall-time proxy) to a global
// atomic.  Benches use it as a deterministic virtual clock — on this
// repo's oversubscribed single-core hosts, wall-clock speedups measure OS
// scheduler skew, so fig14 gates throughput and latency on the real
// schedule's cost accounting and reports wall time alongside (the same
// measured-counts-priced approach as the fig9 shared-window gates).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/counters.hpp"
#include "perf/report.hpp"
#include "serve/job.hpp"
#include "smp/thread_team.hpp"
#include "util/timer.hpp"

namespace hdem::serve {

// What a job's future resolves to.
struct JobResult {
  std::uint64_t job_id = 0;
  DeadlineClass deadline = DeadlineClass::kBatch;
  std::uint64_t steps = 0;        // steps actually run (== spec.steps)
  std::uint64_t cost_units = 0;   // measured work proxy for the whole job
  std::uint64_t quanta = 0;       // scheduler slices the job consumed
  std::uint64_t migrations = 0;   // times the job resumed on a new worker
  // Cost-clock timestamps: global cost units completed at submission and
  // at completion.  (finish_cost - submit_cost) / workers is the job's
  // completion latency in per-worker work units — deterministic where
  // wall time on an oversubscribed host is not.
  std::uint64_t submit_cost = 0;
  std::uint64_t finish_cost = 0;
  double wall_seconds = 0.0;      // submission -> completion wall time
  Counters counters;              // the job's private counter set
  std::string checkpoint_path;    // where the final state streamed, if set
};

// Thread-safe statistics snapshot (perf::serve_line renders the summary).
struct ServeStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;   // jobs whose advance threw (future holds it)
  std::uint64_t quanta = 0;
  std::uint64_t steals = 0;        // acquisitions from another worker's deque
  std::uint64_t cost_units = 0;    // global cost clock
  std::uint64_t advance_ns = 0;    // worker wall ns inside job quanta
  std::uint64_t overhead_ns = 0;   // worker wall ns in queue bookkeeping
  double run_seconds = 0.0;        // wall time spent inside run() so far
  int workers = 1;
  // Per-worker accumulated quantum cost: the measured schedule.  The
  // max/sum ratio is the balance the throughput gate prices.
  std::vector<std::uint64_t> worker_cost_units;
};

// Reduce a stats snapshot to the perf::serve_line summary shape.
inline perf::ServeSummary serve_summary(const ServeStats& s) {
  perf::ServeSummary out;
  out.jobs = s.jobs_completed;
  out.run_seconds = s.run_seconds;
  out.quanta = s.quanta;
  out.steals = s.steals;
  out.cost_units = s.cost_units;
  const double busy = static_cast<double>(s.advance_ns + s.overhead_ns);
  if (busy > 0.0) {
    out.overhead_fraction = static_cast<double>(s.overhead_ns) / busy;
  }
  out.workers = s.workers;
  std::uint64_t max_cost = 0;
  std::uint64_t sum_cost = 0;
  for (std::uint64_t c : s.worker_cost_units) {
    sum_cost += c;
    if (c > max_cost) max_cost = c;
  }
  if (max_cost > 0) {
    out.balance = static_cast<double>(sum_cost) /
                  (static_cast<double>(s.workers) *
                   static_cast<double>(max_cost));
  }
  return out;
}

class Scheduler {
 public:
  struct Options {
    // Steps a job runs per scheduling slice.  Smaller quanta bound the
    // latency a queued interactive job can see behind a running batch
    // quantum; larger quanta amortise queue traffic.
    std::uint64_t quantum_steps = 32;
    // Suppress the global tracer inside job quanta (per-job phase time
    // lives in each job's own counters).
    bool mute_trace = true;
  };

  explicit Scheduler(smp::ThreadTeam& team);
  Scheduler(smp::ThreadTeam& team, Options opt);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Thread-safe; callable before or during run() from any thread.  The
  // returned future resolves when the job completes, or holds the
  // exception its advance threw (the other jobs run on).  Throws after
  // close().
  std::future<JobResult> submit(std::unique_ptr<SimJob> job);

  // Placement hint: enqueue directly on one worker's deque instead of the
  // injector.  Used by tests and benches to construct known-imbalanced
  // initial placements that force the steal path.
  std::future<JobResult> submit_to_worker(int worker,
                                          std::unique_ptr<SimJob> job);

  // Declare the submission stream finished: run() returns once every
  // submitted job has completed.  Idempotent.
  void close();

  // Serve: the calling thread becomes team member 0 and, with the team's
  // workers, processes quanta until close() has been called and all jobs
  // have drained.  Not reentrant; call from one thread at a time.
  void run();

  // Convenience for batch use: close() + run().
  void drain() {
    close();
    run();
  }

  ServeStats stats() const;
  std::uint64_t cost_clock() const {
    return cost_done_.load(std::memory_order_relaxed);
  }
  int workers() const;

 private:
  struct Entry {
    std::unique_ptr<SimJob> job;
    std::promise<JobResult> promise;
    JobResult result;     // accounting filled in as quanta run
    Timer submit_timer;   // wall clock since submission
    int last_worker = -1;
  };

  // One run queue per team member: [0] interactive, [1] batch.  The queues
  // own their entries: a finished entry is destroyed at once, and a
  // scheduler abandoned with jobs still queued breaks their promises
  // (std::future_error), which is the right signal.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::unique_ptr<Entry>> q[2];
    std::atomic<std::uint64_t> cost{0};
  };

  static int cls_index(DeadlineClass c) {
    return c == DeadlineClass::kInteractive ? 0 : 1;
  }

  std::future<JobResult> enqueue(std::unique_ptr<SimJob> job, int worker);
  void worker_loop(int tid);
  std::unique_ptr<Entry> acquire(int tid);
  // Resolve the entry's future (with `error` when its job threw) and free
  // it.
  void finish(std::unique_ptr<Entry> e, std::exception_ptr error);

  smp::ThreadTeam& team_;
  Options opt_;
  std::vector<WorkerQueue> queues_;
  std::mutex inject_mu_;
  std::deque<std::unique_ptr<Entry>> inject_[2];

  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> cost_done_{0};
  std::atomic<std::uint64_t> quanta_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> advance_ns_{0};
  std::atomic<std::uint64_t> overhead_ns_{0};
  std::atomic<std::uint64_t> run_ns_{0};
};

}  // namespace hdem::serve
