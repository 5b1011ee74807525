#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/step_loop.hpp"
#include "io/checkpoint.hpp"
#include "trace/tracer.hpp"

namespace hdem {
namespace {

using serve::DeadlineClass;
using serve::JobResult;
using serve::JobSpec;
using serve::Scenario;
using serve::Scheduler;
using serve::SimJob;
using serve::make_job;

struct TempFile {
  std::string path;
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::filesystem::remove(path); }
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Standalone reference: the same spec run to completion on its own (one big
// advance), final state written to spec.checkpoint_path.
std::string standalone_bytes(JobSpec spec, const std::string& path) {
  spec.checkpoint_path = path;
  auto job = make_job(spec);
  job->advance(spec.steps);
  EXPECT_TRUE(job->done());
  return file_bytes(path);
}

JobSpec small_spec(std::uint64_t id, Scenario sc, std::uint64_t n,
                   std::uint64_t steps) {
  JobSpec spec;
  spec.job_id = id;
  spec.scenario = sc;
  spec.n = n;
  spec.steps = steps;
  spec.seed = 9001;
  return spec;
}

TEST(StepLoop, EnforcesBudgetAndReportsProgress) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  auto sim = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 100);
  StepLoop<decltype(sim)> loop(sim, 10);
  EXPECT_EQ(loop.budget(), 10u);
  EXPECT_EQ(loop.advance(4), 4u);
  EXPECT_EQ(loop.done(), 4u);
  EXPECT_EQ(loop.remaining(), 6u);
  EXPECT_FALSE(loop.finished());
  // Over-asking clips to the budget.
  EXPECT_EQ(loop.advance(100), 6u);
  EXPECT_TRUE(loop.finished());
  EXPECT_EQ(loop.advance(1), 0u);
  EXPECT_EQ(sim.counters().iterations, 10u);
}

TEST(StepLoop, DriverRunMatchesSingleAdvance) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 31;
  auto a = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 200);
  auto b = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 200);
  a.run(40);  // run() is a StepLoop wrapper now
  StepLoop<decltype(b)> loop(b, 40);
  while (!loop.finished()) loop.advance(7);  // uneven quanta
  const auto sa = io::snapshot(a);
  const auto sb = io::snapshot(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].pos, sb[i].pos);
    EXPECT_EQ(sa[i].vel, sb[i].vel);
  }
}

TEST(MakeJob, ValidatesSpec) {
  JobSpec bad_dim = small_spec(1, Scenario::kUniform, 10, 1);
  bad_dim.dim = 4;
  EXPECT_THROW(make_job(bad_dim), std::invalid_argument);
  JobSpec bad_threads = small_spec(1, Scenario::kUniform, 10, 1);
  bad_threads.inner_threads = 0;
  EXPECT_THROW(make_job(bad_threads), std::invalid_argument);
  JobSpec bad_n = small_spec(1, Scenario::kUniform, 0, 1);
  EXPECT_THROW(make_job(bad_n), std::invalid_argument);
  EXPECT_THROW(serve::scenario_from_string("nope"), std::invalid_argument);
  EXPECT_THROW(serve::deadline_from_string("nope"), std::invalid_argument);
}

TEST(MakeJob, JobSeedDecorrelatesAndIsStable) {
  // Same trace seed, different jobs -> different effective seeds; the
  // mapping itself is a pure function a standalone re-run can reproduce.
  EXPECT_NE(serve::job_seed(42, 0), serve::job_seed(42, 1));
  EXPECT_EQ(serve::job_seed(42, 7), serve::job_seed(42, 7));
  // Stream 0 must leave the plain Rng(seed) sequence untouched.
  EXPECT_EQ(Rng(42, 0).next_u64(), Rng(42).next_u64());
}

TEST(MakeJob, CheckpointStreamingWritesDuringRun) {
  TempFile f("serve_stream.bin");
  JobSpec spec = small_spec(3, Scenario::kUniform, 200, 24);
  spec.checkpoint_path = f.path;
  spec.checkpoint_every = 8;
  auto job = make_job(spec);
  job->advance(8);
  const auto mid = io::read_checkpoint<2>(f.path);
  EXPECT_EQ(mid.particles.size(), 200u);
  const std::string mid_bytes = file_bytes(f.path);
  job->advance(100);
  EXPECT_TRUE(job->done());
  EXPECT_EQ(job->steps_done(), 24u);
  // The final overwrite must differ from the step-8 snapshot.
  EXPECT_NE(file_bytes(f.path), mid_bytes);
}

// The tentpole invariant: a multiplexed trajectory is bit-identical to the
// same spec run standalone, across team sizes and quanta.
TEST(Scheduler, MultiplexedTrajectoriesBitIdenticalToStandalone) {
  const std::vector<JobSpec> specs = {
      small_spec(0, Scenario::kUniform, 300, 40),
      small_spec(1, Scenario::kClustered, 250, 52),
      small_spec(2, Scenario::kSettled, 200, 36),
      small_spec(3, Scenario::kUniform, 220, 64),
  };
  // References once, standalone.
  std::vector<std::string> ref;
  for (const auto& s : specs) {
    TempFile f("serve_ref_" + std::to_string(s.job_id) + ".bin");
    ref.push_back(standalone_bytes(s, f.path));
  }
  for (const int workers : {1, 2}) {
    for (const std::uint64_t quantum : {std::uint64_t{16}, std::uint64_t{64}}) {
      smp::ThreadTeam team(workers);
      Scheduler sched(team, {.quantum_steps = quantum});
      std::vector<TempFile> files;
      std::vector<std::future<JobResult>> futs;
      for (const auto& s : specs) {
        files.emplace_back("serve_mux_" + std::to_string(workers) + "_" +
                           std::to_string(quantum) + "_" +
                           std::to_string(s.job_id) + ".bin");
        JobSpec spec = s;
        spec.checkpoint_path = files.back().path;
        futs.push_back(sched.submit(make_job(spec)));
      }
      sched.drain();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const JobResult r = futs[i].get();
        EXPECT_EQ(r.job_id, specs[i].job_id);
        EXPECT_EQ(r.steps, specs[i].steps);
        EXPECT_EQ(r.cost_units,
                  r.counters.force_evals + r.counters.position_updates);
        EXPECT_EQ(file_bytes(files[i].path), ref[i])
            << "job " << i << " diverged at workers=" << workers
            << " quantum=" << quantum;
      }
      const auto stats = sched.stats();
      EXPECT_EQ(stats.jobs_completed, specs.size());
      EXPECT_EQ(stats.workers, workers);
    }
  }
}

// A job whose checkpoint cannot be written fails its own future with the
// I/O error; the worker carries on, and every other job finishes with a
// checkpoint byte-identical to a fault-free run.
TEST(Scheduler, FailingJobFailsOnlyItsOwnFuture) {
  const std::vector<JobSpec> specs = {
      small_spec(0, Scenario::kUniform, 300, 40),
      small_spec(1, Scenario::kClustered, 250, 52),
      small_spec(2, Scenario::kSettled, 200, 36),
  };
  std::vector<std::string> ref;
  for (const auto& s : specs) {
    TempFile f("serve_fail_ref_" + std::to_string(s.job_id) + ".bin");
    ref.push_back(standalone_bytes(s, f.path));
  }
  const std::string missing_dir = "serve_fail_missing_dir";
  std::filesystem::remove_all(missing_dir);
  for (const int workers : {1, 2}) {
    smp::ThreadTeam team(workers);
    Scheduler sched(team, {.quantum_steps = 16});
    std::vector<TempFile> files;
    std::vector<std::future<JobResult>> futs;
    std::future<JobResult> bad_fut;
    for (const auto& s : specs) {
      if (s.job_id == 1) {
        JobSpec bad = small_spec(7, Scenario::kUniform, 200, 30);
        bad.checkpoint_path = missing_dir + "/job.bin";
        bad.checkpoint_every = 8;
        bad_fut = sched.submit(make_job(bad));
      }
      files.emplace_back("serve_fail_" + std::to_string(workers) + "_" +
                         std::to_string(s.job_id) + ".bin");
      JobSpec spec = s;
      spec.checkpoint_path = files.back().path;
      futs.push_back(sched.submit(make_job(spec)));
    }
    sched.drain();
    EXPECT_THROW(bad_fut.get(), std::runtime_error) << "workers=" << workers;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(futs[i].get().steps, specs[i].steps);
      EXPECT_EQ(file_bytes(files[i].path), ref[i])
          << "job " << i << " at workers=" << workers;
    }
    const auto stats = sched.stats();
    EXPECT_EQ(stats.jobs_submitted, specs.size() + 1);
    EXPECT_EQ(stats.jobs_completed, specs.size());
    EXPECT_EQ(stats.jobs_failed, 1u);
  }
  EXPECT_FALSE(std::filesystem::exists(missing_dir));
}

// Satellite 3: two jobs checkpointing concurrently from different workers
// land in distinct, uncorrupted files.
TEST(Scheduler, ConcurrentCheckpointWritersDoNotCollide) {
  TempFile fa("serve_conc_a.bin");
  TempFile fb("serve_conc_b.bin");
  JobSpec a = small_spec(10, Scenario::kUniform, 260, 48);
  a.checkpoint_path = fa.path;
  a.checkpoint_every = 8;  // interleaved periodic writes from both jobs
  JobSpec b = small_spec(11, Scenario::kClustered, 240, 48);
  b.checkpoint_path = fb.path;
  b.checkpoint_every = 8;

  TempFile ra("serve_conc_ref_a.bin");
  TempFile rb("serve_conc_ref_b.bin");
  const std::string want_a = standalone_bytes(a, ra.path);
  const std::string want_b = standalone_bytes(b, rb.path);

  smp::ThreadTeam team(2);
  Scheduler sched(team, {.quantum_steps = 8});
  auto f1 = sched.submit_to_worker(0, make_job(a));
  auto f2 = sched.submit_to_worker(1, make_job(b));
  sched.drain();
  f1.get();
  f2.get();
  EXPECT_NE(want_a, want_b);
  EXPECT_EQ(file_bytes(fa.path), want_a);
  EXPECT_EQ(file_bytes(fb.path), want_b);
  // Both files round-trip through the reader.
  EXPECT_EQ(io::read_checkpoint<2>(fa.path).particles.size(), 260u);
  EXPECT_EQ(io::read_checkpoint<2>(fb.path).particles.size(), 240u);
}

TEST(Scheduler, InteractiveJobsFinishBeforeBatchBacklog) {
  smp::ThreadTeam team(1);
  Scheduler sched(team, {.quantum_steps = 8});
  std::vector<std::future<JobResult>> batch;
  for (std::uint64_t i = 0; i < 3; ++i) {
    batch.push_back(sched.submit(
        make_job(small_spec(20 + i, Scenario::kUniform, 300, 64))));
  }
  JobSpec inter = small_spec(30, Scenario::kUniform, 120, 24);
  inter.deadline = DeadlineClass::kInteractive;
  auto fi = sched.submit(make_job(inter));
  sched.drain();
  const JobResult ri = fi.get();
  for (auto& f : batch) {
    // On the cost clock the interactive job completed before every batch
    // job despite being submitted last.
    EXPECT_LT(ri.finish_cost, f.get().finish_cost);
  }
}

TEST(Scheduler, IdleWorkersStealFromLoadedWorker) {
  smp::ThreadTeam team(4);
  // Quantum covers every job whole: worker 0 pops the long job off its own
  // front and is then compute-bound for many OS timeslices, during which
  // the short jobs sit at the back of its deque — exactly where idle
  // workers steal.  Stealing is the only way the shorts finish before the
  // long job does, so the count below cannot depend on scheduling luck:
  // any thief that gets CPU while worker 0 is busy takes short after
  // short.
  Scheduler sched(team, {.quantum_steps = 1000});
  std::vector<std::future<JobResult>> futs;
  futs.push_back(sched.submit_to_worker(
      0, make_job(small_spec(40, Scenario::kUniform, 3000, 120))));
  for (std::uint64_t i = 1; i < 7; ++i) {
    futs.push_back(sched.submit_to_worker(
        0, make_job(small_spec(40 + i, Scenario::kUniform, 200, 32))));
  }
  sched.drain();
  EXPECT_EQ(futs.front().get().steps, 120u);
  for (std::size_t i = 1; i < futs.size(); ++i) {
    EXPECT_EQ(futs[i].get().steps, 32u);
  }
  const auto stats = sched.stats();
  EXPECT_EQ(stats.jobs_completed, 7u);
  EXPECT_GE(stats.steals, 3u) << "workers 1-3 never stole";
}

TEST(Scheduler, QuantumAccountingMatchesCeilDivision) {
  smp::ThreadTeam team(1);
  Scheduler sched(team, {.quantum_steps = 16});
  auto fut =
      sched.submit(make_job(small_spec(50, Scenario::kUniform, 150, 100)));
  sched.drain();
  const JobResult r = fut.get();
  EXPECT_EQ(r.steps, 100u);
  EXPECT_EQ(r.quanta, 7u);  // ceil(100 / 16)
  EXPECT_EQ(r.counters.iterations, 100u);
  EXPECT_EQ(sched.stats().quanta, 7u);
  EXPECT_EQ(sched.stats().cost_units, r.cost_units);
}

TEST(Scheduler, AcceptsSubmissionsWhileRunning) {
  smp::ThreadTeam team(2);
  Scheduler sched(team, {.quantum_steps = 8});
  auto first =
      sched.submit(make_job(small_spec(60, Scenario::kUniform, 200, 64)));
  std::thread server([&] { sched.run(); });
  auto second =
      sched.submit(make_job(small_spec(61, Scenario::kUniform, 200, 32)));
  first.wait();
  second.wait();
  sched.close();
  server.join();
  EXPECT_EQ(first.get().steps, 64u);
  EXPECT_EQ(second.get().steps, 32u);
  EXPECT_THROW(
      sched.submit(make_job(small_spec(62, Scenario::kUniform, 100, 1))),
      std::runtime_error);
}

// A trivial job that counts its live instances.
class CountingJob : public SimJob {
 public:
  static inline std::atomic<int> live{0};

  explicit CountingJob(const JobSpec& spec) : SimJob(spec) { ++live; }
  ~CountingJob() override { --live; }

  std::uint64_t advance(std::uint64_t n) override {
    const std::uint64_t k = std::min(n, spec().steps - steps_);
    steps_ += k;
    return k;
  }
  bool done() const override { return steps_ >= spec().steps; }
  std::uint64_t steps_done() const override { return steps_; }
  std::uint64_t cost_units() const override { return steps_; }
  Counters counters() const override { return {}; }
  void write_checkpoint() const override {}

 private:
  std::uint64_t steps_ = 0;
};

// Serving memory is bounded by live jobs: a finished job is freed as soon
// as its result is handed to the future, not when the scheduler goes.
TEST(Scheduler, FreesFinishedJobsWhileAlive) {
  smp::ThreadTeam team(2);
  Scheduler sched(team, {.quantum_steps = 8});
  std::vector<std::future<JobResult>> futs;
  for (std::uint64_t id = 0; id < 6; ++id) {
    futs.push_back(sched.submit(std::make_unique<CountingJob>(
        small_spec(90 + id, Scenario::kUniform, 10, 20))));
  }
  EXPECT_EQ(CountingJob::live.load(), 6);
  sched.drain();
  EXPECT_EQ(CountingJob::live.load(), 0);
  for (auto& f : futs) EXPECT_EQ(f.get().steps, 20u);
}

// A scheduler destroyed with jobs still queued frees them and breaks their
// promises.
TEST(Scheduler, AbandonedJobsBreakTheirPromises) {
  std::future<JobResult> fut;
  {
    smp::ThreadTeam team(1);
    Scheduler sched(team, {});
    fut = sched.submit(std::make_unique<CountingJob>(
        small_spec(99, Scenario::kUniform, 10, 20)));
    EXPECT_EQ(CountingJob::live.load(), 1);
  }
  EXPECT_EQ(CountingJob::live.load(), 0);
  EXPECT_THROW(fut.get(), std::future_error);
}

TEST(Scheduler, RejectsBadArguments) {
  smp::ThreadTeam team(1);
  EXPECT_THROW(Scheduler(team, {.quantum_steps = 0}), std::invalid_argument);
  Scheduler sched(team, {});
  EXPECT_THROW(sched.submit(nullptr), std::invalid_argument);
  EXPECT_THROW(sched.submit_to_worker(
                   5, make_job(small_spec(70, Scenario::kUniform, 100, 1))),
               std::out_of_range);
  sched.drain();
}

TEST(Scheduler, MutesGlobalTracerInsideQuanta) {
  auto job = make_job(small_spec(80, Scenario::kUniform, 150, 16));
  auto loud = make_job(small_spec(81, Scenario::kUniform, 150, 16));
  auto& tracer = trace::Tracer::global();
  tracer.enable(true);
  tracer.clear();
  {
    smp::ThreadTeam team(1);
    Scheduler sched(team, {.quantum_steps = 8, .mute_trace = true});
    sched.submit(std::move(job));
    sched.drain();
  }
  EXPECT_TRUE(tracer.events().empty());
  // And an unmuted run still records, so the mute is what suppressed it.
  loud->advance(16);
  EXPECT_FALSE(tracer.events().empty());
  tracer.enable(false);
}

TEST(Scheduler, ServeLineRendersStats) {
  smp::ThreadTeam team(2);
  Scheduler sched(team, {.quantum_steps = 16});
  std::vector<std::future<JobResult>> futs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    futs.push_back(
        sched.submit(make_job(small_spec(90 + i, Scenario::kUniform, 200, 32))));
  }
  sched.drain();
  for (auto& f : futs) f.get();
  const auto summary = serve::serve_summary(sched.stats());
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_GT(summary.cost_units, 0u);
  EXPECT_GE(summary.balance, 0.0);
  EXPECT_LE(summary.balance, 1.0);
  const std::string line = perf::serve_line(summary);
  EXPECT_NE(line.find("jobs=4"), std::string::npos);
  EXPECT_NE(line.find("steals="), std::string::npos);
  EXPECT_NE(line.find("overhead="), std::string::npos);
}

}  // namespace
}  // namespace hdem
