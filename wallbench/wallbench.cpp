// Wall-clock benchmark of the DEM library.
//
// run.py builds this binary and passes one workload's inputs from
// spec.json.  Two workload kinds:
//
//   sim    MpSim episodes (uniform-hot, settled-bed).  An episode is init
//          generation + driver construction (one setup_s sample) followed by
//          a fixed number of timed steps, then correctness checks.  Episodes
//          repeat until the timed steps cover --seconds, so every episode is
//          the same work and per-step figures compare across versions.
//   serve  A Scheduler on a thread team, a batch backlog admitted at t=0
//          and an open loop of interactive jobs arriving at a seeded Poisson
//          rate (serve-mix).
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs an untraced
// pass and a traced pass of half the length each and reports per-layer
// metrics from the traced one: trace::Tracer phases plus the benchmark's
// own spans around the calls it makes into the library.  The last stdout
// line is one JSON object: correct, attempted, failed, metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "decomp/layout.hpp"
#include "driver/mp_sim.hpp"
#include "io/checkpoint.hpp"
#include "mp/comm.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "smp/thread_team.hpp"
#include "spans.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace wb = wallbench;
using namespace hdem;

namespace {

// One clock for the benchmark's spans and the library tracer's events.
double now() { return trace::Tracer::global().now(); }

constexpr int kMainLane = 100;       // the thread running main()
constexpr int kGeneratorLane = 101;  // the open-loop load generator
constexpr int kRequestLane = 102;    // interactive requests, due to ready

// Harness constants, the same on every workload.
constexpr std::uint64_t kMinEpisodes = 3;  // sim episodes per window, at least
// Largest coordinate deviation allowed between the decomposed run and
// SerialSim: the two sum halo links in different orders, so they agree to
// rounding (~1e-15), not bit for bit.
constexpr double kMatchTol = 1e-9;
constexpr std::uint64_t kSetupReps = 5;          // serve-mix backlog admissions
constexpr std::size_t kVerifyBatch = 4;          // batch jobs re-run standalone
constexpr std::size_t kVerifyInteractive = 16;   // interactive jobs re-run

// ---------------------------------------------------------------------------
// Arguments: --kind/--seed/--seconds/--trace/--tmp/--spans plus the
// workload inputs as repeated --set key=value.

struct Args {
  std::string kind;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;    // scratch directory for checkpoints
  std::string spans;  // where the traced pass writes its spans
  std::map<std::string, std::string> set;

  const std::string& raw(const std::string& key) const {
    const auto it = set.find(key);
    if (it == set.end()) throw std::invalid_argument("missing input " + key);
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(raw(key)); }
  std::uint64_t count(const std::string& key) const {
    const double v = num(key);
    if (v < 0.0 || v != std::floor(v)) {
      throw std::invalid_argument("input " + key + " must be a whole number");
    }
    return static_cast<std::uint64_t>(v);
  }
  int integer(const std::string& key) const {
    return static_cast<int>(count(key));
  }
  bool flag(const std::string& key) const {
    const std::string& v = raw(key);
    if (v == "true" || v == "1") return true;
    if (v == "false" || v == "0") return false;
    throw std::invalid_argument("input " + key + " must be true or false");
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--kind") {
      a.kind = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--tmp") {
      a.tmp = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--set") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--set " + v);
      a.set[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Result line.

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      std::printf("note: %s not measured (no samples)\n", name.c_str());
      return;
    }
    metrics_.push_back({name, value, unit});
    std::printf("metric %-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void attempt() { ++attempted_; }
  void fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Hand memory freed by a finished episode back to the system.  Each episode
// runs on fresh threads, and glibc keeps freed blocks in per-thread arenas,
// so without this the peak RSS would depend on which arenas the next
// episode's threads happen to get.  Every episode then starts like a fresh
// process: setup pays first-touch page faults, as a user's run would.
void release_freed_memory() { malloc_trim(0); }

// Library phase events of the traced window as spans (parents by lane).
// Events without a rank were recorded on `unranked_lane`.
void add_tracer_events(wb::SpanLog& log, int unranked_lane) {
  for (const trace::Event& e : trace::Tracer::global().events()) {
    wb::Span s;
    s.name = trace::to_string(e.phase);
    s.lane = e.rank >= 0 ? e.rank : unranked_lane;
    s.t0 = e.t_start;
    s.t1 = e.t_end;
    log.add(std::move(s));
  }
}

// Resolved spans with self times, written to `path` when one is given.
struct SpanTree {
  std::vector<wb::Span> spans;
  std::vector<double> self;
  std::map<std::int64_t, std::size_t> index;

  const wb::Span* parent_of(const wb::Span& s) const {
    const auto it = index.find(s.parent);
    return it == index.end() ? nullptr : &spans[it->second];
  }
};

SpanTree resolve(const wb::SpanLog& log, const std::string& path) {
  SpanTree t;
  t.spans = log.spans();
  wb::assign_parents(t.spans);
  t.self = wb::self_times(t.spans);
  for (std::size_t i = 0; i < t.spans.size(); ++i) t.index[t.spans[i].id] = i;
  if (!path.empty()) {
    wb::write_spans(path, t.spans, t.self);
    std::printf("spans: %zu written to %s\n", t.spans.size(), path.c_str());
  }
  return t;
}

// ---------------------------------------------------------------------------
// sim workloads: uniform-hot, settled-bed.

struct SimParams {
  int dim = 3;
  std::uint64_t n = 0;
  int ranks = 1;
  int threads = 1;
  int blocks_per_rank = 1;
  int ranks_per_node = 0;
  ReductionKind reduction = ReductionKind::kColored;
  bool fused = false;
  bool overlap = false;
  bool shared_halo = false;
  bool halo_delta = false;
  bool halo_coalesce = false;
  std::string init;  // "uniform" or "settled"
  double velocity_scale = 0.05;
  double skin = 0.0;
  double box_scale = 1.0;
  std::uint64_t settled_stride = 0;
  double settled_speed = 0.0;
  std::uint64_t episode_steps = 0;
  std::uint64_t check_steps = 0;
  double energy_tol = 0.0;
};

SimParams sim_params(const Args& a) {
  SimParams p;
  p.dim = a.integer("dim");
  p.n = a.count("n");
  p.ranks = a.integer("ranks");
  p.threads = a.integer("threads");
  p.blocks_per_rank = a.integer("blocks_per_rank");
  p.ranks_per_node = a.integer("ranks_per_node");
  if (!reduction_from_string(a.raw("reduction"), p.reduction)) {
    throw std::invalid_argument("unknown reduction " + a.raw("reduction"));
  }
  p.fused = a.flag("fused");
  p.overlap = a.flag("overlap");
  p.shared_halo = a.flag("shared_halo");
  p.halo_delta = a.flag("halo_delta");
  p.halo_coalesce = a.flag("halo_coalesce");
  p.init = a.raw("init");
  p.velocity_scale = a.num("velocity_scale");
  p.skin = a.num("skin");
  p.box_scale = a.num("box_scale");
  if (p.init == "settled") {
    p.settled_stride = a.count("settled_stride");
    p.settled_speed = a.num("settled_speed");
    if (p.settled_stride == 0) throw std::invalid_argument("settled_stride");
  } else if (p.init != "uniform") {
    throw std::invalid_argument("init must be uniform or settled");
  }
  p.episode_steps = a.count("episode_steps");
  p.check_steps = a.count("check_steps");
  p.energy_tol = a.num("energy_tol");
  if (p.dim != 2 && p.dim != 3) throw std::invalid_argument("dim");
  if (p.episode_steps < 2 || p.check_steps < 1) {
    throw std::invalid_argument("episode_steps/check_steps");
  }
  return p;
}

template <int D>
SimConfig<D> sim_config(const SimParams& p, std::uint64_t seed) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(p.n) * p.box_scale);
  cfg.velocity_scale = p.velocity_scale;
  cfg.skin_factor = p.skin;
  cfg.halo_delta = p.halo_delta;
  cfg.halo_coalesce = p.halo_coalesce;
  cfg.seed = seed;
  return cfg;
}

// Seeded inputs.  uniform: the paper's random spheres (seeded through
// cfg.seed).  settled: the library's lattice bed at rest; the seed picks
// which residue class of every settled_stride-th particle moves and each
// mover's velocity (components uniform in ±settled_speed).
template <int D>
std::vector<ParticleInit<D>> sim_particles(const SimParams& p,
                                           const SimConfig<D>& cfg,
                                           std::uint64_t seed) {
  if (p.init == "uniform") return uniform_random_particles(cfg, p.n);
  auto out = settled_bed_particles(cfg, p.n, 0, 0.0);
  Rng rng(seed, 7);
  for (std::size_t i = rng.uniform_index(p.settled_stride); i < out.size();
       i += p.settled_stride) {
    for (int d = 0; d < D; ++d) {
      out[i].vel[d] = rng.uniform(-p.settled_speed, p.settled_speed);
    }
  }
  return out;
}

template <int D>
typename MpSim<D>::Options mp_options(const SimParams& p) {
  typename MpSim<D>::Options o;
  o.nthreads = p.threads;
  o.reduction = p.reduction;
  o.fused = p.fused;
  o.overlap = p.overlap;
  o.shared_halo = p.shared_halo;
  o.ranks_per_node = p.ranks_per_node;
  return o;
}

// Conservation checks on a gathered state (sorted by id): count and id set
// conserved, every coordinate finite.
template <int D>
std::string state_problem(const std::vector<StateRecord<D>>& st,
                          std::uint64_t n) {
  if (st.size() != n) {
    return "particle count " + std::to_string(st.size()) + " != " +
           std::to_string(n);
  }
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (st[i].id != static_cast<std::int32_t>(i)) return "id set changed";
    for (int d = 0; d < D; ++d) {
      if (!std::isfinite(st[i].pos[d]) || !std::isfinite(st[i].vel[d])) {
        return "non-finite state at id " + std::to_string(i);
      }
    }
  }
  return "";
}

struct StepSample {
  double seconds;
  bool rebuilt;
};

struct Episode {
  double setup_s = 0.0;
  std::vector<StepSample> steps;        // rank 0's step() calls
  std::vector<Counters> rank_counters;  // per rank, over the timed steps
  std::string problem;                  // empty when the checks passed
  double energy_drift = 0.0;            // |E1 - E0| / |E0|
  double peak_rss_mb = 0.0;             // process peak once it has ended

  double step_seconds() const {
    double t = 0.0;
    for (const StepSample& s : steps) t += s.seconds;
    return t;
  }
};

template <int D>
class SimBench {
 public:
  SimBench(const SimParams& p, std::uint64_t seed)
      : p_(p),
        seed_(seed),
        cfg_(sim_config<D>(p, seed)),
        model_{cfg_.stiffness, cfg_.diameter},
        layout_(DecompLayout<D>::make(p.ranks, p.blocks_per_rank)),
        opts_(mp_options<D>(p)) {}

  // The first check_steps steps of the decomposed run against SerialSim on
  // the same inputs (untimed).  Returns the largest coordinate deviation;
  // records the serial step times for the single-thread baseline.
  double prefix_deviation(std::vector<double>& serial_step_s) {
    const auto init = sim_particles<D>(p_, cfg_, seed_);
    const auto ref = [&] {
      SerialSim<D> serial(cfg_, model_, init);
      serial_step_s.clear();
      for (std::uint64_t s = 0; s < p_.check_steps; ++s) {
        const double a = now();
        serial.step();
        serial_step_s.push_back(now() - a);
      }
      return io::snapshot(serial);
    }();
    std::vector<StateRecord<D>> got;
    mp::run(p_.ranks, [&](mp::Comm& comm) {
      MpSim<D> sim(cfg_, layout_, comm, model_, init, opts_);
      sim.run(p_.check_steps);
      auto st = sim.gather_state();
      if (comm.rank() == 0) got = std::move(st);
    });
    release_freed_memory();
    if (got.size() != ref.size()) return INFINITY;
    double dev = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (got[i].id != ref[i].id) return INFINITY;
      for (int d = 0; d < D; ++d) {
        dev = std::max(dev, std::abs(got[i].pos[d] - ref[i].pos[d]));
        dev = std::max(dev, std::abs(got[i].vel[d] - ref[i].vel[d]));
      }
    }
    return dev;
  }

  Episode episode(std::int64_t index, wb::SpanLog* log) {
    Episode ep;
    ep.rank_counters.resize(static_cast<std::size_t>(p_.ranks));
    const std::int64_t ep_id = log ? log->reserve_id() : wb::kRoot;
    const std::int64_t construct_id = log ? log->reserve_id() : wb::kRoot;
    const double t0 = now();
    const auto init = sim_particles<D>(p_, cfg_, seed_);
    const double t1 = now();
    double ready = 0.0;
    mp::run(p_.ranks, [&](mp::Comm& comm) {
      const int r = comm.rank();
      const double c0 = now();
      MpSim<D> sim(cfg_, layout_, comm, model_, init, opts_);
      comm.barrier();
      const double c1 = now();
      if (r == 0) ready = c1;
      if (log) log->add({"rank_construct", -1, construct_id, index, r, c0, c1});
      const Counters before = sim.counters();
      double e0 = 0.0;
      for (std::uint64_t s = 0; s < p_.episode_steps; ++s) {
        const std::uint64_t rebuilds = r == 0 ? sim.counters().rebuilds : 0;
        const double a = now();
        sim.step();
        const double b = now();
        if (r == 0) {
          ep.steps.push_back({b - a, sim.counters().rebuilds != rebuilds});
        }
        if (log) {
          log->add({"step", -1, ep_id, static_cast<std::int64_t>(s), r, a, b});
        }
        // Potential energy exists once the first forces are computed.
        if (s == 0) e0 = sim.global_energy();
      }
      const double e1 = sim.global_energy();
      ep.rank_counters[static_cast<std::size_t>(r)] =
          counters_delta(sim.counters(), before);
      const auto state = sim.gather_state();
      if (r == 0) {
        ep.energy_drift = std::abs(e1 - e0) / std::max(std::abs(e0), 1e-300);
        ep.problem = state_problem<D>(state, p_.n);
        if (ep.problem.empty() && !(ep.energy_drift <= p_.energy_tol)) {
          ep.problem = "energy drift " + std::to_string(ep.energy_drift);
        }
      }
    });
    ep.setup_s = ready - t0;
    ep.peak_rss_mb = peak_rss_mb();
    release_freed_memory();
    if (log) {
      log->add({"episode", ep_id, wb::kRoot, index, kMainLane, t0, now()});
      log->add({"setup", -1, wb::kByLane, index, kMainLane, t0, ready});
      log->add({"init", -1, wb::kByLane, index, kMainLane, t0, t1});
      log->add({"construct", construct_id, wb::kByLane, index, kMainLane, t1,
                ready});
    }
    return ep;
  }

  // Episodes until their timed steps cover `budget` seconds.
  std::vector<Episode> window(double budget, wb::SpanLog* log,
                              Report& rep) {
    std::vector<Episode> eps;
    double timed = 0.0;
    while (eps.size() < kMinEpisodes || timed < budget) {
      eps.push_back(episode(static_cast<std::int64_t>(eps.size()), log));
      rep.attempt();
      const Episode& ep = eps.back();
      std::printf("episode %zu: setup %.4f s, %zu steps in %.4f s\n",
                  eps.size() - 1, ep.setup_s, ep.steps.size(),
                  ep.step_seconds());
      if (!ep.problem.empty()) {
        rep.fail("episode " + std::to_string(eps.size() - 1) + ": " +
                 ep.problem);
      }
      timed += ep.step_seconds();
    }
    return eps;
  }

  std::uint64_t n() const { return p_.n; }
  int ranks() const { return p_.ranks; }
  int threads_total() const { return p_.ranks * p_.threads; }
  std::uint64_t check_steps() const { return p_.check_steps; }

 private:
  SimParams p_;
  std::uint64_t seed_;
  SimConfig<D> cfg_;
  ElasticSphere model_;
  DecompLayout<D> layout_;
  typename MpSim<D>::Options opts_;
};

struct WindowStats {
  double particle_steps_per_s = 0.0;
  double step_ms_p50 = 0.0;
  double rebuild_step_ms_p50 = 0.0;
  double setup_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t rebuild_steps = 0;
  double max_drift = 0.0;
};

// Every episode is the same work, so throughput is taken from the median
// episode: a burst of interference on a shared host slows a minority of
// episodes without moving the figure.
WindowStats window_stats(const std::vector<Episode>& eps, std::uint64_t n) {
  WindowStats w;
  std::vector<double> all, rebuild, setup, episode_s;
  for (const Episode& ep : eps) {
    setup.push_back(ep.setup_s);
    episode_s.push_back(ep.step_seconds());
    w.max_drift = std::max(w.max_drift, ep.energy_drift);
    for (const StepSample& s : ep.steps) {
      all.push_back(1e3 * s.seconds);
      if (s.rebuilt) rebuild.push_back(1e3 * s.seconds);
    }
  }
  w.steps = all.size();
  w.rebuild_steps = rebuild.size();
  w.particle_steps_per_s =
      ratio(static_cast<double>(n) * static_cast<double>(eps.front().steps.size()),
            wb::median(episode_s));
  w.step_ms_p50 = wb::median(all);
  w.rebuild_step_ms_p50 = wb::median(rebuild);
  w.setup_s = wb::median(setup);
  return w;
}

// Median over episodes of rank 0's time for the first k steps: the parallel
// side of the single-thread baseline comparison.
double first_steps_seconds(const std::vector<Episode>& eps, std::uint64_t k) {
  std::vector<double> t;
  for (const Episode& ep : eps) {
    double s = 0.0;
    for (std::size_t i = 0; i < k && i < ep.steps.size(); ++i) {
      s += ep.steps[i].seconds;
    }
    t.push_back(s);
  }
  return wb::median(t);
}

// Per-layer metrics of a traced sim window.  Phase times are per rank
// (summed over ranks, divided by the rank count) and count only phases
// inside the benchmark's step spans, so construction-time rebuilds are
// excluded; counts are summed over ranks.
void sim_layer_metrics(const SpanTree& tree, const std::vector<Episode>& eps,
                       std::uint64_t n, int ranks, Report& rep) {
  std::map<std::string, double> self, total;
  double rebuild_s = 0.0;  // step time outside the iteration bracket
  std::vector<double> init_ms, construct_ms;
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    const wb::Span& s = tree.spans[i];
    if (s.name == "init") init_ms.push_back(1e3 * s.duration());
    if (s.name == "construct") construct_ms.push_back(1e3 * s.duration());
    const wb::Span* up = tree.parent_of(s);
    while (up && up->name != "step" && up->name != "rank_construct") {
      up = tree.parent_of(*up);
    }
    if (!up || up->name != "step") continue;
    self[s.name] += tree.self[i];
    total[s.name] += s.duration();
    if (tree.parent_of(s) == up && s.name != "iteration") {
      rebuild_s += s.duration();
    }
  }
  Counters merged;
  std::vector<double> block_imbalance;
  std::uint64_t steps = 0, rebuilds = 0;
  for (const Episode& ep : eps) {
    Counters ep_merged;
    for (const Counters& c : ep.rank_counters) ep_merged.merge(c);
    block_imbalance.push_back(ep_merged.block_imbalance());
    merged.merge(ep_merged);
    steps += ep.steps.size();
    rebuilds += ep.rank_counters.front().rebuilds;
  }
  const double R = static_cast<double>(ranks);
  const double S = static_cast<double>(steps);
  const double B = static_cast<double>(rebuilds);
  const auto per_step_ms = [&](double seconds) {
    return ratio(1e3 * seconds, R * S);
  };
  const auto per_rebuild_ms = [&](double seconds) {
    return ratio(1e3 * seconds, R * B);
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  rep.metric("core.force_ms_per_step", per_step_ms(self["force"]), "ms");
  rep.metric("core.force_ns_per_link",
             ratio(1e9 * self["force"], count(merged.force_evals)), "ns");
  rep.metric("core.contact_ratio",
             ratio(count(merged.contacts), count(merged.force_evals)), "ratio");
  rep.metric("core.links_per_particle",
             ratio(count(merged.force_evals), static_cast<double>(n) * S),
             "count");
  rep.metric("core.rebuilds_per_kstep", ratio(1e3 * B, S), "count");
  rep.metric("core.update_ms_per_step", per_step_ms(self["update"]), "ms");
  rep.metric("core.rebuild_ms", per_rebuild_ms(rebuild_s), "ms");
  rep.metric("core.bin_ms", per_rebuild_ms(total["bin"]), "ms");
  rep.metric("core.linkgen_ms",
             per_rebuild_ms(total["link-gen"] + total["color-plan"]), "ms");
  rep.metric("core.reorder_ms", per_rebuild_ms(total["reorder"]), "ms");
  rep.metric("core.init_ms", wb::median(init_ms), "ms");
  rep.metric("driver.construct_ms", wb::median(construct_ms), "ms");
  rep.metric("reduction.color_barriers_per_step",
             ratio(count(merged.color_barriers), S), "count");
  rep.metric("reduction.atomic_updates_per_step",
             ratio(count(merged.atomic_updates), S), "count");
  rep.metric("smp.regions_per_step", ratio(count(merged.parallel_regions), S),
             "count");
  rep.metric("smp.barriers_per_step", ratio(count(merged.barriers), S),
             "count");
  rep.metric("smp.thread_imbalance", merged.thread_imbalance(), "ratio");
  rep.metric("mp.collective_ms_per_step", per_step_ms(self["collective"]),
             "ms");
  rep.metric("mp.msgs_per_step", ratio(count(merged.msgs_sent), S), "count");
  rep.metric("mp.wire_bytes_per_step", ratio(count(merged.bytes_sent), S),
             "B");
  rep.metric("mp.exposed_wait_ms_per_step",
             per_step_ms(1e-9 * count(merged.exposed_wait_ns)), "ms");
  rep.metric("decomp.halo_ms_per_step",
             per_step_ms(self["halo-swap"] + self["halo-wait"] +
                         self["halo-shared"]),
             "ms");
  rep.metric("decomp.halo_shared_bytes_per_step",
             ratio(count(merged.bytes_shared), S), "B");
  rep.metric("decomp.delta_hit_rate", merged.delta_hit_rate(), "ratio");
  rep.metric("decomp.migrate_ms", per_rebuild_ms(total["migrate"]), "ms");
  rep.metric("decomp.halo_build_ms", per_rebuild_ms(total["halo-build"]),
             "ms");
  rep.metric("decomp.block_imbalance", wb::median(block_imbalance), "ratio");
}

template <int D>
void run_sim(const Args& a, Report& rep) {
  const SimParams p = sim_params(a);
  SimBench<D> bench(p, a.seed);
  std::printf("sim: D=%d n=%llu ranks=%d threads=%d seed=%llu\n", D,
              static_cast<unsigned long long>(p.n), p.ranks, p.threads,
              static_cast<unsigned long long>(a.seed));

  // Run after the timed windows, so it adds nothing to peak_rss_mb.
  std::vector<double> serial_step_s;
  const auto check_prefix = [&] {
    const double dev = bench.prefix_deviation(serial_step_s);
    rep.attempt();
    std::printf("check: first %llu steps vs SerialSim, max deviation %.3g "
                "(tolerance %.3g)\n",
                static_cast<unsigned long long>(bench.check_steps()), dev,
                kMatchTol);
    if (!(dev <= kMatchTol)) rep.fail("prefix differs from SerialSim");
  };

  const auto report_window = [&](const WindowStats& w) {
    std::printf("window: %llu steps, %llu rebuild steps, max energy drift "
                "%.3g\n",
                static_cast<unsigned long long>(w.steps),
                static_cast<unsigned long long>(w.rebuild_steps),
                w.max_drift);
  };

  if (!a.trace) {
    const auto eps = bench.window(a.seconds, nullptr, rep);
    const WindowStats w = window_stats(eps, bench.n());
    report_window(w);
    rep.metric("setup_s", w.setup_s, "s");
    rep.metric("particle_steps_per_s", w.particle_steps_per_s, "1/s");
    rep.metric("step_ms_p50", w.step_ms_p50, "ms");
    rep.metric("rebuild_step_ms_p50", w.rebuild_step_ms_p50, "ms");
    // Read after the first episode, as a fresh process would see it: memory
    // a finished episode leaves in the allocator's per-thread arenas raises
    // later episodes' peak by a varying 30-60 MB.
    rep.metric("peak_rss_mb", eps.front().peak_rss_mb, "MB");
    check_prefix();
    return;
  }

  const auto ref_eps = bench.window(0.5 * a.seconds, nullptr, rep);
  const WindowStats ref = window_stats(ref_eps, bench.n());
  wb::SpanLog log;
  trace::Tracer::global().enable(true);
  const auto eps = bench.window(0.5 * a.seconds, &log, rep);
  trace::Tracer::global().enable(false);
  add_tracer_events(log, -1);
  const WindowStats traced = window_stats(eps, bench.n());
  report_window(traced);
  sim_layer_metrics(resolve(log, a.spans), eps, bench.n(), bench.ranks(),
                    rep);
  check_prefix();

  double serial_s = 0.0;
  for (const double s : serial_step_s) serial_s += s;
  const double k = static_cast<double>(serial_step_s.size());
  const double serial_rate = ratio(static_cast<double>(bench.n()) * k,
                                   serial_s);
  const double parallel_rate =
      ratio(static_cast<double>(bench.n()) * k,
            first_steps_seconds(ref_eps, serial_step_s.size()));
  rep.metric("driver.serial_particle_steps_per_s", serial_rate, "1/s");
  rep.metric("driver.parallel_efficiency",
             ratio(parallel_rate, serial_rate * bench.threads_total()),
             "ratio");
  rep.metric("trace.overhead_frac",
             ratio(ref.particle_steps_per_s, traced.particle_steps_per_s) - 1.0,
             "ratio");
}

// ---------------------------------------------------------------------------
// serve-mix.

struct ServeParams {
  int dim = 2;
  int workers = 3;
  std::uint64_t quantum = 32;
  std::uint64_t batch_n = 0;
  std::uint64_t batch_steps = 0;
  std::uint64_t checkpoint_every = 0;
  double clustered_share = 0.5;
  double backlog_per_s = 0.0;
  std::uint64_t interactive_n = 0;
  std::uint64_t interactive_steps = 0;
  double rate = 0.0;
};

ServeParams serve_params(const Args& a) {
  ServeParams p;
  p.dim = a.integer("dim");
  p.workers = a.integer("workers");
  p.quantum = a.count("quantum_steps");
  p.batch_n = a.count("batch_n");
  p.batch_steps = a.count("batch_steps");
  p.checkpoint_every = a.count("checkpoint_every");
  p.clustered_share = a.num("clustered_share");
  p.backlog_per_s = a.num("backlog_jobs_per_s");
  p.interactive_n = a.count("interactive_n");
  p.interactive_steps = a.count("interactive_steps");
  p.rate = a.num("arrivals_per_s");
  if (p.workers < 1 || !(p.rate > 0.0) ||
      !(p.clustered_share >= 0.0 && p.clustered_share <= 1.0)) {
    throw std::invalid_argument(
        "workers/arrivals_per_s/clustered_share out of range");
  }
  return p;
}

struct Arrival {
  double due = 0.0;  // seconds after the start of the open loop
  serve::JobSpec spec;
};

struct ServeInputs {
  std::vector<serve::JobSpec> backlog;
  std::vector<Arrival> arrivals;
};

// Seeded job mix: the order of the backlog's scenarios and the arrival
// schedule come from independent streams of the run seed; job seeds derive
// from (seed, job_id) inside the library.  The backlog's scenario counts
// are fixed, so every seed carries the same amount of batch work.
ServeInputs serve_inputs(const ServeParams& p, std::uint64_t seed,
                         double seconds, const std::string& dir) {
  ServeInputs in;
  const auto nb = static_cast<std::uint64_t>(std::ceil(p.backlog_per_s * seconds));
  const auto nclustered =
      static_cast<std::uint64_t>(std::llround(p.clustered_share * nb));
  std::vector<serve::Scenario> mix(nb, serve::Scenario::kSettled);
  std::fill_n(mix.begin(), nclustered, serve::Scenario::kClustered);
  Rng shuffle(seed, 1);
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[shuffle.uniform_index(i)]);
  }
  for (std::uint64_t i = 0; i < nb; ++i) {
    serve::JobSpec s;
    s.job_id = i;
    s.scenario = mix[i];
    s.dim = p.dim;
    s.n = p.batch_n;
    s.steps = p.batch_steps;
    s.deadline = serve::DeadlineClass::kBatch;
    s.seed = seed;
    s.checkpoint_path = dir + "/b" + std::to_string(i) + ".ckp";
    s.checkpoint_every = p.checkpoint_every;
    in.backlog.push_back(s);
  }
  Rng gaps(seed, 2);
  const auto na = static_cast<std::uint64_t>(std::ceil(p.rate * seconds));
  double t = 0.0;
  for (std::uint64_t k = 0; k < na; ++k) {
    t += -std::log(1.0 - gaps.uniform()) / p.rate;
    Arrival a;
    a.due = t;
    a.spec.job_id = nb + k;
    a.spec.scenario = serve::Scenario::kUniform;
    a.spec.dim = p.dim;
    a.spec.n = p.interactive_n;
    a.spec.steps = p.interactive_steps;
    a.spec.deadline = serve::DeadlineClass::kInteractive;
    a.spec.seed = seed;
    a.spec.checkpoint_path = dir + "/i" + std::to_string(a.spec.job_id) + ".ckp";
    in.arrivals.push_back(a);
  }
  return in;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// `k` distinct indices of [0, n), seeded.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        Rng& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng.uniform_index(n - i)]);
  }
  idx.resize(k);
  return idx;
}

struct ServeOutcome {
  double setup_s = 0.0;
  double particle_steps_per_s = 0.0;
  double jobs_per_s = 0.0;
  double particle_steps = 0.0;     // completed jobs' n * steps
  double latency_ms_p50 = 0.0;     // median over slices of slice medians
  std::vector<double> latency_ms;  // interactive, from due time
  std::vector<double> build_ms;    // interactive make_job
  std::vector<double> admit_ms;    // generator time per arrival, make_job on
  std::vector<double> queue_ms;    // sampled: latency - standalone service
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  serve::ServeStats stats;
  double backlog_margin_s = 0.0;   // last batch completion - last arrival
  double peak_rss_mb = 0.0;        // before the verification re-runs
};

// One serve pass: setup_reps admissions of the backlog (the last is kept),
// the open loop for `seconds`, drain, then correctness checks.  With a span
// log the library tracer records the open loop: the workers mute it inside
// job quanta, so what it records is make_job on the generator thread.
template <int D>
ServeOutcome serve_pass(const ServeParams& p, std::uint64_t seed,
                        double seconds, const std::string& dir,
                        std::uint64_t setup_reps, bool verify,
                        wb::SpanLog* log, Report& rep) {
  // Enabling resets the tracer clock, which is also the benchmark's clock:
  // do it before the pass takes its first time.
  if (log) trace::Tracer::global().enable(true);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ServeInputs in = serve_inputs(p, seed, seconds, dir);
  ServeOutcome out;

  std::unique_ptr<smp::ThreadTeam> team;
  std::unique_ptr<serve::Scheduler> sched;
  std::vector<std::future<serve::JobResult>> backlog_futs;
  std::vector<double> backlog_submit;
  std::vector<double> setup;
  serve::Scheduler::Options opt;
  opt.quantum_steps = p.quantum;
  for (std::uint64_t r = 0; r < setup_reps; ++r) {
    sched.reset();  // the scheduler refers to the team: drop it first
    team.reset();
    backlog_futs.clear();
    backlog_submit.clear();
    release_freed_memory();
    const double t0 = now();
    team = std::make_unique<smp::ThreadTeam>(p.workers);
    sched = std::make_unique<serve::Scheduler>(*team, opt);
    for (const serve::JobSpec& s : in.backlog) {
      auto job = serve::make_job(s);
      backlog_submit.push_back(now());
      backlog_futs.push_back(sched->submit(std::move(job)));
    }
    setup.push_back(now() - t0);
  }
  out.setup_s = wb::median(setup);

  struct Sent {
    double due = 0.0, made0 = 0.0, made1 = 0.0, sent = 0.0, admitted = 0.0;
    std::uint64_t work = 0;  // scheduler cost clock just after submit
    std::int64_t span = 0;   // id of the request span
    std::future<serve::JobResult> fut;
  };
  std::vector<Sent> sent(in.arrivals.size());
  std::exception_ptr gen_error;
  if (log) trace::Tracer::global().clear();  // drop the admission phases
  const double start = now();
  {
    std::jthread generator([&] {
      try {
        for (std::size_t k = 0; k < in.arrivals.size(); ++k) {
          Sent& s = sent[k];
          s.due = start + in.arrivals[k].due;
          const double wait = s.due - now();
          if (wait > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          s.made0 = now();
          auto job = serve::make_job(in.arrivals[k].spec);
          s.made1 = now();
          s.fut = sched->submit(std::move(job));
          s.sent = now();
          s.work = sched->stats().cost_units;
          if (log) {
            const auto key =
                static_cast<std::int64_t>(in.arrivals[k].spec.job_id);
            s.span = log->reserve_id();
            log->add({"make_job", -1, s.span, key, kGeneratorLane, s.made0,
                      s.made1});
            log->add({"submit", -1, s.span, key, kGeneratorLane, s.made1,
                      s.sent});
          }
          s.admitted = now();
        }
      } catch (...) {
        gen_error = std::current_exception();
      }
      sched->close();
    });
    sched->run();
  }
  if (log) {
    trace::Tracer::global().enable(false);
    add_tracer_events(*log, kGeneratorLane);
  }
  if (gen_error) std::rethrow_exception(gen_error);
  out.stats = sched->stats();

  // Futures: every job must resolve with its full step budget.
  std::vector<bool> bad(in.backlog.size() + in.arrivals.size(), false);
  double last_done = start, last_batch_done = start;
  double particle_steps = 0.0;
  std::uint64_t completed = 0;
  const auto collect = [&](std::future<serve::JobResult>& f,
                           const serve::JobSpec& spec, double submitted,
                           double& done_at) {
    rep.attempt();
    try {
      const serve::JobResult r = f.get();
      done_at = submitted + r.wall_seconds;
      if (r.steps != spec.steps) {
        rep.fail("job " + std::to_string(spec.job_id) + " ran " +
                 std::to_string(r.steps) + " steps");
        bad[spec.job_id] = true;
        return;
      }
      ++completed;
      particle_steps += static_cast<double>(spec.n * spec.steps);
      last_done = std::max(last_done, done_at);
    } catch (const std::exception& e) {
      rep.fail("job " + std::to_string(spec.job_id) + ": " + e.what());
      bad[spec.job_id] = true;
      done_at = INFINITY;  // a failed request misses every latency limit
    }
  };
  for (std::size_t i = 0; i < in.backlog.size(); ++i) {
    double done_at = 0.0;
    collect(backlog_futs[i], in.backlog[i], backlog_submit[i], done_at);
    last_batch_done = std::max(last_batch_done, done_at);
  }
  std::vector<double> done_at(in.arrivals.size(), 0.0);
  for (std::size_t k = 0; k < in.arrivals.size(); ++k) {
    Sent& s = sent[k];
    collect(s.fut, in.arrivals[k].spec, s.made1, done_at[k]);
    out.latency_ms.push_back(1e3 * (done_at[k] - s.due));
    out.build_ms.push_back(1e3 * (s.made1 - s.made0));
    out.admit_ms.push_back(1e3 * (s.admitted - s.made0));
    if (log) {
      // A request is not a thread's work: it has a lane of its own.
      const auto key = static_cast<std::int64_t>(in.arrivals[k].spec.job_id);
      log->add({"request", s.span, wb::kRoot, key, kRequestLane, s.due,
                done_at[k]});
      log->add({"complete", -1, s.span, key, kRequestLane, s.made1,
                done_at[k]});
    }
  }
  out.jobs_per_s = ratio(static_cast<double>(completed), last_done - start);
  out.particle_steps = particle_steps;
  // Steady-state figures come from one-second slices of the open loop (at
  // least ten slices), while the backlog keeps every worker busy: the median
  // slice ignores a burst of interference on a shared host, and the drain
  // tail after the loop is left out.  Work is read off the scheduler's cost
  // clock and converted to particle-steps with the whole run's ratio.  Only
  // slices that end while batch work is left count; a backlog that drains
  // before the last arrival is a failure, so none is dropped in a passing
  // run.
  out.backlog_margin_s =
      last_batch_done - (in.arrivals.empty() ? start : sent.back().due);
  rep.attempt();
  if (!(out.backlog_margin_s > 0.0)) {
    rep.fail("the backlog drained " + std::to_string(-out.backlog_margin_s) +
             " s before the last arrival");
  }
  const double slice_s = std::min(1.0, 0.1 * seconds);
  std::vector<double> slice_rate, slice_p50;
  for (std::size_t k = 0, first = 0;
       k < sent.size() && sent[k].sent <= last_batch_done; ++k) {
    if (sent[k].sent - sent[first].sent >= slice_s) {
      slice_rate.push_back(
          static_cast<double>(sent[k].work - sent[first].work) /
          (sent[k].sent - sent[first].sent));
      slice_p50.push_back(wb::median(std::vector<double>(
          out.latency_ms.begin() + static_cast<std::ptrdiff_t>(first),
          out.latency_ms.begin() + static_cast<std::ptrdiff_t>(k))));
      first = k;
    }
  }
  out.particle_steps_per_s =
      wb::median(slice_rate) *
      ratio(particle_steps, static_cast<double>(out.stats.cost_units));
  out.latency_ms_p50 = wb::median(slice_p50);
  out.peak_rss_mb = peak_rss_mb();

  if (verify) {
    // Seeded sample of served jobs re-run standalone: byte-identical final
    // checkpoints.  Batch samples also round-trip through read/write.
    Rng pick(seed, 3);
    const auto verify_job = [&](const serve::JobSpec& spec) {
      serve::JobSpec solo = spec;
      solo.checkpoint_path =
          dir + "/solo" + std::to_string(spec.job_id) + ".ckp";
      const double t0 = now();
      auto job = serve::make_job(solo);
      while (!job->done()) job->advance(p.quantum);
      const double service = now() - t0;
      if (!bad[spec.job_id] && file_bytes(solo.checkpoint_path) !=
                                   file_bytes(spec.checkpoint_path)) {
        rep.fail("job " + std::to_string(spec.job_id) +
                 ": standalone checkpoint differs");
        bad[spec.job_id] = true;
      }
      return service;
    };
    for (const std::size_t i :
         sample_indices(in.backlog.size(), kVerifyBatch, pick)) {
      const serve::JobSpec& spec = in.backlog[i];
      verify_job(spec);
      const auto ck = io::read_checkpoint<D>(spec.checkpoint_path);
      const std::string copy =
          dir + "/copy" + std::to_string(spec.job_id) + ".ckp";
      const double t0 = now();
      io::write_checkpoint<D>(copy, ck.config, ck.particles);
      const double t1 = now();
      out.checkpoint_ms.push_back(1e3 * (t1 - t0));
      out.checkpoint_bytes.push_back(
          static_cast<double>(std::filesystem::file_size(copy)));
      if (log) {
        log->add({"write_checkpoint", -1, wb::kRoot,
                  static_cast<std::int64_t>(spec.job_id), kMainLane, t0, t1});
      }
      if (!bad[spec.job_id] && file_bytes(copy) != file_bytes(spec.checkpoint_path)) {
        rep.fail("job " + std::to_string(spec.job_id) +
                 ": checkpoint read/write round trip differs");
        bad[spec.job_id] = true;
      }
    }
    for (const std::size_t k :
         sample_indices(in.arrivals.size(), kVerifyInteractive, pick)) {
      const double service = verify_job(in.arrivals[k].spec);
      out.queue_ms.push_back(out.latency_ms[k] - 1e3 * service);
    }
  }
  sched.reset();
  team.reset();
  std::filesystem::remove_all(dir);
  return out;
}

template <int D>
void run_serve(const Args& a, Report& rep) {
  const ServeParams p = serve_params(a);
  if (a.tmp.empty()) throw std::invalid_argument("serve needs --tmp");
  std::printf("serve: workers=%d quantum=%llu arrivals/s=%g seed=%llu\n",
              p.workers, static_cast<unsigned long long>(p.quantum), p.rate,
              static_cast<unsigned long long>(a.seed));
  const auto report_pass = [](const ServeOutcome& o) {
    const perf::ServeSummary sum = serve::serve_summary(o.stats);
    std::printf("pass: %llu jobs, %zu interactive, %llu quanta, %llu steals, "
                "worker balance %.3f, %.2f s in run(); backlog outlasted the "
                "last arrival by %.2f s\n",
                static_cast<unsigned long long>(o.stats.jobs_completed),
                o.latency_ms.size(),
                static_cast<unsigned long long>(o.stats.quanta),
                static_cast<unsigned long long>(o.stats.steals), sum.balance,
                o.stats.run_seconds, o.backlog_margin_s);
  };

  if (!a.trace) {
    const ServeOutcome o = serve_pass<D>(p, a.seed, a.seconds, a.tmp,
                                         kSetupReps, true, nullptr, rep);
    report_pass(o);
    rep.metric("setup_s", o.setup_s, "s");
    rep.metric("particle_steps_per_s", o.particle_steps_per_s, "1/s");
    rep.metric("jobs_per_s", o.jobs_per_s, "1/s");
    rep.metric("interactive_ms_p50", o.latency_ms_p50, "ms");
    rep.metric("interactive_ms_p99", wb::percentile(o.latency_ms, 99), "ms");
    rep.metric("peak_rss_mb", o.peak_rss_mb, "MB");
    return;
  }

  const ServeOutcome ref = serve_pass<D>(p, a.seed, 0.5 * a.seconds, a.tmp, 1,
                                         false, nullptr, rep);
  wb::SpanLog log;
  const ServeOutcome o = serve_pass<D>(p, a.seed, 0.5 * a.seconds, a.tmp, 1,
                                       true, &log, rep);
  report_pass(o);
  const SpanTree tree = resolve(log, a.spans);
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    if (tree.spans[i].name == "request") lag_ms.push_back(1e3 * tree.self[i]);
  }
  const perf::ServeSummary sum = serve::serve_summary(o.stats);
  const double jobs = static_cast<double>(o.stats.jobs_completed);
  rep.metric("serve.job_build_ms_p50", wb::median(o.build_ms), "ms");
  rep.metric("serve.interactive_queue_ms_p50", wb::median(o.queue_ms), "ms");
  rep.metric("serve.busy_frac",
             ratio(1e-9 * static_cast<double>(o.stats.advance_ns),
                   o.stats.run_seconds * o.stats.workers),
             "ratio");
  rep.metric("serve.overhead_frac", sum.overhead_fraction, "ratio");
  rep.metric("serve.worker_balance", sum.balance, "ratio");
  rep.metric("serve.quanta_per_job",
             ratio(static_cast<double>(o.stats.quanta), jobs), "count");
  rep.metric("serve.steals_per_job",
             ratio(static_cast<double>(o.stats.steals), jobs), "count");
  rep.metric("serve.generator_lag_ms_p99", wb::percentile(lag_ms, 99), "ms");
  rep.metric("io.checkpoint_ms", wb::median(o.checkpoint_ms), "ms");
  rep.metric("io.checkpoint_bytes", wb::median(o.checkpoint_bytes), "B");
  // The scheduler mutes the library tracer inside job quanta, so tracing
  // runs only on the generator thread: make_job phases and the benchmark's
  // spans.  Compare the generator's time per arrival there.
  rep.metric("trace.overhead_frac",
             ratio(wb::median(o.admit_ms), wb::median(ref.admit_ms)) - 1.0,
             "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    Report rep;
    const int dim = a.integer("dim");
    if (dim != 2 && dim != 3) throw std::invalid_argument("dim must be 2 or 3");
    if (a.kind == "sim") {
      dim == 2 ? run_sim<2>(a, rep) : run_sim<3>(a, rep);
    } else if (a.kind == "serve") {
      dim == 2 ? run_serve<2>(a, rep) : run_serve<3>(a, rep);
    } else {
      throw std::invalid_argument("--kind must be sim or serve");
    }
    rep.metric("failed_frac",
               ratio(static_cast<double>(rep.failed()),
                     static_cast<double>(rep.attempted())),
               "ratio");
    rep.print_json();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
