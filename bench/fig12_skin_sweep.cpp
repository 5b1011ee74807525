// Figure 12 (extension) — Verlet skin lists: candidate links are built out
// to rc + skin and the list is reused until accumulated drift could close
// the widened gap, skipping the whole rebuild pipeline (binning, reorder,
// link generation — and on the mp path the migration check, the
// halo-template refresh and any shared-window republication) on every
// reused step.
//
// Two gated claims:
//   1. Bit-identity: the skin changes *when* lists rebuild, never *what*
//      the force pass computes.  Candidate sets are supersets and the pair
//      kernel distance-gates (non-contact links are exact no-ops), so with
//      the binning capacity pinned (--skin-cap keeps the cell geometry,
//      reorder permutation and traversal order identical) and a workload
//      whose rebuild schedules coincide — here: no post-init rebuild falls
//      inside the 120-step window at any swept skin — trajectories are
//      bit-identical across skin x driver x team size (DESIGN §3.7).
//   2. Throughput: on a settled workload whose drift invalidates the
//      skinless list every step, the best swept skin trades a slightly
//      larger candidate list for rebuilds every 2+ steps and must deliver
//      >= 1.3x steps/sec on this host.  A hot workload is reported
//      alongside: when per-step drift exceeds even the widened allowance
//      the skin only inflates the force pass and cannot pay.
//
// The cost model's amortised rebuild term works from measured counts
// (rebuilds / iterations), so its predicted rebuild-time drop across the
// sweep must track the host-measured rebuild-phase nanoseconds; the check
// gates the ratio within a factor of 2.  Results land in
// results/BENCH_skin.json; any gate failure exits nonzero.
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"

using namespace hdem;
using namespace hdem::bench;

namespace {

// Sorted-by-id snapshot of a shared-memory driver's store (the decomposed
// driver's gather_state already returns this shape).
template <int D>
std::vector<StateRecord<D>> snapshot_records(const ParticleStore<D>& store) {
  std::vector<StateRecord<D>> out(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::size_t>(store.id(i));
    out[id] = {store.id(i), store.pos(i), store.vel(i)};
  }
  return out;
}

template <int D>
bool records_identical(const std::vector<StateRecord<D>>& a,
                       const std::vector<StateRecord<D>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].pos, &b[i].pos, sizeof(Vec<D>)) != 0 ||
        std::memcmp(&a[i].vel, &b[i].vel, sizeof(Vec<D>)) != 0) {
      return false;
    }
  }
  return true;
}

struct IdentityRun {
  std::vector<StateRecord<2>> state;
  Counters counters;  // rank 0's / the driver's counters
};

// The identity workload: paper density, gentle velocities and a reduced dt
// so that 120 steps of measured drift stay below even the skinless
// allowance 0.5*(rc - rmax) — every run keeps its constructor-built list,
// so the rebuild schedules (which are bit-visible) coincide trivially
// while contacts still fire every step.
SimConfig<2> identity_config(double skin, double skin_cap) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(4000));
  cfg.seed = 71;
  cfg.velocity_scale = 0.05;
  cfg.dt = 2.5e-4;
  cfg.skin_factor = skin;
  cfg.skin_cap_factor = skin_cap;
  return cfg;
}

IdentityRun run_identity_serial(double skin, double skin_cap,
                                std::span<const ParticleInit<2>> init,
                                int steps) {
  const auto cfg = identity_config(skin, skin_cap);
  SerialSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
  sim.run(static_cast<std::uint64_t>(steps));
  return {snapshot_records<2>(sim.store()), sim.counters()};
}

IdentityRun run_identity_smp(double skin, double skin_cap, int nthreads,
                             std::span<const ParticleInit<2>> init,
                             int steps) {
  const auto cfg = identity_config(skin, skin_cap);
  SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                nthreads, ReductionKind::kColored);
  sim.run(static_cast<std::uint64_t>(steps));
  return {snapshot_records<2>(sim.store()), sim.counters()};
}

IdentityRun run_identity_mp(double skin, double skin_cap, int nthreads,
                            std::span<const ParticleInit<2>> init,
                            int steps) {
  const auto cfg = identity_config(skin, skin_cap);
  const auto layout = DecompLayout<2>::make(4, 1);
  typename MpSim<2>::Options opts;
  opts.nthreads = nthreads;
  // The atomic-family reductions are not run-to-run reproducible at T > 1;
  // the identity gate pins the deterministic colored reduction.
  opts.reduction = ReductionKind::kColored;
  IdentityRun out;
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, ElasticSphere{cfg.stiffness, cfg.diameter},
                 init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto s = sim.gather_state();
    if (comm.rank() == 0) {
      out.state = std::move(s);
      out.counters = sim.counters();
    }
  });
  return out;
}

// steps/sec over the measured window (warmup excluded), best-of-reps.
perf::MeasuredRun measure_best(const perf::MeasureSpec& spec, int reps) {
  perf::MeasuredRun best = perf::measure_run(spec);
  for (int r = 1; r < reps; ++r) {
    perf::MeasuredRun m = perf::measure_run(spec);
    if (m.host_seconds < best.host_seconds) best = std::move(m);
  }
  return best;
}

double steps_per_sec(const perf::MeasuredRun& m) {
  return m.host_seconds > 0.0
             ? static_cast<double>(m.run.iterations) / m.host_seconds
             : 0.0;
}

// Host-measured rebuild-pipeline nanoseconds per iteration in the window.
double rebuild_ns_per_iter(const perf::RunMeasurement& run) {
  const double ns = static_cast<double>(
      run.agg.rebuild_bin_ns + run.agg.rebuild_reorder_ns +
      run.agg.rebuild_linkgen_ns);
  return run.iterations ? ns / static_cast<double>(run.iterations) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto steps = static_cast<int>(
      cli.integer("steps", 120, "identity-gate trajectory length"));
  const auto n_perf = static_cast<std::uint64_t>(
      cli.integer("n", 20'000, "particles for the throughput sweep (D=2)"));
  const auto iters = static_cast<std::uint64_t>(
      cli.integer("iters", 40, "measured iterations per throughput point"));
  const auto reps = static_cast<int>(
      cli.integer("reps", 3, "repetitions per point (best-of)"));
  if (cli.finish()) return 0;

  const double identity_skins[] = {0.0, 0.1, 0.3};
  const double kCap = 0.3;  // pinned binning capacity = max swept skin
  bool identity_ok = true;

  std::ostringstream out;
  out << "== Fig 12: Verlet skin lists (skin = delta/rc; candidates at "
         "rc*(1+skin)) ==\n\n";
  out << "Identity gate: " << steps << "-step trajectories, binning "
         "capacity pinned at rc*(1+" << kCap << ") for every run\n";
  Table ti({"skin", "driver", "T", "identical", "rebuilds", "skipped",
            "contacts", "links_core"});
  std::ostringstream json;
  json << "{\n  \"identity_gate\": [";

  const auto cfg0 = identity_config(0.0, kCap);
  const auto init = uniform_random_particles(cfg0, 4000);
  // Bit identity is a *per-driver* invariant: each driver/team combination
  // has its own summation order, so its skin-0 run is its own baseline.
  // (mp vs serial is a tolerance comparison elsewhere, not a bit one.)
  std::map<std::string, std::vector<StateRecord<2>>> baselines;
  std::uint64_t links_core_min = 0, links_core_max = 0;
  bool first = true;
  for (const double skin : identity_skins) {
    for (const char* driver : {"serial", "smp", "mp"}) {
      for (const int T : {1, 2, 4}) {
        if (std::strcmp(driver, "serial") == 0 && T > 1) continue;
        IdentityRun r;
        if (std::strcmp(driver, "serial") == 0) {
          r = run_identity_serial(skin, kCap, init, steps);
        } else if (std::strcmp(driver, "smp") == 0) {
          r = run_identity_smp(skin, kCap, T, init, steps);
        } else {
          r = run_identity_mp(skin, kCap, T, init, steps);
        }
        auto& ref = baselines[std::string(driver) + "/" + std::to_string(T)];
        if (ref.empty()) ref = r.state;
        const bool same = records_identical<2>(ref, r.state);
        // The workload must be non-trivial (contacts every step) and the
        // schedules must coincide: only the constructor's build, with
        // every subsequent step served off the reused list.
        const bool schedule_ok =
            r.counters.rebuilds == 1 && r.counters.contacts > 0 &&
            r.counters.rebuilds_skipped ==
                static_cast<std::uint64_t>(steps) - 1;
        identity_ok = identity_ok && same && schedule_ok;
        if (std::strcmp(driver, "serial") == 0) {
          if (skin == identity_skins[0]) links_core_min = r.counters.links_core;
          links_core_max = r.counters.links_core;
        }
        ti.add_row({Table::num(skin, 1), driver, std::to_string(T),
                    same && schedule_ok ? "yes" : "NO",
                    std::to_string(r.counters.rebuilds),
                    std::to_string(r.counters.rebuilds_skipped),
                    std::to_string(r.counters.contacts),
                    std::to_string(r.counters.links_core)});
        json << (first ? "" : ",") << "\n    {\"skin\": " << skin
             << ", \"driver\": \"" << driver << "\", \"nthreads\": " << T
             << ", \"steps\": " << steps
             << ", \"identical\": " << (same ? "true" : "false")
             << ", \"rebuilds\": " << r.counters.rebuilds
             << ", \"rebuilds_skipped\": " << r.counters.rebuilds_skipped
             << ", \"migrations_skipped\": " << r.counters.migrations_skipped
             << ", \"contacts\": " << r.counters.contacts
             << ", \"links_core\": " << r.counters.links_core << "}";
        first = false;
      }
    }
  }
  // The superset must be real: a wider skin must generate more candidates
  // (all of them exact no-ops in the force pass, or the rows above would
  // say NO).
  const bool superset_ok = links_core_max > links_core_min;
  identity_ok = identity_ok && superset_ok;
  out << ti.render() << "\n";
  out << "candidate links (serial): " << links_core_min << " at skin 0 -> "
      << links_core_max << " at skin 0.3 ("
      << (superset_ok ? "superset is non-trivial" : "NO SPREAD — GATE FAILS")
      << ")\n\n";

  // -- throughput sweep -------------------------------------------------------
  // settled: per-step drift just above the skinless allowance, so skin = 0
  // rebuilds every step and a modest skin halves (or better) the rebuild
  // frequency.  hot: drift exceeds even the widened allowances — the skin
  // cannot pay and the table shows it honestly.
  const double sweep_skins[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5};
  struct Workload {
    const char* name;
    double velocity_scale;
  };
  const Workload workloads[] = {{"settled", 18.0}, {"hot", 60.0}};

  json << "\n  ],\n  \"throughput\": [";
  first = true;
  double best_speedup = 0.0, best_skin = 0.0;
  perf::MeasuredRun settled_base, settled_best;
  Table tp({"workload", "skin", "steps/s", "speedup", "rebuilds/iter",
            "links_core", "reuse"});
  for (const auto& w : workloads) {
    double base_sps = 0.0;
    for (const double skin : sweep_skins) {
      perf::MeasureSpec spec;
      spec.D = 2;
      spec.n = n_perf;
      spec.mode = perf::MeasureSpec::Mode::kSerial;
      spec.skin = skin;
      spec.velocity_scale = w.velocity_scale;
      spec.warmup = 2;
      spec.iterations = iters;
      const auto m = measure_best(spec, reps);
      const double sps = steps_per_sec(m);
      if (skin == 0.0) base_sps = sps;
      const double speedup = base_sps > 0.0 ? sps / base_sps : 0.0;
      const auto reuse = perf::reuse_summary(m.run.agg);
      if (std::strcmp(w.name, "settled") == 0) {
        if (skin == 0.0) settled_base = m;
        if (speedup > best_speedup) {
          best_speedup = speedup;
          best_skin = skin;
          settled_best = m;
        }
      }
      tp.add_row({w.name, Table::num(skin, 2), Table::num(sps, 1),
                  Table::num(speedup, 3) + "x",
                  Table::num(static_cast<double>(m.run.agg.rebuilds) /
                                 static_cast<double>(m.run.iterations),
                             2),
                  std::to_string(m.run.agg.links_core),
                  perf::reuse_line(reuse)});
      json << (first ? "" : ",") << "\n    {\"workload\": \"" << w.name
           << "\", \"skin\": " << skin << ", \"velocity_scale\": "
           << w.velocity_scale << ", \"steps_per_sec\": " << sps
           << ", \"speedup\": " << speedup
           << ", \"rebuilds\": " << m.run.agg.rebuilds
           << ", \"rebuilds_skipped\": " << m.run.agg.rebuilds_skipped
           << ", \"iterations\": " << m.run.iterations
           << ", \"links_core\": " << m.run.agg.links_core
           << ", \"mean_reuse_interval\": " << reuse.mean_reuse_interval
           << "}";
      first = false;
    }
  }
  out << tp.render() << "\n";
  const bool speedup_ok = best_speedup >= 1.3;
  out << "best settled speedup: " << Table::num(best_speedup, 3) << "x at skin "
      << Table::num(best_skin, 2) << " (gate: >= 1.3x) -> "
      << (speedup_ok ? "PASS" : "FAIL") << "\n\n";

  // -- mp reuse counters ------------------------------------------------------
  // The decomposed driver must convert every reused step into a skipped
  // migration check and a skipped halo-template refresh as well.
  perf::MeasureSpec mspec;
  mspec.D = 2;
  mspec.n = n_perf;
  mspec.mode = perf::MeasureSpec::Mode::kMp;
  mspec.nprocs = 2;
  mspec.blocks_per_proc = 2;
  mspec.skin = best_skin;
  mspec.velocity_scale = 18.0;
  mspec.warmup = 2;
  mspec.iterations = iters;
  const auto mp_run = perf::measure_run(mspec);
  const auto mp_reuse = perf::reuse_summary(mp_run.run.agg);
  // Ranks skip the same steps (the reuse decision is global), so the
  // merged counters keep the per-run value; all three must agree.
  const bool mp_ok =
      mp_run.run.agg.rebuilds_skipped > 0 &&
      mp_run.run.agg.migrations_skipped == mp_run.run.agg.rebuilds_skipped &&
      mp_run.run.agg.halo_rebuilds_skipped == mp_run.run.agg.rebuilds_skipped;
  out << "mp reuse (P=2, B/P=2, skin " << Table::num(best_skin, 2)
      << "): " << perf::reuse_line(mp_reuse) << " -> "
      << (mp_ok ? "migration + halo-template skips track list reuse"
                : "COUNTER MISMATCH")
      << "\n\n";

  // -- cost-model check -------------------------------------------------------
  // The model's rebuild term is amortised by the measured reuse interval
  // (rebuilds / iterations) and inflated by the measured per-rebuild
  // counts; its predicted drop from skin 0 to the best skin must track the
  // host-measured rebuild-phase time within a factor of 2.
  const auto model_rebuild = [](const perf::RunMeasurement& run) {
    return perf::CostModel::predict(perf::compaq_es40_cluster(), run).rebuild;
  };
  const double measured_0 = rebuild_ns_per_iter(settled_base.run);
  const double measured_b = rebuild_ns_per_iter(settled_best.run);
  const double modeled_0 = model_rebuild(settled_base.run);
  const double modeled_b = model_rebuild(settled_best.run);
  const double measured_ratio = measured_0 > 0.0 ? measured_b / measured_0 : 0.0;
  const double modeled_ratio = modeled_0 > 0.0 ? modeled_b / modeled_0 : 0.0;
  const double agreement =
      measured_ratio > 0.0 ? modeled_ratio / measured_ratio : 0.0;
  const bool model_ok = agreement >= 0.5 && agreement <= 2.0;
  out << "cost model: amortised rebuild term skin " << Table::num(best_skin, 2)
      << " / skin 0 = " << Table::num(modeled_ratio, 3)
      << " (modeled) vs " << Table::num(measured_ratio, 3)
      << " (host rebuild-phase ns); agreement " << Table::num(agreement, 2)
      << "x (tolerance 0.5-2.0x) -> " << (model_ok ? "PASS" : "FAIL") << "\n\n";

  json << "\n  ],\n  \"mp_reuse\": {\"skin\": " << best_skin
       << ", \"rebuilds_skipped\": " << mp_run.run.agg.rebuilds_skipped
       << ", \"migrations_skipped\": " << mp_run.run.agg.migrations_skipped
       << ", \"halo_rebuilds_skipped\": "
       << mp_run.run.agg.halo_rebuilds_skipped
       << ", \"window_republishes\": " << mp_run.run.agg.window_republishes
       << ", \"counters_consistent\": " << (mp_ok ? "true" : "false")
       << "},\n  \"model_check\": {\"measured_rebuild_ratio\": "
       << measured_ratio << ", \"modeled_rebuild_ratio\": " << modeled_ratio
       << ", \"agreement\": " << agreement
       << ", \"tolerance\": [0.5, 2.0], \"ok\": "
       << (model_ok ? "true" : "false")
       << "},\n  \"gates\": {\"identity\": "
       << (identity_ok ? "true" : "false")
       << ", \"best_settled_speedup\": " << best_speedup
       << ", \"best_skin\": " << best_skin
       << ", \"speedup_ok\": " << (speedup_ok ? "true" : "false")
       << ", \"model_ok\": " << (model_ok ? "true" : "false") << "}\n}\n";

  out << "Shape checks:\n"
      << "  - every identity row says yes with rebuilds=1: the skin's extra\n"
      << "    candidates are exact no-ops and only the rebuild schedule\n"
      << "    (held fixed here by construction) is bit-visible\n"
      << "  - settled speedup peaks at a small skin: the candidate list\n"
      << "    grows ~(1+skin)^2 while the rebuild term falls as\n"
      << "    1/interval, so a large skin gives the win back\n"
      << "  - hot speedups sit at or below 1x: no reuse interval to win\n"
      << "  - mp skips: migrations_skipped and halo_rebuilds_skipped equal\n"
      << "    rebuilds_skipped — the whole pipeline is skipped together\n";
  perf::save_artifact("BENCH_skin.json", json.str());
  out << "Per-configuration results written to results/BENCH_skin.json\n";
  emit("fig12.txt", out.str());
  if (!identity_ok || !speedup_ok || !model_ok || !mp_ok) {
    std::fputs("FAIL: skin identity/speedup/model gate\n", stderr);
    return 1;
  }
  return 0;
}
