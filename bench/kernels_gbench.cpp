// Host-side kernel microbenchmarks (google-benchmark): regression tracking
// for the hot paths — force loop over links, link generation, binning,
// reordering, halo packing and the atomic accumulate.
#include <benchmark/benchmark.h>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/link_list.hpp"
#include "core/rebuild.hpp"
#include "mp/indexed.hpp"
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace hdem {
namespace {

struct System {
  SimConfig<3> cfg;
  Boundary<3> bc;
  ParticleStore<3> store;
  CellGrid<3> grid;
  LinkList list;

  explicit System(std::uint64_t n, bool reorder) {
    cfg.box = Vec<3>(SimConfig<3>::paper_box_edge(n));
    cfg.reorder = reorder;
    bc = Boundary<3>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, n)) {
      store.push_back(p.pos, p.vel);
    }
    std::array<bool, 3> wrap{};
    wrap.fill(true);
    grid.configure(Vec<3>{}, cfg.box, cfg.cutoff(), wrap);
    grid.bin(store.positions(), store.size());
    if (reorder) {
      store.apply_permutation(grid.order(), store.size());
      grid.reset_order_to_identity();
    }
    rebuild_links();
  }

  void rebuild_links() {
    build_links(list, grid, store.cpositions(), store.size(), cfg.cutoff(),
                bc.pair_disp());
  }
};

// System, templated over dimension, for the SIMD width series (always
// cell-ordered — the layout the batched kernel's vector gathers assume in
// production).
template <int D>
struct SystemD {
  SimConfig<D> cfg;
  Boundary<D> bc;
  ParticleStore<D> store;
  CellGrid<D> grid;
  LinkList list;

  explicit SystemD(std::uint64_t n) {
    cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
    bc = Boundary<D>(cfg.bc, cfg.box);
    for (const auto& p : uniform_random_particles(cfg, n)) {
      store.push_back(p.pos, p.vel);
    }
    std::array<bool, D> wrap{};
    wrap.fill(true);
    grid.configure(Vec<D>{}, cfg.box, cfg.cutoff(), wrap);
    grid.bin(store.positions(), store.size());
    store.apply_permutation(grid.order(), store.size());
    grid.reset_order_to_identity();
    build_links(list, grid, store.cpositions(), store.size(), cfg.cutoff(),
                bc.pair_disp());
  }
};

// Per-width ns/link of the batched pair kernel (args: n, model, width;
// model 0 = elastic, 1 = dissipative).  Widths the build or CPU cannot
// dispatch are skipped rather than silently clamped.
template <int D>
void BM_SimdForceLoop(benchmark::State& state) {
  const int width = static_cast<int>(state.range(2));
  if (width > 1 &&
      (width > simd::kMaxWidth || !simd::cpu_supports_width(width))) {
    state.SkipWithError("SIMD width not supported by this build/CPU");
    return;
  }
  SystemD<D> sys(static_cast<std::uint64_t>(state.range(0)));
  const PairDisp<D> disp = sys.bc.pair_disp();
  const ElasticSphere elastic{sys.cfg.stiffness, sys.cfg.diameter};
  const DissipativeSphere dissipative{sys.cfg.stiffness, 1.0,
                                      sys.cfg.diameter};
  const bool use_elastic = state.range(1) == 0;
  simd::set_dispatch_width(width);
  for (auto _ : state) {
    zero_forces(sys.store);
    const double pe =
        use_elastic ? accumulate_forces<D>(sys.list.core(), sys.store,
                                           elastic, disp, true, 1.0)
                    : accumulate_forces<D>(sys.list.core(), sys.store,
                                           dissipative, disp, true, 1.0);
    benchmark::DoNotOptimize(pe);
  }
  simd::set_dispatch_width(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.list.size()));
  state.counters["links"] = static_cast<double>(sys.list.size());
  state.SetLabel(std::string(use_elastic ? "elastic" : "dissipative") +
                 "/w" + std::to_string(width));
}
BENCHMARK_TEMPLATE(BM_SimdForceLoop, 2)
    ->ArgNames({"n", "model", "W"})
    ->ArgsProduct({{30000}, {0, 1}, {1, 2, 4}});
BENCHMARK_TEMPLATE(BM_SimdForceLoop, 3)
    ->ArgNames({"n", "model", "W"})
    ->ArgsProduct({{20000}, {0, 1}, {1, 2, 4}});

void BM_ForceLoop(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), state.range(1) != 0);
  const ElasticSphere model{sys.cfg.stiffness, sys.cfg.diameter};
  auto disp = [&](const Vec<3>& a, const Vec<3>& b) {
    return sys.bc.displacement(a, b);
  };
  for (auto _ : state) {
    zero_forces(sys.store);
    const double pe = accumulate_forces<3>(sys.list.core(), sys.store, model,
                                           disp, true, 1.0);
    benchmark::DoNotOptimize(pe);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.list.size()));
  state.counters["links"] = static_cast<double>(sys.list.size());
}
BENCHMARK(BM_ForceLoop)
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 1});

// Threaded force pass across the reduction strategies (args: n, strategy
// index into kAllReductionKinds, team size).  The colored strategy's
// phased conflict-free schedule should beat selected-atomic once several
// threads contend for the boundary particles; nolock is the incorrect
// free-atomic bound it is chasing.
void BM_SmpForcePass(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), true);
  const auto kind =
      kAllReductionKinds[static_cast<std::size_t>(state.range(1))];
  const int threads = static_cast<int>(state.range(2));
  smp::ThreadTeam team(threads);
  auto acc = make_accumulator<3>(kind);
  prepare_accumulator<3>(acc, threads, sys.list, sys.store.size());
  const ElasticSphere model{sys.cfg.stiffness, sys.cfg.diameter};
  auto disp = [&](const Vec<3>& a, const Vec<3>& b) {
    return sys.bc.displacement(a, b);
  };
  for (auto _ : state) {
    const double pe =
        dispatch_force_pass<3>(acc, team, sys.list, sys.store, model, disp);
    benchmark::DoNotOptimize(pe);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.list.size()));
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_SmpForcePass)
    ->ArgNames({"n", "strategy", "T"})
    ->ArgsProduct({{20000},
                   {0, 1, 2, 3, 4, 5, 6},  // kAllReductionKinds order
                   {1, 4}})
    ->Args({20000, 1, 8})   // selected-atomic at higher contention
    ->Args({20000, 6, 8})   // colored at higher contention
    ->UseRealTime();

// The whole serial link build with its statistics, cell-ordered periodic
// system (args: n, fused).  fused = 0: the serial reference build_links
// (snapshot, generate_links, build_color_plan, record_link_stats);
// fused = 1: build_links_fused on the SoloTeam every driver's rebuild runs
// at one thread.  Same list either way, so the pair prices the switch.
void BM_LinkBuild(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), true);
  const bool fused = state.range(1) != 0;
  SoloTeam solo;
  FusedBuildScratch scratch;
  std::vector<Vec<3>> cell_buf;
  for (auto _ : state) {
    Counters stats;
    if (fused) {
      build_links_fused(sys.list, sys.grid, sys.store.cpositions(),
                        sys.store.size(), sys.cfg.cutoff(), sys.bc.pair_disp(),
                        solo, scratch, cell_buf, &stats);
    } else {
      build_links(sys.list, sys.grid, sys.store.cpositions(), sys.store.size(),
                  sys.cfg.cutoff(), sys.bc.pair_disp(), &stats);
    }
    benchmark::DoNotOptimize(sys.list.links.data());
    benchmark::DoNotOptimize(stats.link_gap_sum);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(fused ? "fused/solo" : "serial-reference");
}
BENCHMARK(BM_LinkBuild)
    ->ArgNames({"n", "fused"})
    ->ArgsProduct({{20000, 100000}, {0, 1}});

// Link generation alone (snapshot + kernel, no color plan), one thread, at
// paper density (args: n, ordered).  ordered = 1: periodic box with the
// store permuted into cell order, so the kernel reads positions in place
// (SerialSim/SmpSim); ordered = 0: walled box in generation order, so the
// snapshot gathers first (the block drivers' layout).  Reported per
// candidate pair (every pair the cell stencil offers) and per link.
template <int D>
void BM_LinkGen(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const bool ordered = state.range(1) != 0;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(SimConfig<D>::paper_box_edge(n));
  cfg.bc = ordered ? BoundaryKind::kPeriodic : BoundaryKind::kWalls;
  ParticleStore<D> store;
  for (const auto& p : uniform_random_particles(cfg, n)) {
    store.push_back(p.pos, p.vel);
  }
  std::array<bool, D> wrap{};
  wrap.fill(ordered);
  CellGrid<D> grid;
  grid.configure(Vec<D>{}, cfg.box, cfg.cutoff(), wrap);
  grid.bin(store.positions(), store.size());
  if (ordered) {
    store.apply_permutation(grid.order(), store.size());
    grid.reset_order_to_identity();
  }
  const PairDisp<D> disp{cfg.box, ordered};
  double candidates = 0.0;
  for (std::int32_t c = 0; c < grid.ncells(); ++c) {
    const auto nc = static_cast<double>(grid.cell_particles(c).size());
    candidates += 0.5 * nc * (nc - 1.0);
    for (const auto& off : CellGrid<D>::half_stencil()) {
      const std::int32_t nb = grid.neighbor(c, off);
      if (nb >= 0) {
        candidates += nc * static_cast<double>(grid.cell_particles(nb).size());
      }
    }
  }
  LinkList list;
  std::vector<Vec<D>> buf;
  double seconds = 0.0;
  for (auto _ : state) {
    Timer t;
    const auto cells = snapshot_cells(grid, store.cpositions(), buf);
    generate_links(list, grid, cells, store.size(), cfg.cutoff(), disp);
    benchmark::DoNotOptimize(list.links.data());
    seconds += t.seconds();
  }
  const double ns = 1e9 * seconds / static_cast<double>(state.iterations());
  state.counters["ns_per_candidate"] = ns / candidates;
  state.counters["ns_per_link"] = ns / static_cast<double>(list.size());
  state.counters["candidates_per_particle"] =
      candidates / static_cast<double>(n);
  state.SetLabel(ordered ? "cell-ordered" : "gathered");
}
BENCHMARK_TEMPLATE(BM_LinkGen, 2)
    ->ArgNames({"n", "ordered"})
    ->ArgsProduct({{120000}, {0, 1}});
BENCHMARK_TEMPLATE(BM_LinkGen, 3)
    ->ArgNames({"n", "ordered"})
    ->ArgsProduct({{120000}, {0, 1}});

void BM_CellBinning(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), false);
  for (auto _ : state) {
    sys.grid.bin(sys.store.positions(), sys.store.size());
    benchmark::DoNotOptimize(sys.grid.order().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CellBinning)->Arg(20000)->Arg(100000);

void BM_Reorder(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), false);
  for (auto _ : state) {
    sys.grid.bin(sys.store.positions(), sys.store.size());
    sys.store.apply_permutation(sys.grid.order(), sys.store.size());
    benchmark::DoNotOptimize(sys.store.positions().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Reorder)->Arg(20000)->Arg(100000);

void BM_PositionUpdate(benchmark::State& state) {
  System sys(static_cast<std::uint64_t>(state.range(0)), true);
  for (auto _ : state) {
    kick_drift(sys.store, sys.store.size(), sys.cfg.dt, Vec<3>{}, sys.bc);
    benchmark::DoNotOptimize(sys.store.positions().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PositionUpdate)->Arg(20000)->Arg(100000);

void BM_HaloPack(benchmark::State& state) {
  System sys(20000, true);
  // A template covering ~10% of the particles, strided.
  mp::IndexedType idx;
  for (std::size_t i = 0; i < sys.store.size(); i += 10) {
    idx.add(static_cast<std::int32_t>(i));
  }
  std::vector<Vec<3>> out(idx.count());
  for (auto _ : state) {
    idx.pack(sys.store.cpositions(), std::span<Vec<3>>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(idx.count()));
}
BENCHMARK(BM_HaloPack);

void BM_AtomicAdd(benchmark::State& state) {
  alignas(64) double target = 0.0;
  for (auto _ : state) {
    smp::atomic_add(target, 1.0);
  }
  benchmark::DoNotOptimize(target);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AtomicAdd);

}  // namespace
}  // namespace hdem

BENCHMARK_MAIN();
