// Rebuild-pipeline determinism: the parallel counting sort, parallel
// reorder and fused color-tagged link build must reproduce their serial
// counterparts byte-for-byte for any team size, and whole trajectories
// must therefore be thread-count-independent.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/config.hpp"
#include "core/init.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "core/rebuild.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "smp/thread_team.hpp"

namespace hdem {
namespace {

const int kTeams[] = {1, 2, 4, 7};

template <int D>
std::vector<Vec<D>> random_positions(std::uint64_t n, std::uint64_t seed) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.seed = seed;
  std::vector<Vec<D>> pos;
  for (const auto& p : uniform_random_particles(cfg, n)) {
    pos.push_back(p.pos);
  }
  return pos;
}

template <int D>
void expect_same_binning(bool wrapped, std::uint64_t n) {
  const auto pos = random_positions<D>(n, 7 + static_cast<std::uint64_t>(D));
  std::array<bool, D> wrap{};
  wrap.fill(wrapped);
  CellGrid<D> serial;
  serial.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
  serial.bin(pos, n);
  for (const int t : kTeams) {
    smp::ThreadTeam team(t);
    CellGrid<D> par;
    par.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
    par.bin_parallel(pos, n, team);
    ASSERT_EQ(par.starts(), serial.starts()) << "T=" << t;
    ASSERT_EQ(par.order(), serial.order()) << "T=" << t;
  }
}

TEST(RebuildBin, ParallelMatchesSerial2D) {
  expect_same_binning<2>(true, 3000);
  expect_same_binning<2>(false, 3000);
}

TEST(RebuildBin, ParallelMatchesSerial3D) {
  expect_same_binning<3>(true, 3000);
  expect_same_binning<3>(false, 3000);
}

TEST(RebuildBin, ParallelHandlesTinyInputs) {
  // More threads than particles / cells.
  const auto pos = random_positions<2>(5, 11);
  std::array<bool, 2> wrap{};
  CellGrid<2> serial, par;
  serial.configure(Vec<2>{}, Vec<2>(1.0), 0.3, wrap);
  serial.bin(pos, 5);
  smp::ThreadTeam team(7);
  par.configure(Vec<2>{}, Vec<2>(1.0), 0.3, wrap);
  par.bin_parallel(pos, 5, team);
  EXPECT_EQ(par.starts(), serial.starts());
  EXPECT_EQ(par.order(), serial.order());
}

TEST(RebuildReorder, ParallelPermutationMatchesSerial) {
  const std::uint64_t n = 2000;
  SimConfig<3> cfg;
  cfg.box = Vec<3>(1.0);
  cfg.seed = 5;
  const auto init = uniform_random_particles(cfg, n);
  ParticleStore<3> a, b;
  for (std::size_t i = 0; i < init.size(); ++i) {
    a.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
    b.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
  }
  std::array<bool, 3> wrap{};
  wrap.fill(true);
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, cfg.box, 0.08, wrap);
  grid.bin(a.cpositions(), n);
  a.apply_permutation(grid.order(), n);
  for (const int t : kTeams) {
    smp::ThreadTeam team(t);
    ParticleStore<3> c;
    for (std::size_t i = 0; i < init.size(); ++i) {
      c.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
    }
    c.apply_permutation_parallel(grid.order(), n, team);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(c.id(i), a.id(i)) << "T=" << t << " i=" << i;
      for (int d = 0; d < 3; ++d) {
        ASSERT_EQ(c.pos(i)[d], a.pos(i)[d]) << "T=" << t;
        ASSERT_EQ(c.vel(i)[d], a.vel(i)[d]) << "T=" << t;
      }
    }
  }
  (void)b;
}

// SoloTeam (the serial driver's inline team) is a one-member team: the
// same binning and the same permutation as ThreadTeam(1).
template <int D>
void expect_solo_binning(bool wrapped, std::uint64_t n) {
  const auto pos = random_positions<D>(n, 13 + static_cast<std::uint64_t>(D));
  std::array<bool, D> wrap{};
  wrap.fill(wrapped);
  smp::ThreadTeam one(1);
  SoloTeam solo;
  CellGrid<D> a, b;
  a.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
  b.configure(Vec<D>{}, Vec<D>(1.0), 0.06, wrap);
  a.bin_parallel(pos, n, one);
  b.bin_parallel(pos, n, solo);
  ASSERT_EQ(b.starts(), a.starts());
  ASSERT_EQ(b.order(), a.order());
}

TEST(RebuildBin, SoloTeamMatchesOneThread) {
  expect_solo_binning<2>(true, 3000);
  expect_solo_binning<2>(false, 3000);
  expect_solo_binning<3>(true, 3000);
  expect_solo_binning<3>(false, 3000);
}

TEST(RebuildReorder, SoloTeamMatchesOneThread) {
  const std::uint64_t n = 2000;
  SimConfig<3> cfg;
  cfg.box = Vec<3>(1.0);
  cfg.seed = 6;
  const auto init = uniform_random_particles(cfg, n);
  ParticleStore<3> a, b;
  for (std::size_t i = 0; i < init.size(); ++i) {
    a.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
    b.push_back(init[i].pos, init[i].vel, static_cast<std::int32_t>(i));
  }
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, cfg.box, 0.08, wrap_flags<3>(true));
  grid.bin(a.cpositions(), n);
  smp::ThreadTeam one(1);
  SoloTeam solo;
  a.apply_permutation_parallel(grid.order(), n, one);
  b.apply_permutation_parallel(grid.order(), n, solo);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(b.id(i), a.id(i)) << "i=" << i;
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(b.pos(i)[d], a.pos(i)[d]) << "i=" << i;
      ASSERT_EQ(b.vel(i)[d], a.vel(i)[d]) << "i=" << i;
    }
  }
}

template <int D>
void expect_same_links(const CellGrid<D>& grid, std::span<const Vec<D>> pos,
                       std::size_t ncore, double rc, const Boundary<D>& bc) {
  const PairDisp<D> disp = bc.pair_disp();
  LinkList serial;
  build_links(serial, grid, pos, ncore, rc, disp);
  ASSERT_GT(serial.size(), 0u);
  for (const int t : kTeams) {
    smp::ThreadTeam team(t);
    LinkList fused;
    FusedBuildScratch scratch;
    std::vector<Vec<D>> cell_buf;
    build_links_fused(fused, grid, pos, ncore, rc, disp, team, scratch,
                      cell_buf);
    ASSERT_EQ(fused.n_core, serial.n_core) << "T=" << t;
    ASSERT_EQ(fused.size(), serial.size()) << "T=" << t;
    for (std::size_t l = 0; l < serial.size(); ++l) {
      ASSERT_EQ(fused.links[l].i, serial.links[l].i) << "T=" << t << " l=" << l;
      ASSERT_EQ(fused.links[l].j, serial.links[l].j) << "T=" << t << " l=" << l;
    }
    EXPECT_EQ(fused.plan.nchunks, serial.plan.nchunks);
    EXPECT_EQ(fused.plan.ncolors, serial.plan.ncolors);
    EXPECT_EQ(fused.plan.core_lo, serial.plan.core_lo) << "T=" << t;
    EXPECT_EQ(fused.plan.core_hi, serial.plan.core_hi) << "T=" << t;
    EXPECT_EQ(fused.plan.halo_lo, serial.plan.halo_lo) << "T=" << t;
    EXPECT_EQ(fused.plan.halo_hi, serial.plan.halo_hi) << "T=" << t;
  }
}

template <int D>
void fused_case(BoundaryKind kind, double rc, std::uint64_t n) {
  const auto pos = random_positions<D>(n, 31 + static_cast<std::uint64_t>(D));
  Boundary<D> bc(kind, Vec<D>(1.0));
  std::array<bool, D> wrap{};
  wrap.fill(kind == BoundaryKind::kPeriodic);
  CellGrid<D> grid;
  grid.configure(Vec<D>{}, Vec<D>(1.0), rc, wrap);
  grid.bin(pos, n);
  expect_same_links<D>(grid, pos, n, rc, bc);
}

TEST(RebuildFusedLinks, MatchesSerialPeriodic2D) {
  fused_case<2>(BoundaryKind::kPeriodic, 0.05, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWalls2D) {
  fused_case<2>(BoundaryKind::kWalls, 0.05, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialPeriodic3D) {
  fused_case<3>(BoundaryKind::kPeriodic, 0.12, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWalls3D) {
  fused_case<3>(BoundaryKind::kWalls, 0.12, 2000);
}

TEST(RebuildFusedLinks, MatchesSerialWithHaloParticles) {
  // Block-style build: no wrap, plain displacement, trailing particles are
  // halo copies (core-halo links must land in the halo section, core end
  // first, and halo-halo pairs must be dropped — same as build_links).
  const std::uint64_t n = 1500;
  const std::size_t ncore = 1100;
  const auto pos = random_positions<3>(n, 77);
  Boundary<3> bc(BoundaryKind::kWalls, Vec<3>(1.0));
  std::array<bool, 3> wrap{};
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, Vec<3>(1.0), 0.12, wrap);
  grid.bin(pos, n);
  expect_same_links<3>(grid, pos, ncore, 0.12, bc);
}

// -- the drivers' lists are the serial reference's ----------------------

// Every driver builds its lists with the fused build; these pin that the
// result is exactly build_links on the driver's own grid and positions
// (links, n_core, color plan), and that the link statistics in Counters
// are exactly record_link_stats of those lists.
void expect_same_list(const LinkList& got, const LinkList& want,
                      const std::string& what) {
  ASSERT_EQ(got.n_core, want.n_core) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t l = 0; l < want.size(); ++l) {
    ASSERT_EQ(got.links[l].i, want.links[l].i) << what << " l=" << l;
    ASSERT_EQ(got.links[l].j, want.links[l].j) << what << " l=" << l;
  }
  EXPECT_EQ(got.plan.nchunks, want.plan.nchunks) << what;
  EXPECT_EQ(got.plan.ncolors, want.plan.ncolors) << what;
  EXPECT_EQ(got.plan.core_lo, want.plan.core_lo) << what;
  EXPECT_EQ(got.plan.core_hi, want.plan.core_hi) << what;
  EXPECT_EQ(got.plan.halo_lo, want.plan.halo_lo) << what;
  EXPECT_EQ(got.plan.halo_hi, want.plan.halo_hi) << what;
}

// The link statistics one rebuild added: the current sizes, plus the gap
// tallies accumulated since `before`.
void expect_rebuild_stats(const Counters& after, const Counters& before,
                          const Counters& want, const std::string& what) {
  EXPECT_EQ(after.links_core, want.links_core) << what;
  EXPECT_EQ(after.links_halo, want.links_halo) << what;
  EXPECT_EQ(after.link_gap_sum - before.link_gap_sum, want.link_gap_sum)
      << what;
  EXPECT_EQ(after.link_gap_count - before.link_gap_count,
            want.link_gap_count)
      << what;
  for (int b = 0; b < Counters::kGapBuckets; ++b) {
    EXPECT_EQ(after.link_gap_hist[b] - before.link_gap_hist[b],
              want.link_gap_hist[b])
        << what << " bucket " << b;
  }
}

template <int D>
void serial_list_case(BoundaryKind bc, bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = bc;
  cfg.seed = 21;
  cfg.velocity_scale = 0.8;
  cfg.reorder = reorder;
  cfg.skin_factor = 0.3;
  const std::string what =
      std::string(D == 2 ? "2D" : "3D") +
      (bc == BoundaryKind::kPeriodic ? " periodic" : " walls") +
      (reorder ? " reorder" : " no-reorder");
  SerialSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                   uniform_random_particles(cfg, D == 2 ? 1500 : 1200));
  Counters before;
  for (const char* when : {"construction", "forced rebuild"}) {
    LinkList want;
    build_links(want, sim.grid(), sim.store().cpositions(), sim.store().size(),
                cfg.list_radius(), sim.boundary().pair_disp());
    ASSERT_GT(want.size(), 0u);
    expect_same_list(sim.links(), want, what + " after " + when);
    Counters stats;
    record_link_stats(want, stats);
    expect_rebuild_stats(sim.counters(), before, stats,
                         what + " after " + when);
    sim.run(25);
    before = sim.counters();
    sim.rebuild();
  }
}

TEST(RebuildPipeline, SerialListIsBuildLinks2D) {
  for (const auto bc : {BoundaryKind::kPeriodic, BoundaryKind::kWalls}) {
    serial_list_case<2>(bc, true);
    serial_list_case<2>(bc, false);
  }
}

TEST(RebuildPipeline, SerialListIsBuildLinks3D) {
  for (const auto bc : {BoundaryKind::kPeriodic, BoundaryKind::kWalls}) {
    serial_list_case<3>(bc, true);
    serial_list_case<3>(bc, false);
  }
}

template <int D>
void mp_list_case(bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 23;
  cfg.velocity_scale = 0.8;
  cfg.reorder = reorder;
  const auto init = uniform_random_particles(cfg, 900);
  const auto layout = DecompLayout<D>::make(2, 2);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm, ElasticSphere{cfg.stiffness, cfg.diameter},
                 init);
    const std::string what = "rank " + std::to_string(comm.rank()) +
                             (reorder ? " reorder" : " no-reorder");
    Counters before;
    for (const char* when : {"construction", "forced rebuild"}) {
      Counters stats;
      for (const auto& b : sim.blocks()) {
        LinkList want;
        build_links(want, b.grid, b.store.cpositions(), b.ncore,
                    cfg.list_radius(), PairDisp<D>{});
        expect_same_list(b.links, want,
                         what + " block " + std::to_string(b.index) +
                             " after " + when);
        record_link_stats(want, stats);
      }
      EXPECT_GT(stats.links_halo, 0u) << what;
      expect_rebuild_stats(sim.counters(), before, stats,
                           what + " after " + when);
      EXPECT_EQ(sim.counters().parallel_regions, 0u) << what;
      EXPECT_EQ(sim.counters().barriers, 0u) << what;
      sim.run(25);
      before = sim.counters();
      sim.rebuild();
    }
  });
}

TEST(RebuildPipeline, PureMpBlockListsAreBuildLinks2D) {
  mp_list_case<2>(true);
  mp_list_case<2>(false);
}

TEST(RebuildPipeline, PureMpBlockListsAreBuildLinks3D) {
  mp_list_case<3>(true);
}

// -- whole-trajectory determinism -----------------------------------------

template <int D>
struct Snapshot {
  std::map<int, Vec<D>> pos, vel;
};

template <int D>
Snapshot<D> snapshot(const ParticleStore<D>& store) {
  Snapshot<D> s;
  for (std::size_t i = 0; i < store.size(); ++i) {
    s.pos[store.id(i)] = store.pos(i);
    s.vel[store.id(i)] = store.vel(i);
  }
  return s;
}

template <int D>
void expect_bit_identical(const Snapshot<D>& a, const Snapshot<D>& b,
                          const char* what) {
  ASSERT_EQ(a.pos.size(), b.pos.size()) << what;
  for (const auto& [id, p] : a.pos) {
    const auto it = b.pos.find(id);
    ASSERT_NE(it, b.pos.end()) << what << " id=" << id;
    const auto vt = b.vel.find(id);
    for (int d = 0; d < D; ++d) {
      ASSERT_EQ(p[d], it->second[d]) << what << " id=" << id << " d=" << d;
      ASSERT_EQ(a.vel.at(id)[d], vt->second[d])
          << what << " id=" << id << " d=" << d;
    }
  }
}

template <int D>
void smp_trajectory_case(bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 42;
  cfg.velocity_scale = 0.8;  // several rebuilds in 120 steps
  cfg.reorder = reorder;
  const std::uint64_t n = D == 2 ? 500 : 700;
  const int steps = 120;
  const auto init = uniform_random_particles(cfg, n);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};

  // The colored reduction is the deterministic strategy: its pair-swapped
  // chunk order makes the accumulation order thread-count-independent.
  SmpSim<D> ref(cfg, model, init, 1, ReductionKind::kColored);
  ref.run(steps);
  ASSERT_GT(ref.counters().rebuilds, 1u);
  const auto ref_snap = snapshot(ref.store());
  if (reorder) {
    EXPECT_GT(ref.counters().rebuild_reorder_ns, 0u);
  }
  EXPECT_GT(ref.counters().rebuild_bin_ns, 0u);
  EXPECT_GT(ref.counters().rebuild_linkgen_ns, 0u);

  for (const int t : kTeams) {
    if (t == 1) continue;
    SmpSim<D> sim(cfg, model, init, t, ReductionKind::kColored);
    sim.run(steps);
    expect_bit_identical(ref_snap, snapshot(sim.store()),
                         (std::string("smp T=") + std::to_string(t)).c_str());
  }

  // The serial driver shares the canonical link order (the fused build
  // reproduces build_links exactly, and the colored pass accumulates in
  // serial traversal order), so even cross-driver the trajectory is
  // bit-identical.
  SerialSim<D> serial(cfg, model, init);
  serial.run(steps);
  expect_bit_identical(ref_snap, snapshot(serial.store()), "serial");
}

TEST(RebuildTrajectory, SmpBitIdentical2DReorder) {
  smp_trajectory_case<2>(true);
}
TEST(RebuildTrajectory, SmpBitIdentical2DNoReorder) {
  smp_trajectory_case<2>(false);
}
TEST(RebuildTrajectory, SmpBitIdentical3DReorder) {
  smp_trajectory_case<3>(true);
}
TEST(RebuildTrajectory, SmpBitIdentical3DNoReorder) {
  smp_trajectory_case<3>(false);
}

template <int D>
void mp_trajectory_case(bool reorder) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 9;
  cfg.velocity_scale = 0.8;
  cfg.reorder = reorder;
  const std::uint64_t n = 600;
  const int steps = 120;
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(2, 2);

  // nthreads = 1 runs the serial per-block pipeline, nthreads > 1 the
  // parallel one (bin_parallel + fused build); the trajectory must not
  // depend on which was used, nor on the team size.
  std::vector<StateRecord<D>> ref;
  for (const int nthreads : {1, 2, 4}) {
    typename MpSim<D>::Options opts;
    opts.nthreads = nthreads;
    opts.reduction = ReductionKind::kColored;
    std::vector<StateRecord<D>> state;
    mp::run(2, [&](mp::Comm& comm) {
      MpSim<D> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(static_cast<std::uint64_t>(steps));
      auto s = sim.gather_state();
      if (comm.rank() == 0) {
        EXPECT_GT(sim.counters().rebuilds, 1u);
        state = std::move(s);
      }
    });
    ASSERT_EQ(state.size(), n) << "nthreads=" << nthreads;
    if (ref.empty()) {
      ref = std::move(state);
      continue;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(state[i].id, ref[i].id) << "nthreads=" << nthreads;
      for (int d = 0; d < D; ++d) {
        ASSERT_EQ(state[i].pos[d], ref[i].pos[d])
            << "nthreads=" << nthreads << " id=" << ref[i].id << " d=" << d;
        ASSERT_EQ(state[i].vel[d], ref[i].vel[d])
            << "nthreads=" << nthreads << " id=" << ref[i].id << " d=" << d;
      }
    }
  }
}

TEST(RebuildTrajectory, MpThreadCountIndependent2D) {
  mp_trajectory_case<2>(true);
}
TEST(RebuildTrajectory, MpThreadCountIndependent3D) {
  mp_trajectory_case<3>(false);
}

}  // namespace
}  // namespace hdem
