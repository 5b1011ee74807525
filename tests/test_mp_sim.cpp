// The message-passing driver must reproduce the serial trajectory for any
// process count and granularity, across rebuilds and migrations.
#include "driver/mp_sim.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "ci_env.hpp"
#include "core/serial_sim.hpp"

namespace hdem {
namespace {

template <int D>
struct Reference {
  std::map<int, Vec<D>> pos;
  double energy = 0.0;
};

template <int D>
Reference<D> serial_reference(const SimConfig<D>& cfg, std::uint64_t n,
                              int steps) {
  auto sim = SerialSim<D>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, n);
  sim.run(steps);
  Reference<D> ref;
  for (std::size_t i = 0; i < sim.store().size(); ++i) {
    Vec<D> p = sim.store().pos(i);
    sim.boundary().wrap(p);
    ref.pos[sim.store().id(i)] = p;
  }
  ref.energy = sim.total_energy();
  return ref;
}

struct Case {
  int nprocs;
  int blocks_per_proc;
  BoundaryKind bc;
};

class MpEquivalence2D : public ::testing::TestWithParam<Case> {};
class MpEquivalence3D : public ::testing::TestWithParam<Case> {};

template <int D>
void run_equivalence(const Case& p, std::uint64_t n, int steps,
                     std::uint64_t seed,
                     typename MpSim<D>::Options opts = test::ci_options<D>()) {
  SimConfig<D> cfg = test::ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.bc = p.bc;
  cfg.seed = seed;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  // CI runs the whole suite under a skin as well; the serial reference
  // shares the config, so equivalence must hold at any skin.
  cfg.skin_factor = test::ci_skin();
  const auto ref = serial_reference<D>(cfg, n, steps);
  const auto init = uniform_random_particles(cfg, n);
  const auto layout = DecompLayout<D>::make(p.nprocs, p.blocks_per_proc);

  mp::run(p.nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    if (comm.rank() != 0) return;
    EXPECT_EQ(state.size(), n);
    EXPECT_NEAR(energy, ref.energy, 1e-9 * std::abs(ref.energy));
    EXPECT_GT(sim.counters().rebuilds, 1u);
    Boundary<D> bc(cfg.bc, cfg.box);
    double max_err = 0.0;
    for (auto& r : state) {
      Vec<D> q = r.pos;
      bc.wrap(q);
      max_err = std::max(max_err, norm(bc.displacement(q, ref.pos.at(r.id))));
    }
    EXPECT_LT(max_err, 1e-9);
  });
}

TEST_P(MpEquivalence2D, TrajectoryMatchesSerial) {
  run_equivalence<2>(GetParam(), 500, 120, 31);
}

TEST_P(MpEquivalence3D, TrajectoryMatchesSerial) {
  run_equivalence<3>(GetParam(), 700, 100, 37);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpEquivalence2D,
    ::testing::Values(Case{1, 1, BoundaryKind::kPeriodic},
                      Case{2, 1, BoundaryKind::kPeriodic},
                      Case{4, 1, BoundaryKind::kPeriodic},
                      Case{4, 4, BoundaryKind::kPeriodic},
                      Case{4, 9, BoundaryKind::kPeriodic},
                      Case{4, 4, BoundaryKind::kWalls},
                      Case{6, 2, BoundaryKind::kWalls},
                      Case{9, 1, BoundaryKind::kPeriodic}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.nprocs) + "_B" +
             std::to_string(info.param.blocks_per_proc) + "_" +
             (info.param.bc == BoundaryKind::kPeriodic ? "periodic" : "walls");
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpEquivalence3D,
    ::testing::Values(Case{2, 4, BoundaryKind::kPeriodic},
                      Case{4, 2, BoundaryKind::kPeriodic},
                      Case{4, 2, BoundaryKind::kWalls},
                      Case{8, 1, BoundaryKind::kPeriodic}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.nprocs) + "_B" +
             std::to_string(info.param.blocks_per_proc) + "_" +
             (info.param.bc == BoundaryKind::kPeriodic ? "periodic" : "walls");
    });

// ---- overlapped halo schedule -----------------------------------------------

// Final state of an mp run, gathered to one map for exact comparison.
template <int D>
struct MpState {
  std::map<int, Vec<D>> pos;
  double energy = 0.0;
  Counters agg;
};

template <int D>
MpState<D> run_mp_state(const SimConfig<D>& cfg,
                        const std::vector<ParticleInit<D>>& init, int nprocs,
                        int bpp, typename MpSim<D>::Options opts, int steps) {
  const auto layout = DecompLayout<D>::make(nprocs, bpp);
  MpState<D> out;
  std::mutex mu;
  mp::run(nprocs, [&](mp::Comm& comm) {
    MpSim<D> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    const double energy = sim.global_energy();
    auto state = sim.gather_state();
    {
      std::lock_guard<std::mutex> lock(mu);
      out.agg.merge(sim.counters());
    }
    if (comm.rank() != 0) return;
    out.energy = energy;
    for (auto& r : state) out.pos[r.id] = r.pos;
  });
  return out;
}

// The overlapped schedule must not merely be close to the synchronous one:
// core links always accumulate before halo links per block and the PE sums
// in the same order, so the trajectories are the same bits.
template <int D>
void expect_overlap_bit_identical(std::uint64_t n, int steps,
                                  std::uint64_t seed, int nprocs, int bpp,
                                  bool reorder,
                                  typename MpSim<D>::Options opts =
                                      test::ci_options<D>()) {
  SimConfig<D> cfg = test::ci_config<D>();
  cfg.box = Vec<D>(1.0);
  cfg.seed = seed;
  cfg.reorder = reorder;
  cfg.velocity_scale = 0.8;  // rebuilds + migrations inside the window
  cfg.skin_factor = test::ci_skin();
  const auto init = uniform_random_particles(cfg, n);
  opts.overlap = false;
  const auto off = run_mp_state<D>(cfg, init, nprocs, bpp, opts, steps);
  opts.overlap = true;
  const auto on = run_mp_state<D>(cfg, init, nprocs, bpp, opts, steps);

  EXPECT_EQ(off.energy, on.energy);
  ASSERT_EQ(off.pos.size(), on.pos.size());
  for (const auto& [id, p] : off.pos) {
    const auto it = on.pos.find(id);
    ASSERT_NE(it, on.pos.end());
    for (int d = 0; d < D; ++d) {
      EXPECT_EQ(p[d], it->second[d]) << "particle " << id << " dim " << d;
    }
  }
  // The overlapped run exercised the nonblocking path (at P > 1 some halo
  // traffic is remote) and the split accounting covers all of it.  Under
  // the shared-window transport a node packing that puts every rank on one
  // node routes all halo edges through windows, so wire activity is only
  // guaranteed when some rank pair crosses a node boundary.
  if (nprocs > 1) {
    bool wire_edges = !opts.shared_halo;
    const mp::NodeMap nodes(opts.ranks_per_node);
    for (int r = 1; r < nprocs; ++r) {
      if (!nodes.same_node(0, r)) wire_edges = true;
    }
    if (wire_edges) {
      EXPECT_GT(on.agg.irecvs_posted, 0u);
      EXPECT_GT(on.agg.bytes_overlapped + on.agg.bytes_exposed, 0u);
    }
    // Whenever the CI hook selects shared windows on multi-rank nodes, some
    // same-node edge used them: the hook's transport reached the driver.
    const auto hook = test::ci_options<D>();
    if (hook.shared_halo && hook.ranks_per_node != 1) {
      EXPECT_GT(on.agg.bytes_shared, 0u);
    }
  }
}

TEST(MpOverlap, BitIdentical2DReordered) {
  expect_overlap_bit_identical<2>(500, 120, 31, 4, 4, true);
}

TEST(MpOverlap, BitIdentical2DUnordered) {
  expect_overlap_bit_identical<2>(500, 120, 31, 4, 2, false);
}

TEST(MpOverlap, BitIdentical3DReordered) {
  expect_overlap_bit_identical<3>(700, 120, 37, 4, 2, true);
}

TEST(MpOverlap, BitIdentical3DUnordered) {
  expect_overlap_bit_identical<3>(700, 120, 37, 4, 1, false);
}

TEST(MpOverlap, BitIdenticalColoredThreads) {
  // The colored plan runs all core phases before all halo phases, so the
  // split schedule executes the same phases in the same order: threaded
  // runs stay bit-identical as well.
  auto opts = test::ci_options<2>();
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kColored;
  expect_overlap_bit_identical<2>(500, 60, 11, 2, 2, true, opts);
}

TEST(MpOverlap, MatchesSerialTrajectory2D) {
  auto opts = test::ci_options<2>();
  opts.overlap = true;
  run_equivalence<2>(Case{4, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, MatchesSerialTrajectory3D) {
  auto opts = test::ci_options<3>();
  opts.overlap = true;
  run_equivalence<3>(Case{4, 2, BoundaryKind::kPeriodic}, 700, 100, 37, opts);
}

TEST(MpOverlap, MatchesSerialWithWalls) {
  auto opts = test::ci_options<2>();
  opts.overlap = true;
  run_equivalence<2>(Case{4, 4, BoundaryKind::kWalls}, 500, 120, 31, opts);
}

TEST(MpOverlap, FusedHybridMatchesSerial) {
  auto opts = test::ci_options<2>();
  opts.overlap = true;
  opts.fused = true;
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kSelectedAtomic;
  run_equivalence<2>(Case{2, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, PerBlockHybridMatchesSerial) {
  auto opts = test::ci_options<2>();
  opts.overlap = true;
  opts.nthreads = 2;
  opts.reduction = ReductionKind::kSelectedAtomic;
  run_equivalence<2>(Case{2, 4, BoundaryKind::kPeriodic}, 500, 120, 31, opts);
}

TEST(MpOverlap, NoMessageLeakAfterTeardown) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 13;
  cfg.velocity_scale = 0.8;
  cfg.skin_factor = test::ci_skin();
  const auto init = uniform_random_particles(cfg, 400);
  const auto layout = DecompLayout<2>::make(4, 2);
  mp::run(4, [&](mp::Comm& comm) {
    auto opts = test::ci_options<2>();
    opts.overlap = true;
    {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      sim.run(30);
    }
    // Every send the simulation issued has been matched by a receive:
    // after all ranks are done, no mailbox holds an unclaimed message.
    comm.barrier();
    EXPECT_EQ(comm.pending(), 0u);
  });
}

TEST(MpSim, HaloLinkAccountingSymmetric) {
  // Every cross-block pair appears exactly twice globally (once per side),
  // so: global core links + halo links / 2 == serial link count.
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 41;
  // Candidate lists widen with the skin on both sides identically, so the
  // two-sided halo accounting stays exact at any skin.
  cfg.skin_factor = test::ci_skin();
  const std::uint64_t n = 600;
  const auto init = uniform_random_particles(cfg, n);
  auto serial = SerialSim<2>(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                             init);
  const std::uint64_t serial_links = serial.links().size();

  const auto layout = DecompLayout<2>::make(4, 4);
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                 test::ci_options<2>());
    const auto c = sim.counters();
    const auto core = static_cast<long long>(c.links_core);
    const auto halo = static_cast<long long>(c.links_halo);
    const auto g_core = comm.allreduce(core, mp::Op::kSum);
    const auto g_halo = comm.allreduce(halo, mp::Op::kSum);
    if (comm.rank() == 0) {
      EXPECT_EQ(g_halo % 2, 0);
      EXPECT_EQ(static_cast<std::uint64_t>(g_core + g_halo / 2), serial_links);
    }
  });
}

TEST(MpSim, RejectsMismatchedCommSize) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 100);
  const auto layout = DecompLayout<2>::make(4, 1);
  mp::run(2, [&](mp::Comm& comm) {
    EXPECT_THROW(MpSim<2>(cfg, layout, comm,
                          ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                          test::ci_options<2>()),
                 std::invalid_argument);
  });
}

TEST(MpSim, FinerGranularityMoreMessages) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.skin_factor = test::ci_skin();
  // This measures the wire protocol's per-side message overhead;
  // coalescing exists to make the count granularity-invariant (gated the
  // other way in test_halo_delta) and the shared-window transport removes
  // the messages entirely, so pin both off whatever the CI leg selects.
  cfg.halo_coalesce = false;
  auto opts = test::ci_options<2>();
  opts.shared_halo = false;
  const auto init = uniform_random_particles(cfg, 600);
  std::uint64_t msgs_coarse = 0, msgs_fine = 0;
  for (int bpp : {1, 4}) {
    const auto layout = DecompLayout<2>::make(4, bpp);
    std::uint64_t total = 0;
    mp::run(4, [&](mp::Comm& comm) {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      const auto before = sim.counters().msgs_sent;
      sim.run(5);
      const auto sent = sim.counters().msgs_sent - before;
      const auto sum = comm.allreduce(static_cast<long long>(sent), mp::Op::kSum);
      if (comm.rank() == 0) total = static_cast<std::uint64_t>(sum);
    });
    (bpp == 1 ? msgs_coarse : msgs_fine) = total;
  }
  EXPECT_GT(msgs_fine, msgs_coarse)
      << "block-cyclic overhead must grow with granularity";
}

TEST(MpSim, CountersBlocksAndParticles) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.skin_factor = test::ci_skin();
  const auto init = uniform_random_particles(cfg, 400);
  const auto layout = DecompLayout<2>::make(2, 8);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init,
                 test::ci_options<2>());
    const auto c = sim.counters();
    EXPECT_EQ(c.blocks, 8u);
    const auto total = comm.allreduce(
        static_cast<long long>(c.particles), mp::Op::kSum);
    if (comm.rank() == 0) {
      EXPECT_EQ(static_cast<std::uint64_t>(total), 400u);
    }
    EXPECT_GT(c.halo_particles, 0u);
  });
}

}  // namespace
}  // namespace hdem
