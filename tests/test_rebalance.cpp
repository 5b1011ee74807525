// Cost-driven adaptive block remapping and deterministic work stealing:
// the repartitioner must be a pure function of the gathered cost vector
// (so every rank adopts the identical table with no extra collective),
// and neither remapping nor stealing may perturb the trajectory by a
// single bit.
#include "decomp/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "ci_env.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"

namespace hdem {
namespace {

// ---- pure repartitioner units ----------------------------------------------

TEST(Rebalance, MortonKeyInterleavesBits) {
  EXPECT_EQ(morton_key<2>({0, 0}), 0u);
  EXPECT_EQ(morton_key<2>({1, 0}), 1u);
  EXPECT_EQ(morton_key<2>({0, 1}), 2u);
  EXPECT_EQ(morton_key<2>({1, 1}), 3u);
  EXPECT_EQ(morton_key<2>({2, 0}), 4u);
  EXPECT_EQ(morton_key<3>({1, 1, 1}), 7u);
  // Spatial locality: neighbours differ in low bits, distant blocks in
  // high bits, so the Z-order of a row crosses the midline exactly once.
  EXPECT_LT(morton_key<2>({1, 1}), morton_key<2>({2, 2}));
}

TEST(Rebalance, ImbalancePermilleKnownValues) {
  const std::vector<std::uint64_t> cost = {4, 0, 0, 0};
  const std::vector<int> one_each = {0, 1, 2, 3};
  EXPECT_EQ(imbalance_permille(cost, one_each, 4), 4000u);

  const std::vector<std::uint64_t> flat = {1, 1, 1, 1};
  EXPECT_EQ(imbalance_permille(flat, one_each, 4), 1000u);

  const std::vector<std::uint64_t> zero = {0, 0, 0, 0};
  EXPECT_EQ(imbalance_permille(zero, one_each, 4), 1000u);

  // Two ranks, loads 3 and 1: max/mean = 3/2.
  const std::vector<std::uint64_t> skew = {3, 1};
  const std::vector<int> two = {0, 1};
  EXPECT_EQ(imbalance_permille(skew, two, 2), 1500u);
}

TEST(Rebalance, LptIsDeterministicAndCoversEveryRank) {
  const auto layout = DecompLayout<2>::make(4, 4);
  std::vector<std::uint64_t> cost(16, 0);
  for (int b = 0; b < 16; ++b) {
    cost[static_cast<std::size_t>(b)] =
        static_cast<std::uint64_t>((b % 5) * 100);
  }
  const auto a = lpt_assignment<2>(layout, cost);
  const auto b = lpt_assignment<2>(layout, cost);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  std::vector<int> owned(4, 0);
  for (const int r : a) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 4);
    ++owned[static_cast<std::size_t>(r)];
  }
  for (const int c : owned) EXPECT_GE(c, 1);
  // A layout can install the result directly.
  auto l = layout;
  EXPECT_NO_THROW(l.set_assignment(a));
}

TEST(Rebalance, LptBeatsCyclicOnClusteredCosts) {
  // A clustered workload concentrated in one process-grid row: the cyclic
  // mod mapping pins the whole load onto the ranks of that row.
  const auto layout = DecompLayout<2>::make(4, 4);  // 4x4 blocks, 2x2 procs
  std::vector<std::uint64_t> cost(16, 0);
  for (int b = 0; b < layout.nblocks(); ++b) {
    if (layout.block_coords(b)[1] == 0) {
      cost[static_cast<std::size_t>(b)] = 1000;
    }
  }
  const auto cyclic = imbalance_permille(cost, layout.assignment(), 4);
  const auto table = lpt_assignment<2>(layout, cost);
  const auto balanced = imbalance_permille(cost, table, 4);
  EXPECT_GE(cyclic, 2000u);  // half the ranks idle
  EXPECT_LE(balanced, 1100u);
  EXPECT_LT(balanced, cyclic);
}

TEST(Rebalance, LptTieBreakIsMortonThenIndex) {
  // 1-D layout, costs {5,5,1,1,1,1}: the two heavy blocks go to distinct
  // ranks, then the light blocks alternate starting from rank 0 (lowest
  // rank id wins load ties).  Any timing or rank dependence would break
  // this exact table.
  const DecompLayout<1> layout({2}, {6});
  const std::vector<std::uint64_t> cost = {5, 5, 1, 1, 1, 1};
  const auto table = lpt_assignment<1>(layout, cost);
  EXPECT_EQ(table, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Rebalance, LptSpreadsZeroCostBlocks) {
  // All-zero costs are clamped to weight one: the table stays a valid
  // every-rank-owns-a-block assignment instead of collapsing onto rank 0.
  const auto layout = DecompLayout<2>::make(4, 4);
  const std::vector<std::uint64_t> cost(16, 0);
  const auto table = lpt_assignment<2>(layout, cost);
  std::vector<int> owned(4, 0);
  for (const int r : table) ++owned[static_cast<std::size_t>(r)];
  for (const int c : owned) EXPECT_EQ(c, 4);
}

TEST(Rebalance, LptRejectsWrongCostSize) {
  const auto layout = DecompLayout<2>::make(4, 4);
  const std::vector<std::uint64_t> cost(15, 1);
  EXPECT_THROW(lpt_assignment<2>(layout, cost), std::invalid_argument);
}

TEST(Rebalance, ShouldAdoptRequiresBothImbalanceAndImprovement) {
  // Below threshold: never adopt, even if the candidate is better.
  EXPECT_FALSE(should_adopt(1100, 1000, 1.15));
  // Above threshold and strictly better: adopt.
  EXPECT_TRUE(should_adopt(1200, 1000, 1.15));
  // Above threshold but no improvement: keep the current table.
  EXPECT_FALSE(should_adopt(1200, 1200, 1.15));
  EXPECT_FALSE(should_adopt(1200, 1300, 1.15));
  // Exactly at threshold counts as balanced.
  EXPECT_FALSE(should_adopt(1150, 1000, 1.15));
}

// ---- cost exchange under the message-passing runtime ------------------------

TEST(Rebalance, ExchangeBlockCostsGathersIdenticalFullVector) {
  const auto layout = DecompLayout<2>::make(4, 4);
  mp::run(4, [&](mp::Comm& comm) {
    std::vector<BlockCost> mine;
    for (const auto& c : layout.blocks_of_rank(comm.rank())) {
      const int b = layout.block_index(c);
      mine.push_back({static_cast<std::int32_t>(b),
                      static_cast<std::uint64_t>(10 * b + 1)});
    }
    const auto cost = exchange_block_costs(layout.nblocks(), mine, comm);
    ASSERT_EQ(static_cast<int>(cost.size()), layout.nblocks());
    for (int b = 0; b < layout.nblocks(); ++b) {
      EXPECT_EQ(cost[static_cast<std::size_t>(b)],
                static_cast<std::uint64_t>(10 * b + 1));
    }
  });
}

// ---- deterministic stealing in the threaded driver --------------------------

template <int D>
std::map<int, Vec<D>> smp_raw_positions(const SimConfig<D>& cfg,
                                        const std::vector<ParticleInit<D>>& init,
                                        int threads, bool steal, int steps,
                                        double* energy = nullptr,
                                        Counters* counters = nullptr) {
  SmpSim<D> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init, threads,
                ReductionKind::kColored, steal);
  sim.run(steps);
  if (energy) *energy = sim.total_energy();
  if (counters) *counters = sim.counters();
  std::map<int, Vec<D>> out;
  for (std::size_t i = 0; i < sim.store().size(); ++i) {
    out[sim.store().id(i)] = sim.store().pos(i);
  }
  return out;
}

template <int D>
void expect_bitwise_equal(const std::map<int, Vec<D>>& a,
                          const std::map<int, Vec<D>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [id, p] : a) {
    const auto it = b.find(id);
    ASSERT_NE(it, b.end()) << "id " << id;
    for (int d = 0; d < D; ++d) {
      EXPECT_EQ(p[d], it->second[d]) << "particle " << id << " dim " << d;
    }
  }
}

TEST(Steal, SmpTrajectoryBitIdenticalAcrossTeamSizes) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 23;
  cfg.velocity_scale = 0.8;  // several rebuilds in the window
  const auto init = clustered_particles(cfg, 600, 0.5);
  const int steps = 100;

  // Conflict-free writes under the colored plan plus a fixed per-particle
  // accumulation order make the forces independent of which thread claims
  // which chunk: the static reference and every stealing team agree bitwise.
  const auto ref = smp_raw_positions<2>(cfg, init, 4, false, steps);
  double e1 = 0.0;
  const auto base = smp_raw_positions<2>(cfg, init, 1, true, steps, &e1);
  expect_bitwise_equal<2>(ref, base);
  for (const int threads : {2, 4, 7}) {
    double e = 0.0;
    Counters c;
    const auto got =
        smp_raw_positions<2>(cfg, init, threads, true, steps, &e, &c);
    expect_bitwise_equal<2>(ref, got);
    // Per-chunk PE slots are summed in canonical order, so even the
    // reported energy is independent of the team size.
    EXPECT_EQ(e, e1) << "threads=" << threads;
    // The per-thread cost counters saw every thread do work.
    ASSERT_EQ(c.thread_cost_ns.size(), static_cast<std::size_t>(threads));
    for (const auto ns : c.thread_cost_ns) EXPECT_GT(ns, 0u);
  }
}

TEST(Steal, SmpRequiresColoredReduction) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 100);
  EXPECT_THROW(SmpSim<2>(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                         init, 2, ReductionKind::kSelectedAtomic, true),
               std::invalid_argument);
}

// ---- the message-passing driver: stealing, remapping, fused phases ----------

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

template <int D>
void expect_matches_serial(const SimConfig<D>& cfg,
                           const std::vector<ParticleInit<D>>& init, int steps,
                           const MpState<D>& got) {
  SerialSim<D> serial(cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, init);
  serial.run(steps);
  Boundary<D> bc(cfg.bc, cfg.box);
  ASSERT_EQ(got.pos.size(), serial.store().size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < serial.store().size(); ++i) {
    Vec<D> p = serial.store().pos(i);
    bc.wrap(p);
    Vec<D> q = got.pos.at(serial.store().id(i));
    bc.wrap(q);
    max_err = std::max(max_err, norm(bc.displacement(p, q)));
  }
  EXPECT_LT(max_err, 1e-9);
  EXPECT_NEAR(got.energy, serial.total_energy(),
              1e-9 * std::abs(serial.total_energy()));
}

TEST(Rebalance, AdaptiveRemapTriggersAndKeepsTrajectoryBits) {
  // The fig11 acceptance property in miniature: on a clustered workload the
  // adaptive run must adopt at least one new table, migrate blocks, and
  // still land on the same trajectory bits as the static run — remapping
  // changes who computes, never what is computed.
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 17;
  cfg.velocity_scale = 0.8;
  const auto init = clustered_particles(cfg, 600, 0.25);
  const int steps = 120;

  auto stat = test::ci_options<2>();
  const auto fixed = run_mp_state<2>(cfg, init, 4, 4, stat, steps);
  auto adapt = test::ci_options<2>();
  adapt.rebalance = true;
  const auto moved = run_mp_state<2>(cfg, init, 4, 4, adapt, steps);

  expect_bitwise_equal<2>(fixed.pos, moved.pos);
  EXPECT_NEAR(moved.energy, fixed.energy, 1e-12 * std::abs(fixed.energy));
  EXPECT_GE(moved.agg.rebalances, 1u);
  EXPECT_GT(moved.agg.blocks_reassigned, 0u);
  EXPECT_EQ(fixed.agg.rebalances, 0u);
  expect_matches_serial<2>(cfg, init, steps, moved);
}

TEST(Rebalance, AdaptiveRemapMatchesSerial3D) {
  SimConfig<3> cfg = test::ci_config<3>();
  cfg.box = Vec<3>(1.0);
  cfg.seed = 37;
  cfg.velocity_scale = 0.8;
  const auto init = clustered_particles(cfg, 700, 0.4);
  const int steps = 100;
  auto opts = test::ci_options<3>();
  opts.rebalance = true;
  opts.overlap = true;  // remapping must rebuild the overlap plans too
  const auto got = run_mp_state<3>(cfg, init, 4, 2, opts, steps);
  expect_matches_serial<3>(cfg, init, steps, got);
}

TEST(Steal, MpColoredStealMatchesStaticBitwise) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 31;
  cfg.velocity_scale = 0.8;
  const auto init = clustered_particles(cfg, 500, 0.5);
  const int steps = 100;

  auto stat = test::ci_options<2>();
  stat.nthreads = 3;
  stat.reduction = ReductionKind::kColored;
  const auto fixed = run_mp_state<2>(cfg, init, 2, 4, stat, steps);

  typename MpSim<2>::Options steal = stat;
  steal.steal = true;
  const auto stolen = run_mp_state<2>(cfg, init, 2, 4, steal, steps);

  expect_bitwise_equal<2>(fixed.pos, stolen.pos);
  expect_matches_serial<2>(cfg, init, steps, stolen);
}

TEST(Steal, FusedColoredStealAndRebalanceMatchSerial) {
  // The full clustered configuration the new fig11 bench runs: fused halo
  // exchange, colored global phases, work stealing and adaptive remapping
  // all at once.
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 29;
  cfg.velocity_scale = 0.8;
  const auto init = clustered_particles(cfg, 500, 0.25);
  const int steps = 120;

  auto fused = test::ci_options<2>();
  fused.fused = true;
  fused.overlap = true;
  fused.nthreads = 4;
  fused.reduction = ReductionKind::kColored;
  const auto fixed = run_mp_state<2>(cfg, init, 4, 4, fused, steps);
  expect_matches_serial<2>(cfg, init, steps, fixed);

  typename MpSim<2>::Options all = fused;
  all.steal = true;
  all.rebalance = true;
  const auto got = run_mp_state<2>(cfg, init, 4, 4, all, steps);
  expect_bitwise_equal<2>(fixed.pos, got.pos);
  EXPECT_GE(got.agg.rebalances, 1u);
}

TEST(Steal, MpOptionValidation) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 100);
  const auto layout = DecompLayout<2>::make(1, 4);
  mp::run(1, [&](mp::Comm& comm) {
    const ElasticSphere model{cfg.stiffness, cfg.diameter};
    auto steal = test::ci_options<2>();
    steal.steal = true;
    steal.nthreads = 2;
    steal.reduction = ReductionKind::kSelectedAtomic;
    EXPECT_THROW(MpSim<2>(cfg, layout, comm, model, init, steal),
                 std::invalid_argument);
    auto thresh = test::ci_options<2>();
    thresh.rebalance = true;
    thresh.rebalance_threshold = 0.9;
    EXPECT_THROW(MpSim<2>(cfg, layout, comm, model, init, thresh),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace hdem
