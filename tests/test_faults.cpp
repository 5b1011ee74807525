// Fault containment: a non-finite particle state stops every driver with a
// typed SimulationDiverged naming the step and the particle, within the
// step that produced it, and no rank of a decomposed run hangs.  Healthy
// decomposed steps keep their one collective.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"

namespace hdem {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::int32_t kBad = 17;
constexpr std::uint64_t kParticles = 600;

SimConfig<2> fault_config() {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 3;
  cfg.velocity_scale = 0.8;  // rebuilds inside the healthy window
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Run `healthy` steps, poison particle kBad's velocity, and expect the
// next step to stop the run naming that step and that particle.
template <class Sim>
void expect_diverges_after(Sim& sim, std::uint64_t healthy) {
  sim.run(healthy);
  auto& store = sim.store();
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.id(i) == kBad) store.velocities()[i][1] = kNaN;
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    sim.run(50);
    ADD_FAILURE() << "a NaN velocity did not stop the run";
  } catch (const SimulationDiverged& e) {
    EXPECT_EQ(e.step, healthy);
    EXPECT_EQ(e.particle, kBad);
  }
  EXPECT_EQ(sim.counters().iterations, healthy);
  EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(Divergence, SerialNaNVelocityStopsTheRun) {
  const auto cfg = fault_config();
  SerialSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                   uniform_random_particles(cfg, kParticles));
  expect_diverges_after(sim, 7);
}

TEST(Divergence, SmpNaNVelocityStopsTheRun) {
  const auto cfg = fault_config();
  SmpSim<2> sim(cfg, ElasticSphere{cfg.stiffness, cfg.diameter},
                uniform_random_particles(cfg, kParticles), 2,
                ReductionKind::kColored);
  expect_diverges_after(sim, 7);
}

// Every rank throws the same error from the same step, pure message
// passing and hybrid alike; the rank without the particle learns of it
// through the drift allreduce instead of waiting forever.
TEST(Divergence, MpNaNVelocityStopsEveryRank) {
  const auto cfg = fault_config();
  auto init = uniform_random_particles(cfg, kParticles);
  init[static_cast<std::size_t>(kBad)].vel[1] = kNaN;
  const auto layout = DecompLayout<2>::make(2, 2);
  for (const int nthreads : {1, 2}) {
    typename MpSim<2>::Options opts;
    opts.nthreads = nthreads;
    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::int32_t>> caught;
    const auto t0 = std::chrono::steady_clock::now();
    mp::run(2, [&](mp::Comm& comm) {
      MpSim<2> sim(cfg, layout, comm,
                   ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
      try {
        sim.run(50);
      } catch (const SimulationDiverged& e) {
        std::lock_guard<std::mutex> lock(mu);
        caught.emplace_back(e.step, e.particle);
      }
    });
    EXPECT_LT(seconds_since(t0), 1.0) << "nthreads=" << nthreads;
    ASSERT_EQ(caught.size(), 2u) << "nthreads=" << nthreads;
    for (const auto& [step, id] : caught) {
      EXPECT_EQ(step, 0u) << "nthreads=" << nthreads;
      EXPECT_EQ(id, kBad) << "nthreads=" << nthreads;
    }
  }
}

// The divergence check rides on the drift allreduce: a step that reuses
// the list issues exactly one collective.
TEST(Divergence, HealthyMpStepsKeepOneCollective) {
  const auto cfg = fault_config();
  const auto init = uniform_random_particles(cfg, kParticles);
  const auto layout = DecompLayout<2>::make(2, 2);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, ElasticSphere{cfg.stiffness, cfg.diameter},
                 init);
    std::uint64_t reused = 0;
    for (int s = 0; s < 40; ++s) {
      const Counters before = sim.counters();
      sim.step();
      const Counters after = sim.counters();
      if (after.rebuilds != before.rebuilds) continue;
      ++reused;
      EXPECT_EQ(after.collectives - before.collectives, 1u) << "step " << s;
    }
    EXPECT_GT(reused, 10u);
  });
}

}  // namespace
}  // namespace hdem
