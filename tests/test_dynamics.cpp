#include "core/dynamics.hpp"

#include <gtest/gtest.h>

#include "core/force_model.hpp"

namespace hdem {
namespace {

template <int D>
ParticleStore<D> two_particles(const Vec<D>& a, const Vec<D>& b) {
  ParticleStore<D> s;
  s.push_back(a, Vec<D>{}, 0);
  s.push_back(b, Vec<D>{}, 1);
  return s;
}

TEST(Dynamics, ZeroForcesClearsEverything) {
  auto s = two_particles<2>(Vec<2>(0.0, 0.0), Vec<2>(1.0, 0.0));
  s.frc(0) = Vec<2>(3.0, 4.0);
  zero_forces(s);
  EXPECT_EQ(s.frc(0), (Vec<2>{}));
  EXPECT_EQ(s.frc(1), (Vec<2>{}));
}

TEST(Dynamics, NewtonsThirdLawOnCoreLinks) {
  auto s = two_particles<2>(Vec<2>(0.50, 0.5), Vec<2>(0.54, 0.5));
  const std::vector<Link> links = {{0, 1}};
  ElasticSphere m{100.0, 0.05};
  auto disp = [](const Vec<2>& a, const Vec<2>& b) { return a - b; };
  zero_forces(s);
  accumulate_forces<2>(links, s, m, disp, true, 1.0);
  EXPECT_NEAR(s.frc(0)[0] + s.frc(1)[0], 0.0, 1e-14);
  EXPECT_NEAR(s.frc(0)[1] + s.frc(1)[1], 0.0, 1e-14);
  EXPECT_LT(s.frc(0)[0], 0.0) << "particle 0 is pushed away from particle 1";
}

TEST(Dynamics, HaloLinksUpdateOnlyCoreEnd) {
  auto s = two_particles<2>(Vec<2>(0.50, 0.5), Vec<2>(0.54, 0.5));
  const std::vector<Link> links = {{0, 1}};
  ElasticSphere m{100.0, 0.05};
  auto disp = [](const Vec<2>& a, const Vec<2>& b) { return a - b; };
  zero_forces(s);
  accumulate_forces<2>(links, s, m, disp, /*update_both=*/false, 0.5);
  EXPECT_NE(s.frc(0)[0], 0.0);
  EXPECT_EQ(s.frc(1), (Vec<2>{}));
}

TEST(Dynamics, HaloPotentialIsHalved) {
  auto s = two_particles<2>(Vec<2>(0.50, 0.5), Vec<2>(0.54, 0.5));
  const std::vector<Link> links = {{0, 1}};
  ElasticSphere m{100.0, 0.05};
  auto disp = [](const Vec<2>& a, const Vec<2>& b) { return a - b; };
  zero_forces(s);
  const double pe_full = accumulate_forces<2>(links, s, m, disp, true, 1.0);
  const double pe_half = accumulate_forces<2>(links, s, m, disp, false, 0.5);
  EXPECT_NEAR(pe_half, 0.5 * pe_full, 1e-15);
}

TEST(Dynamics, CountersTrackEvalsAndContacts) {
  auto s = two_particles<2>(Vec<2>(0.1, 0.1), Vec<2>(0.9, 0.9));
  std::vector<Link> links = {{0, 1}};  // out of contact range
  ElasticSphere m{100.0, 0.05};
  auto disp = [](const Vec<2>& a, const Vec<2>& b) { return a - b; };
  Counters c;
  zero_forces(s);
  accumulate_forces<2>(links, s, m, disp, true, 1.0, &c);
  EXPECT_EQ(c.force_evals, 1u);
  EXPECT_EQ(c.contacts, 0u);
}

TEST(Dynamics, KickDriftConstantVelocity) {
  auto s = two_particles<1>(Vec<1>(0.1), Vec<1>(0.5));
  s.vel(0) = Vec<1>(2.0);
  Boundary<1> bc(BoundaryKind::kPeriodic, Vec<1>(10.0));
  kick_drift(s, 2, 0.01, Vec<1>{}, bc);
  EXPECT_NEAR(s.pos(0)[0], 0.12, 1e-14);
}

TEST(Dynamics, KickDriftAppliesGravity) {
  auto s = two_particles<2>(Vec<2>(0.5, 0.5), Vec<2>(0.2, 0.2));
  Boundary<2> bc(BoundaryKind::kPeriodic, Vec<2>(1.0, 1.0));
  kick_drift(s, 2, 0.1, Vec<2>(0.0, -10.0), bc);
  EXPECT_NEAR(s.vel(0)[1], -1.0, 1e-14);
  EXPECT_NEAR(s.pos(0)[1], 0.5 - 0.1, 1e-14);
}

TEST(Dynamics, KickDriftRespectsNcore) {
  auto s = two_particles<1>(Vec<1>(0.1), Vec<1>(0.5));
  s.vel(0) = Vec<1>(1.0);
  s.vel(1) = Vec<1>(1.0);
  Boundary<1> bc(BoundaryKind::kPeriodic, Vec<1>(10.0));
  kick_drift(s, 1, 0.01, Vec<1>{}, bc);  // only the first (core) particle
  EXPECT_NEAR(s.pos(0)[0], 0.11, 1e-14);
  EXPECT_DOUBLE_EQ(s.pos(1)[0], 0.5);
}

TEST(Dynamics, KickDriftReflectsOffWalls) {
  auto s = two_particles<1>(Vec<1>(0.05), Vec<1>(0.5));
  s.vel(0) = Vec<1>(-1.0);
  Boundary<1> bc(BoundaryKind::kWalls, Vec<1>(1.0));
  kick_drift(s, 2, 0.1, Vec<1>{}, bc);
  EXPECT_NEAR(s.pos(0)[0], 0.05, 1e-14);  // -0.05 reflected to +0.05
  EXPECT_DOUBLE_EQ(s.vel(0)[0], 1.0);
}

TEST(Dynamics, HarmonicOscillatorSecondOrderAccuracy) {
  // Two particles joined by a stiff bond oscillate with a period the
  // kick-drift scheme should capture with O(dt^2) energy error.
  const double ks = 100.0, rest = 0.1;
  auto run = [&](double dt) {
    auto s = two_particles<1>(Vec<1>(0.40), Vec<1>(0.56));  // stretched
    BondedSpring bond{ks, 0.0, rest};
    const std::vector<Link> links = {{0, 1}};
    auto disp = [](const Vec<1>& a, const Vec<1>& b) { return a - b; };
    Boundary<1> bc(BoundaryKind::kWalls, Vec<1>(1.0));
    const int steps = static_cast<int>(1.0 / dt);
    double pe = 0.0;
    for (int i = 0; i < steps; ++i) {
      zero_forces(s);
      pe = accumulate_forces<1>(links, s, bond, disp, true, 1.0);
      kick_drift(s, 2, dt, Vec<1>{}, bc);
    }
    return pe + kinetic_energy(s, 2);
  };
  const double e0 = 0.5 * ks * 0.06 * 0.06;  // initial stretch energy
  const double err_coarse = std::abs(run(2e-3) - e0);
  const double err_fine = std::abs(run(1e-3) - e0);
  EXPECT_LT(err_fine, err_coarse);
  EXPECT_LT(err_fine / e0, 0.05);
}

TEST(Dynamics, KineticEnergy) {
  auto s = two_particles<2>(Vec<2>(0.0, 0.0), Vec<2>(1.0, 1.0));
  s.vel(0) = Vec<2>(3.0, 4.0);  // |v|^2 = 25
  s.vel(1) = Vec<2>(1.0, 0.0);
  EXPECT_DOUBLE_EQ(kinetic_energy(s, 2), 0.5 * 25.0 + 0.5);
  EXPECT_DOUBLE_EQ(kinetic_energy(s, 1), 12.5);
}

}  // namespace
}  // namespace hdem
