// Force accumulation over the link list and the position update.
//
// These are the serial building blocks; the threaded force loop with its
// five accumulation strategies lives in src/reduction, and the decomposed
// drivers compose these per block.
#pragma once

#include <cmath>
#include <cstring>
#include <span>

#include "core/boundary.hpp"
#include "core/counters.hpp"
#include "core/link_list.hpp"
#include "core/pair_kernel.hpp"
#include "core/particle_store.hpp"
#include "util/simd.hpp"
#include "util/vec.hpp"

namespace hdem {

template <int D>
void zero_forces(ParticleStore<D>& store) {
  auto f = store.forces();
  std::fill(f.begin(), f.end(), Vec<D>{});
}

// Accumulate link forces.  Links with update_both = true update both ends
// (core-core links); otherwise only the first end is updated (core-halo
// links, whose second end belongs to a neighbouring block).  Returns the
// potential energy of the traversed links scaled by pe_weight (1 for core
// links, 1/2 for replicated core-halo links).
template <int D, class Model, class Disp>
double accumulate_forces(std::span<const Link> links, ParticleStore<D>& store,
                         const Model& model, Disp&& disp, bool update_both,
                         double pe_weight, Counters* counters = nullptr) {
  std::uint64_t contacts = 0;
  auto frc = store.forces();
  // The serial driver shares the batched gather/compute/scatter kernel
  // with the threaded force passes (bit-identical arithmetic and per-link
  // order to the classic scalar loop).
  const double pe = batched_pair_links<D>(
      links, store.positions(), store.velocities(), model, disp, update_both,
      pe_weight, contacts, [&](std::int32_t p, const Vec<D>& f) {
        frc[static_cast<std::size_t>(p)] += f;
      });
  if (counters != nullptr) {
    counters->force_evals += links.size();
    counters->contacts += contacts;
  }
  return pe;
}

namespace detail {

// Packed kick-drift over the periodic path.  The Vec arithmetic of the
// scalar loop is per-component, so the whole range is one flat elementwise
// pass over 3 dense double arrays with the gravity components broadcast in
// a repeating pattern.  Every lane computes exactly what the scalar
// expression computes.
template <int D, int W>
void kick_drift_range_w(ParticleStore<D>& store, std::size_t lo,
                        std::size_t hi, double dt, const Vec<D>& gravity) {
  using P = simd::pack<double, W>;
  static_assert(sizeof(Vec<D>) == D * sizeof(double),
                "flat-double view of Vec<D> requires dense layout");
  auto pos = store.positions();
  auto vel = store.velocities();
  auto frc = store.forces();
  double* posf = reinterpret_cast<double*>(pos.data());
  double* velf = reinterpret_cast<double*>(vel.data());
  const double* frcf = reinterpret_cast<const double*>(frc.data());
  const P pdt = P::broadcast(dt);

  // gp[r].lane(l) = gravity[(r + l) % D] for a chunk starting at flat
  // index q with q % D == r.
  P gp[D];
  for (int r = 0; r < D; ++r) {
    double tmp[W];
    for (int l = 0; l < W; ++l) tmp[l] = gravity[(r + l) % D];
    gp[r] = P::load(tmp);
  }

  const std::size_t q1 = hi * D;
  std::size_t q = lo * D;
  int r = static_cast<int>(q % static_cast<std::size_t>(D));
  for (; q + W <= q1; q += W) {
    P v = P::load(velf + q);
    const P f = P::load(frcf + q);
    v = v + (f + gp[r]) * pdt;
    v.store(velf + q);
    P x = P::load(posf + q);
    x = x + v * pdt;
    x.store(posf + q);
    r = (r + W) % D;
  }
  for (; q < q1; ++q) {
    velf[q] += (frcf[q] + gravity[static_cast<int>(q % D)]) * dt;
    posf[q] += velf[q] * dt;
  }
}

// Max over particles of |pos[i] - ref[i]|^2 via strided component loads;
// max over non-NaN doubles is order-independent, so a pack max + scalar
// tail is exact at any width.
template <int D, int W>
double max_displacement_w(std::span<const Vec<D>> pos,
                          std::span<const Vec<D>> ref, std::size_t n) {
  using P = simd::pack<double, W>;
  static_assert(sizeof(Vec<D>) == D * sizeof(double));
  const double* posf = reinterpret_cast<const double*>(pos.data());
  const double* reff = reinterpret_cast<const double*>(ref.data());
  double max_d2 = 0.0;
  std::size_t i = 0;
  if (i + W <= n) {
    P pmax = P::zero();
    for (; i + W <= n; i += W) {
      P acc = P::zero();
      for (int d = 0; d < D; ++d) {
        const P a = P::strided(posf + i * D + static_cast<std::size_t>(d), D);
        const P b = P::strided(reff + i * D + static_cast<std::size_t>(d), D);
        const P c = a - b;
        acc = acc + c * c;
      }
      pmax = max(pmax, acc);
    }
    max_d2 = pmax.hmax();
  }
  for (; i < n; ++i) {
    const double d2 = norm2(pos[i] - ref[i]);
    if (d2 > max_d2) max_d2 = d2;
  }
  return max_d2;
}

template <int D, int W>
double kinetic_energy_w(std::span<const Vec<D>> vel, std::size_t ncore) {
  using P = simd::pack<double, W>;
  static_assert(sizeof(Vec<D>) == D * sizeof(double));
  const double* velf = reinterpret_cast<const double*>(vel.data());
  double ke = 0.0;
  double tmp[W];
  std::size_t i = 0;
  for (; i + W <= ncore; i += W) {
    P acc = P::zero();
    for (int d = 0; d < D; ++d) {
      const P c = P::strided(velf + i * D + static_cast<std::size_t>(d), D);
      acc = acc + c * c;
    }
    // Lanes hold per-particle 0.5*|v|^2; accumulate them scalar in
    // particle order so the sum matches the serial loop bit for bit.
    (P::broadcast(0.5) * acc).store(tmp);
    for (int l = 0; l < W; ++l) ke += tmp[l];
  }
  for (; i < ncore; ++i) ke += 0.5 * norm2(vel[i]);
  return ke;
}

}  // namespace detail

// Second-order kick-drift (leapfrog) update of the first ncore particles:
//   v += (f + g) dt;  x += v dt
// followed by wall reflection when the boundary has hard walls (periodic
// wrapping is deferred to the next rebuild).  The periodic path runs on
// simd packs at the dispatch width (bit-identical to the scalar loop); the
// walls path keeps the scalar loop because reflection is branchy and only
// the sandpile examples use it.
template <int D>
void kick_drift_range(ParticleStore<D>& store, std::size_t lo,
                      std::size_t hi, double dt, const Vec<D>& gravity,
                      const Boundary<D>& bc, Counters* counters = nullptr) {
  const bool walls = bc.kind() == BoundaryKind::kWalls;
  if (counters != nullptr) counters->position_updates += hi - lo;
  if (!walls) {
    const int w = simd::dispatch_width();
    if constexpr (simd::kMaxWidth >= 4) {
      if (w >= 4) {
        detail::kick_drift_range_w<D, 4>(store, lo, hi, dt, gravity);
        return;
      }
    }
    if constexpr (simd::kMaxWidth >= 2) {
      if (w >= 2) {
        detail::kick_drift_range_w<D, 2>(store, lo, hi, dt, gravity);
        return;
      }
    }
  }
  auto pos = store.positions();
  auto vel = store.velocities();
  auto frc = store.forces();
  for (std::size_t i = lo; i < hi; ++i) {
    vel[i] += (frc[i] + gravity) * dt;
    pos[i] += vel[i] * dt;
    if (walls) bc.reflect(pos[i], vel[i]);
  }
}

template <int D>
void kick_drift(ParticleStore<D>& store, std::size_t ncore, double dt,
                const Vec<D>& gravity, const Boundary<D>& bc,
                Counters* counters = nullptr) {
  kick_drift_range(store, 0, ncore, dt, gravity, bc, counters);
}

// Maximum displacement of the first n particles relative to reference
// positions recorded at the last rebuild — the measured drift every
// driver compares with SimConfig::drift_allowance() to decide when the
// link list must be rebuilt.  Max is order-independent, so the result is
// bit-identical at every SIMD width and under any partitioning of the
// range.
template <int D>
double max_displacement(std::span<const Vec<D>> pos,
                        std::span<const Vec<D>> ref, std::size_t n) {
  const int w = simd::dispatch_width();
  if constexpr (simd::kMaxWidth >= 4) {
    if (w >= 4) return std::sqrt(detail::max_displacement_w<D, 4>(pos, ref, n));
  }
  if constexpr (simd::kMaxWidth >= 2) {
    if (w >= 2) return std::sqrt(detail::max_displacement_w<D, 2>(pos, ref, n));
  }
  double max_d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = norm2(pos[i] - ref[i]);
    if (d2 > max_d2) max_d2 = d2;
  }
  return std::sqrt(max_d2);
}

// Kinetic energy of the first ncore particles (unit mass).  The per-
// particle 0.5*|v|^2 lanes are vectorized; the accumulation stays scalar
// in particle order so the result is bit-identical at every width.
template <int D>
double kinetic_energy(const ParticleStore<D>& store, std::size_t ncore) {
  auto vel = store.velocities();
  const int w = simd::dispatch_width();
  if constexpr (simd::kMaxWidth >= 4) {
    if (w >= 4) return detail::kinetic_energy_w<D, 4>(vel, ncore);
  }
  if constexpr (simd::kMaxWidth >= 2) {
    if (w >= 2) return detail::kinetic_energy_w<D, 2>(vel, ncore);
  }
  double ke = 0.0;
  for (std::size_t i = 0; i < ncore; ++i) ke += 0.5 * norm2(vel[i]);
  return ke;
}

}  // namespace hdem
