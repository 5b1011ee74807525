// Force accumulation over the link list and the position update.
//
// These are the serial building blocks; the threaded force loop with its
// five accumulation strategies lives in src/reduction, and the decomposed
// drivers compose these per block.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
// tail is exact at any width (W = 1 is the scalar loop).  The same pass
// sums the squares into `sum`: max drops a NaN, the sum carries it (and
// inf) through.
template <int D, int W>
double max_displacement_w(std::span<const Vec<D>> pos,
                          std::span<const Vec<D>> ref, std::size_t n,
                          double& sum) {
  using P = simd::pack<double, W>;
  static_assert(sizeof(Vec<D>) == D * sizeof(double));
  const double* posf = reinterpret_cast<const double*>(pos.data());
  const double* reff = reinterpret_cast<const double*>(ref.data());
  double max_d2 = 0.0;
  std::size_t i = 0;
  if (i + W <= n) {
    P pmax = P::zero();
    P psum = P::zero();
    for (; i + W <= n; i += W) {
      P acc = P::zero();
      for (int d = 0; d < D; ++d) {
        const P a = P::strided(posf + i * D + static_cast<std::size_t>(d), D);
        const P b = P::strided(reff + i * D + static_cast<std::size_t>(d), D);
        const P c = a - b;
        acc = acc + c * c;
      }
      pmax = max(pmax, acc);
      psum = psum + acc;
    }
    max_d2 = pmax.hmax();
    sum = psum.hsum_ordered();
  }
  for (; i < n; ++i) {
    const double d2 = norm2(pos[i] - ref[i]);
    if (d2 > max_d2) max_d2 = d2;
    sum += d2;
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
// positions recorded at the last rebuild (the drift RebuildTrigger
// compares with SimConfig::drift_allowance()), or +inf when some
// displacement is not finite.  Max is order-independent, so a finite
// result is bit-identical at every SIMD width and under any partitioning
// of the range.
template <int D>
double max_displacement(std::span<const Vec<D>> pos,
                        std::span<const Vec<D>> ref, std::size_t n) {
  double sum = 0.0;
  const double max_d2 = [&] {
    const int w = simd::dispatch_width();
    if constexpr (simd::kMaxWidth >= 4) {
      if (w >= 4) return detail::max_displacement_w<D, 4>(pos, ref, n, sum);
    }
    if constexpr (simd::kMaxWidth >= 2) {
      if (w >= 2) return detail::max_displacement_w<D, 2>(pos, ref, n, sum);
    }
    return detail::max_displacement_w<D, 1>(pos, ref, n, sum);
  }();
  return std::isfinite(sum) ? std::sqrt(max_d2)
                            : std::numeric_limits<double>::infinity();
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

// A step left a particle with a non-finite position (a corrupt input or a
// blown-up force).  `step` is the index of the step whose update produced
// it (Counters::iterations when caught, so the first step is 0);
// `particle` is the lowest offending particle id.
struct SimulationDiverged : std::runtime_error {
  SimulationDiverged(std::uint64_t at_step, std::int32_t id)
      : std::runtime_error("simulation diverged at step " +
                           std::to_string(at_step) + ", particle " +
                           std::to_string(id)),
        step(at_step),
        particle(id) {}
  std::uint64_t step;
  std::int32_t particle;
};

// The measured rebuild trigger every driver runs ("until list is no longer
// valid").  It owns the rebuild-time reference positions (one flat array,
// one segment per store, i.e. per MpSim block), the measured drift since
// then, and the validity test against SimConfig::drift_allowance().  The
// drift scan doubles as the state guard: a non-finite displacement stops
// the run with SimulationDiverged.
template <int D>
class RebuildTrigger {
 public:
  static constexpr std::int32_t kNoParticle =
      std::numeric_limits<std::int32_t>::max();

  explicit RebuildTrigger(double allowance) : allowance_(allowance) {}

  bool list_valid() const { return drift_ < allowance_; }

  // The step prelude: rebuild when the list is no longer valid, otherwise
  // (after the first step) count the reuse.  Returns whether it counted
  // one.
  template <class Rebuild>
  bool prepare_step(Counters& counters, Rebuild&& rebuild) {
    if (!list_valid()) {
      rebuild();
      return false;
    }
    if (counters.iterations == 0) return false;
    ++counters.rebuilds_skipped;
    return true;
  }

  // At a rebuild: drop the old reference, then record every segment (the
  // first n particles of a store, `total` over all of them) in the order
  // scan() will visit them.  Reserving the total keeps the array exact.
  void reset(std::size_t total) {
    ref_.clear();
    ref_.reserve(total);
    seg_.assign(1, 0);
    drift_ = 0.0;
  }
  void record(const ParticleStore<D>& store, std::size_t n) {
    const auto pos = store.cpositions();
    ref_.insert(ref_.end(), pos.begin(),
                pos.begin() + static_cast<std::ptrdiff_t>(n));
    seg_.push_back(ref_.size());
  }

  // Largest displacement of segment k's particles since the rebuild, or
  // +inf when one is not finite (the lowest offending id is then kept for
  // settle()).
  double scan(std::size_t k, const ParticleStore<D>& store) {
    const std::size_t n = seg_[k + 1] - seg_[k];
    const std::span<const Vec<D>> ref(ref_.data() + seg_[k], n);
    const auto pos = store.cpositions();
    const double d = max_displacement<D>(pos, ref, n);
    for (std::size_t i = 0; std::isinf(d) && i < n; ++i) {
      if (!std::isfinite(norm2(pos[i] - ref[i])) && store.id(i) < bad_) {
        bad_ = store.id(i);
      }
    }
    return d;
  }

  // Adopt the measured drift (MpSim: the kMax allreduce of the ranks'
  // scans).  +inf means some store diverged: `agree` turns this caller's
  // lowest offending id (kNoParticle when it has none) into the global
  // lowest (MpSim: a kMin allreduce, run only on this path), so every
  // caller throws the same SimulationDiverged.
  template <class Agree>
  void settle(double drift, std::uint64_t step, Agree&& agree) {
    drift_ = drift;
    if (!std::isinf(drift)) return;
    const std::int32_t id = agree(std::exchange(bad_, kNoParticle));
    throw SimulationDiverged(step, id);
  }

  // One-store drivers: scan and settle in one call.
  void measure(const ParticleStore<D>& store, std::uint64_t step) {
    settle(scan(0, store), step, [](std::int32_t id) { return id; });
  }

 private:
  double allowance_;
  double drift_ = 0.0;
  std::vector<Vec<D>> ref_;
  std::vector<std::size_t> seg_{0};
  std::int32_t bad_ = kNoParticle;
};

}  // namespace hdem
