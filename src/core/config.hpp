// Simulation configuration shared by every driver.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/vec.hpp"

namespace hdem {

enum class BoundaryKind : std::uint8_t {
  kPeriodic,  // periodic in every dimension
  kWalls,     // reflecting hard walls in every dimension
};

// Parameters of the paper's test system: identical elastic spheres of
// diameter d in an L^D box, pairwise contact force requiring one square
// root and one inverse, cutoff rc = cutoff_factor * rmax with rmax = d.
template <int D>
struct SimConfig {
  Vec<D> box{1.0};                 // domain is [0, box[d]) per dimension
  BoundaryKind bc = BoundaryKind::kPeriodic;
  double diameter = 0.05;          // sphere diameter d (= rmax, contact only)
  double stiffness = 100.0;        // contact spring constant k
  double cutoff_factor = 1.5;      // rc / rmax; paper uses 1.5 and 2.0
  double dt = 5e-4;                // time step (units: m = 1)
  double velocity_scale = 0.05;    // initial random speed scale
  Vec<D> gravity{};                // uniform external acceleration
  bool reorder = true;             // cell-order particle reordering at rebuild
  // Verlet skin: candidate links are generated out to rc + skin and the
  // list survives until accumulated motion can close the widened gap.  The
  // skin only changes *when* lists rebuild — candidate sets are supersets
  // and the pair kernel distance-gates, so extra links are exact no-ops.
  double skin_factor = 0.0;        // skin / rc; 0 = classic rebuild-per-drift
  // Binning capacity: cells are sized for rc * (1 + skin_cap_factor) so a
  // one-cell stencil still covers rc + skin.  Defaults (< 0) to following
  // skin_factor.  Pinning it across runs with different skins keeps the
  // cell geometry — and hence the reorder permutation and link traversal
  // order — identical, which is what makes trajectories bit-identical
  // across skin values (DESIGN §3.7).
  double skin_cap_factor = -1.0;   // < 0: use skin_factor
  // Delta-compressed halo swaps: each send side keeps a shadow of the
  // template slice it last shipped and sends a bitmask plus only the
  // changed Vec<D> values; receivers patch their halo regions in place.
  // Bitwise-exact reconstruction, so trajectories are bit-identical with
  // delta on or off (DESIGN §3.8).
  bool halo_delta = false;
  // Coalesce all wire halo sides sharing a (neighbour rank, dim,
  // direction) into one framed message — cuts the per-message latency
  // term when blocks-per-proc > 1.  Independent of halo_delta (frames
  // carry eager payloads when delta is off).
  bool halo_coalesce = false;
  std::uint64_t seed = 12345;      // RNG seed for initial conditions

  double rmax() const { return diameter; }
  double cutoff() const { return cutoff_factor * diameter; }
  double skin() const { return skin_factor * cutoff(); }
  // Candidate links are generated out to this radius.
  double list_radius() const { return cutoff() + skin(); }
  // Cells (and halo regions) are sized for this radius, >= list_radius().
  double binning_radius() const {
    const double cap = skin_cap_factor < 0.0 ? skin_factor : skin_cap_factor;
    return cutoff() * (1.0 + cap);
  }

  // Maximum one-particle displacement since the last rebuild before the
  // link list may miss a pair entering interaction range: two particles
  // can close the gap from both sides, hence the factor 1/2.  The drivers
  // rebuild once the measured displacement reaches it.  The skin widens
  // today's sliver 0.5*(rc - rmax) by 0.5*skin.
  double drift_allowance() const { return 0.5 * (list_radius() - rmax()); }

  void validate() const {
    // Delta swaps ride the halo templates: a shadow is only worth keeping
    // if the template has capacity to survive at least one step of reuse.
    // Zero-capacity templates (list_radius() <= rmax(), so any motion at
    // all exceeds the drift allowance) would invalidate every shadow every
    // step and the mode degenerates to pure framing overhead — reject the
    // combination up front.
    if (halo_delta && drift_allowance() <= 0.0) {
      throw std::invalid_argument(
          "halo_delta needs template capacity: list_radius() must exceed "
          "rmax() (raise cutoff_factor or skin_factor)");
    }
    if (cutoff_factor <= 1.0) {
      throw std::invalid_argument("cutoff_factor must exceed 1 (rc > rmax)");
    }
    if (skin_factor < 0.0) {
      throw std::invalid_argument(
          "skin_factor must be non-negative (a negative skin would shrink "
          "the drift allowance below the safe sliver)");
    }
    if (skin_cap_factor >= 0.0 && skin_cap_factor < skin_factor) {
      throw std::invalid_argument(
          "skin_cap_factor must be >= skin_factor: the one-cell stencil "
          "only reaches binning_radius()");
    }
    for (int d = 0; d < D; ++d) {
      if (box[d] < 3.0 * binning_radius()) {
        throw std::invalid_argument(
            "box too small relative to widened binning radius rc + skin");
      }
    }
    if (dt <= 0.0 || diameter <= 0.0 || stiffness < 0.0) {
      throw std::invalid_argument("non-positive dt/diameter/stiffness");
    }
  }

  // The paper's benchmark geometry: one million particles of d = 0.05 in
  // L = 50 (D = 2) or L = 5 (D = 3), i.e. number density 400 (D = 2) or
  // 8000 (D = 3).  paper_box(n) returns the box edge giving the same
  // density for n particles.
  static double paper_density() { return D == 2 ? 400.0 : 8000.0; }
  static double paper_box_edge(std::uint64_t n) {
    return std::pow(static_cast<double>(n) / paper_density(), 1.0 / D);
  }
};

}  // namespace hdem
