// Cell grid for neighbour search.
//
// The simulation region is divided into cubical cells at least rc on a
// side; particles are binned with a counting sort, producing a cell-ordered
// particle index list.  That list serves two purposes, exactly as in the
// paper: (1) link generation only inspects the 3^D - 1 neighbouring cells,
// and (2) the same list is reused as the cache-optimising reordering
// permutation ("particles in the same cell being contiguous in the list").
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/vec.hpp"

namespace hdem {

// Contiguous share of [0, total) for team member tid of t: the same static
// block split as smp::static_block (remainder spread over the first
// members).  Any contiguous ascending partition keeps the parallel rebuild
// stages exact; matching the team's convention keeps ranges cache-aligned
// with the other parallel loops.
inline std::pair<std::size_t, std::size_t> split_range(std::size_t total,
                                                       int tid, int t) {
  const std::size_t chunk = total / static_cast<std::size_t>(t);
  const std::size_t rem = total % static_cast<std::size_t>(t);
  const auto id = static_cast<std::size_t>(tid);
  const std::size_t lo = chunk * id + (id < rem ? id : rem);
  return {lo, lo + chunk + (id < rem ? 1 : 0)};
}

template <int D>
class CellGrid {
 public:
  // Cover [lo, hi) with cells of side >= min_cell.  wrap[d] enables
  // periodic neighbour lookup in dimension d (serial periodic runs); the
  // block-decomposed drivers never wrap (halo copies handle periodicity).
  void configure(const Vec<D>& lo, const Vec<D>& hi, double min_cell,
                 std::array<bool, D> wrap) {
    lo_ = lo;
    wrap_ = wrap;
    identity_order_ = false;
    ncells_ = 1;
    for (int d = 0; d < D; ++d) {
      const double extent = hi[d] - lo[d];
      if (extent <= 0.0 || min_cell <= 0.0) {
        throw std::invalid_argument("CellGrid: empty extent or cell size");
      }
      dims_[d] = static_cast<int>(extent / min_cell);
      if (dims_[d] < 1) dims_[d] = 1;
      if (wrap[d] && dims_[d] < 3) {
        // With < 3 cells a wrapped +1 and -1 neighbour alias, which would
        // duplicate links; the SimConfig validator keeps boxes >= 3 rc.
        throw std::invalid_argument("CellGrid: wrapped dimension needs >= 3 cells");
      }
      cell_size_[d] = extent / dims_[d];
      inv_cell_[d] = 1.0 / cell_size_[d];
      ncells_ *= dims_[d];
    }
    // Cells per axis-0 slab: the stride used by slab_of_cell and by the
    // fused link build's chunk tagging (a multiplication-free lookup).
    cells_per_slab_ = ncells_ / dims_[0];
  }

  int ncells() const { return ncells_; }
  const std::array<int, D>& dims() const { return dims_; }
  const Vec<D>& origin() const { return lo_; }
  const Vec<D>& cell_size() const { return cell_size_; }
  bool wrapped(int d) const { return wrap_[static_cast<std::size_t>(d)]; }

  // -- slab queries (the colored force reduction's geometry) ----------------
  // A "slab" is a layer of cells sharing the axis-0 coordinate.  Axis 0 is
  // special twice over: the half stencil only ever steps 0 or +1 along it
  // (its first non-zero component is positive), so links originating in
  // slab s touch particles in slabs s and s+1 only; and it is the slowest
  // index of the row-major cell order, so each slab is one contiguous cell
  // range and links built in cell order are already grouped by slab.
  int slab_count() const { return dims_[0]; }
  int cells_per_slab() const { return cells_per_slab_; }
  int slab_of_cell(std::int32_t cell) const {
    return static_cast<int>(cell / cells_per_slab_);
  }
  // Slab containing x, clamped exactly as cell_of() clamps, so the slab of
  // a particle always agrees with the slab of its cell.
  int slab_of_position(const Vec<D>& x) const {
    int k = static_cast<int>((x[0] - lo_[0]) * inv_cell_[0]);
    if (k < 0) k = 0;
    if (k >= dims_[0]) k = dims_[0] - 1;
    return k;
  }

  // Row-major linear index, last dimension fastest.
  std::int32_t cell_index(const std::array<int, D>& c) const {
    std::int32_t idx = 0;
    for (int d = 0; d < D; ++d) idx = idx * dims_[d] + c[d];
    return idx;
  }

  std::array<int, D> coords_of(std::int32_t cell) const {
    std::array<int, D> c{};
    for (int d = D - 1; d >= 0; --d) {
      c[d] = cell % dims_[d];
      cell /= dims_[d];
    }
    return c;
  }

  // Cell containing x, clamped to the grid (particles sitting exactly on
  // the upper boundary or having drifted marginally outside are clamped).
  std::int32_t cell_of(const Vec<D>& x) const {
    std::array<int, D> c{};
    for (int d = 0; d < D; ++d) c[d] = axis_cell(d, x[d]);
    return cell_index(c);
  }

  // Cell coordinate along axis d of the coordinate value x, clamped.
  // Monotone in x, so the cells holding every particle with x below (or
  // above) a threshold are the layers up to (or from) axis_cell(d, t).
  int axis_cell(int d, double x) const {
    int k = static_cast<int>((x - lo_[d]) * inv_cell_[d]);
    if (k < 0) k = 0;
    if (k >= dims_[d]) k = dims_[d] - 1;
    return k;
  }

  // Counting-sort the first n particles of pos into cells.  The sort is
  // stable: within a cell, particle indices ascend.
  void bin(std::span<const Vec<D>> pos, std::size_t n) {
    assert(n <= pos.size());
    identity_order_ = false;
    starts_.assign(static_cast<std::size_t>(ncells_) + 1, 0);
    cell_of_particle_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t c = cell_of(pos[i]);
      cell_of_particle_[i] = c;
      ++starts_[static_cast<std::size_t>(c) + 1];
    }
    std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
    order_.resize(n);
    cursor_.assign(starts_.begin(), starts_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      order_[static_cast<std::size_t>(
          cursor_[static_cast<std::size_t>(cell_of_particle_[i])]++)] =
          static_cast<std::int32_t>(i);
    }
  }

  // Parallel counting sort: produces exactly the same starts_/order_ as
  // bin() for any team size.  Each team member histograms a contiguous
  // particle range, the (cell, thread) counts are prefix-scanned in
  // cell-major, thread-minor order — reproducing the serial sort's
  // stability, since threads own ascending particle ranges — and every
  // thread then scatters its particles into its reserved slots.  Team only
  // needs size()/parallel()/barrier() (smp::ThreadTeam's interface); the
  // template keeps core free of a threading dependency.
  template <class Team>
  void bin_parallel(std::span<const Vec<D>> pos, std::size_t n, Team& team) {
    assert(n <= pos.size());
    const int t_count = team.size();
    if (t_count <= 1) {
      bin(pos, n);
      return;
    }
    identity_order_ = false;
    const auto ncells = static_cast<std::size_t>(ncells_);
    starts_.resize(ncells + 1);
    cell_of_particle_.resize(n);
    order_.resize(n);
    hist_.resize(static_cast<std::size_t>(t_count) * ncells);
    scan_carry_.assign(static_cast<std::size_t>(t_count), 0);
    team.parallel([&](int tid) {
      const auto t = static_cast<std::size_t>(tid);
      std::int32_t* h = hist_.data() + t * ncells;
      // Phase 1: per-thread cell histogram over its particle range.
      std::fill(h, h + ncells, 0);
      const auto [p_lo, p_hi] = split_range(n, tid, t_count);
      for (std::size_t i = p_lo; i < p_hi; ++i) {
        const std::int32_t c = cell_of(pos[i]);
        cell_of_particle_[i] = c;
        ++h[static_cast<std::size_t>(c)];
      }
      team.barrier();
      // Phase 2: exclusive scan.  Each thread totals its cell range, the
      // per-range carries are combined (redundantly, deterministically),
      // and the scan converts every (cell, thread) count into that
      // thread's first write slot for that cell.
      const auto [c_lo, c_hi] = split_range(ncells, tid, t_count);
      std::int64_t sum = 0;
      for (std::size_t c = c_lo; c < c_hi; ++c) {
        for (int tt = 0; tt < t_count; ++tt) {
          sum += hist_[static_cast<std::size_t>(tt) * ncells + c];
        }
      }
      scan_carry_[t] = sum;
      team.barrier();
      std::int64_t run = 0;
      for (int tt = 0; tt < tid; ++tt) {
        run += scan_carry_[static_cast<std::size_t>(tt)];
      }
      for (std::size_t c = c_lo; c < c_hi; ++c) {
        starts_[c] = static_cast<std::int32_t>(run);
        for (int tt = 0; tt < t_count; ++tt) {
          auto& slot = hist_[static_cast<std::size_t>(tt) * ncells + c];
          const std::int32_t count = slot;
          slot = static_cast<std::int32_t>(run);
          run += count;
        }
      }
      team.barrier();
      // Phase 3: stable scatter into the reserved slots.
      for (std::size_t i = p_lo; i < p_hi; ++i) {
        const auto c = static_cast<std::size_t>(cell_of_particle_[i]);
        order_[static_cast<std::size_t>(h[c]++)] = static_cast<std::int32_t>(i);
      }
    });
    starts_[ncells] = static_cast<std::int32_t>(n);
  }

  // Particle indices in cell c (valid after bin()).
  std::span<const std::int32_t> cell_particles(std::int32_t c) const {
    const auto b = static_cast<std::size_t>(starts_[static_cast<std::size_t>(c)]);
    const auto e =
        static_cast<std::size_t>(starts_[static_cast<std::size_t>(c) + 1]);
    return {order_.data() + b, e - b};
  }

  // Cell-ordered particle list; doubles as the reordering permutation.
  const std::vector<std::int32_t>& order() const { return order_; }
  const std::vector<std::int32_t>& starts() const { return starts_; }

  // After the store has been permuted into cell order, the binning stays
  // valid with the identity ordering; this avoids a second bin() pass.
  void reset_order_to_identity() {
    std::iota(order_.begin(), order_.end(), 0);
    identity_order_ = true;
  }
  // True from reset_order_to_identity() until the next bin: entry k of the
  // cell order is particle k.
  bool identity_order() const { return identity_order_; }

  static constexpr std::size_t kHalfStencilSize = [] {
    std::size_t t = 1;
    for (int d = 0; d < D; ++d) t *= 3;
    return (t - 1) / 2;
  }();

  // The (3^D - 1)/2 "half stencil" neighbour offsets: every offset in
  // {-1,0,1}^D whose first non-zero component is positive.  Visiting each
  // unordered cell pair exactly once implements the paper's rule that
  // cross-cell links originate from the lowest-numbered cell.
  static const std::vector<std::array<int, D>>& half_stencil() {
    static const std::vector<std::array<int, D>> stencil = [] {
      std::vector<std::array<int, D>> out;
      std::array<int, D> off{};
      // Enumerate {-1,0,1}^D via a mixed-radix counter.
      const int total = [] {
        int t = 1;
        for (int d = 0; d < D; ++d) t *= 3;
        return t;
      }();
      for (int code = 0; code < total; ++code) {
        int c = code;
        for (int d = D - 1; d >= 0; --d) {
          off[d] = c % 3 - 1;
          c /= 3;
        }
        for (int d = 0; d < D; ++d) {
          if (off[d] == 0) continue;
          if (off[d] > 0) out.push_back(off);
          break;
        }
      }
      return out;
    }();
    return stencil;
  }

  // Neighbour of `cell` displaced by `off`; -1 when the neighbour falls
  // outside a non-wrapped boundary.
  std::int32_t neighbor(std::int32_t cell, const std::array<int, D>& off) const {
    std::array<int, D> c = coords_of(cell);
    for (int d = 0; d < D; ++d) {
      c[d] += off[d];
      if (c[d] < 0 || c[d] >= dims_[d]) {
        if (!wrap_[d]) return -1;
        c[d] = (c[d] + dims_[d]) % dims_[d];
      }
    }
    return cell_index(c);
  }

 private:
  Vec<D> lo_{};
  std::array<int, D> dims_{};
  Vec<D> cell_size_{};
  Vec<D> inv_cell_{};
  std::array<bool, D> wrap_{};
  int ncells_ = 0;
  int cells_per_slab_ = 0;
  bool identity_order_ = false;
  std::vector<std::int32_t> starts_;   // ncells + 1 prefix offsets
  std::vector<std::int32_t> order_;    // cell-ordered particle indices
  std::vector<std::int32_t> cursor_;   // scratch for counting sort
  std::vector<std::int32_t> cell_of_particle_;  // scratch
  std::vector<std::int32_t> hist_;     // parallel bin: (thread, cell) counts
  std::vector<std::int64_t> scan_carry_;  // parallel bin: per-range totals
};

}  // namespace hdem
