// Particle storage.
//
// Positions, velocities and forces are stored as contiguous arrays of
// Vec<D> (array-of-structs).  The paper's central cache optimisation —
// reordering particles into cell order at every list rebuild — acts on this
// layout: after reordering, particles that interact are close in memory.
//
// Each particle carries a persistent integer id so that trajectories can be
// compared across drivers (the decomposed drivers migrate particles between
// blocks and reorder them, so the storage index is not stable).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vec.hpp"

namespace hdem {

template <int D>
class ParticleStore {
 public:
  std::size_t size() const { return pos_.size(); }
  bool empty() const { return pos_.empty(); }

  void clear() {
    pos_.clear();
    vel_.clear();
    frc_.clear();
    id_.clear();
  }

  void reserve(std::size_t n) {
    pos_.reserve(n);
    vel_.reserve(n);
    frc_.reserve(n);
    id_.reserve(n);
  }

  void push_back(const Vec<D>& x, const Vec<D>& v, std::int32_t id = -1) {
    pos_.push_back(x);
    vel_.push_back(v);
    frc_.push_back(Vec<D>{});
    id_.push_back(id);
  }

  // Drop elements [from, size()): used to discard stale halo copies.
  void truncate(std::size_t from) {
    pos_.resize(from);
    vel_.resize(from);
    frc_.resize(from);
    id_.resize(from);
  }

  // Remove element i by moving the last element into its slot (O(1));
  // used when migrating particles out of a block.
  void swap_remove(std::size_t i) {
    const std::size_t last = size() - 1;
    pos_[i] = pos_[last];
    vel_[i] = vel_[last];
    frc_[i] = frc_[last];
    id_[i] = id_[last];
    truncate(last);
  }

  Vec<D>& pos(std::size_t i) { return pos_[i]; }
  const Vec<D>& pos(std::size_t i) const { return pos_[i]; }
  Vec<D>& vel(std::size_t i) { return vel_[i]; }
  const Vec<D>& vel(std::size_t i) const { return vel_[i]; }
  Vec<D>& frc(std::size_t i) { return frc_[i]; }
  const Vec<D>& frc(std::size_t i) const { return frc_[i]; }
  std::int32_t id(std::size_t i) const { return id_[i]; }
  std::int32_t& id(std::size_t i) { return id_[i]; }

  std::span<Vec<D>> positions() { return pos_; }
  std::span<const Vec<D>> positions() const { return pos_; }
  std::span<Vec<D>> velocities() { return vel_; }
  std::span<const Vec<D>> velocities() const { return vel_; }
  std::span<Vec<D>> forces() { return frc_; }
  std::span<const Vec<D>> forces() const { return frc_; }
  std::span<const std::int32_t> ids() const { return id_; }
  // Const-view helpers (handy where template deduction needs a const span).
  std::span<const Vec<D>> cpositions() const { return pos_; }
  std::span<const Vec<D>> cvelocities() const { return vel_; }

  // The reorder's gather buffer.  It is idle between reorders, so the link
  // build borrows it for its cell-ordered position snapshot (see
  // snapshot_cells) rather than holding a buffer of its own.
  std::vector<Vec<D>>& gather_scratch() { return scratch_; }

  // Reorder the first n particles so that new index k holds old particle
  // perm[k].  perm must be a permutation of [0, n); n <= size().  Forces
  // are not carried (they are recomputed every step after a reorder).
  void apply_permutation(std::span<const std::int32_t> perm, std::size_t n) {
    permute_into(perm, n, pos_);
    permute_into(perm, n, vel_);
    id_scratch_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      id_scratch_[k] = id_[static_cast<std::size_t>(perm[k])];
    }
    std::copy(id_scratch_.begin(), id_scratch_.end(), id_.begin());
  }

  // Parallel apply_permutation: gathers into scratch over static particle
  // ranges, then swaps the buffers in, so no serial copy-back remains.
  // Requires the permutation to cover the whole store (the drivers reorder
  // before halo copies exist); falls back to the serial path otherwise.
  // The result is identical to apply_permutation for any team size.
  template <class Team>
  void apply_permutation_parallel(std::span<const std::int32_t> perm,
                                  std::size_t n, Team& team) {
    if (team.size() <= 1 || n != pos_.size()) {
      apply_permutation(perm, n);
      return;
    }
    scratch_.resize(n);
    id_scratch_.resize(n);
    team.parallel_for(0, static_cast<std::int64_t>(n),
                      [&](int, std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t k = lo; k < hi; ++k) {
                          const auto src = static_cast<std::size_t>(
                              perm[static_cast<std::size_t>(k)]);
                          scratch_[static_cast<std::size_t>(k)] = pos_[src];
                          id_scratch_[static_cast<std::size_t>(k)] = id_[src];
                        }
                      });
    pos_.swap(scratch_);
    id_.swap(id_scratch_);
    // scratch_ now holds the superseded position buffer; reuse it for the
    // velocity gather so the reorder stays allocation-free at steady state.
    team.parallel_for(0, static_cast<std::int64_t>(n),
                      [&](int, std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t k = lo; k < hi; ++k) {
                          scratch_[static_cast<std::size_t>(k)] =
                              vel_[static_cast<std::size_t>(
                                  perm[static_cast<std::size_t>(k)])];
                        }
                      });
    vel_.swap(scratch_);
  }

 private:
  void permute_into(std::span<const std::int32_t> perm, std::size_t n,
                    std::vector<Vec<D>>& arr) {
    scratch_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      scratch_[k] = arr[static_cast<std::size_t>(perm[k])];
    }
    std::copy(scratch_.begin(), scratch_.end(), arr.begin());
  }

  std::vector<Vec<D>> pos_;
  std::vector<Vec<D>> vel_;
  std::vector<Vec<D>> frc_;
  std::vector<std::int32_t> id_;
  std::vector<Vec<D>> scratch_;
  std::vector<std::int32_t> id_scratch_;
};

}  // namespace hdem
