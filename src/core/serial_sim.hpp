// Serial reference driver.
//
// Implements the paper's algorithm exactly as described in Section 4:
//   create links between particles closer than cutoff rc
//   repeat
//     calculate forces across all links
//     update particle positions
//   until list is no longer valid
// with optional cell-order particle reordering at every list rebuild (the
// Section 6.3 cache optimisation) and optional permanent bonds for the
// grain examples.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "core/step_loop.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem {

template <int D, class Model = ElasticSphere>
class SerialSim {
 public:
  SerialSim(const SimConfig<D>& cfg, const Model& model,
            std::span<const ParticleInit<D>> particles)
      : cfg_(cfg), model_(model), boundary_(cfg.bc, cfg.box) {
    cfg_.validate();
    store_.reserve(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      store_.push_back(particles[i].pos, particles[i].vel,
                       static_cast<std::int32_t>(i));
    }
    counters_.particles = particles.size();
    rebuild();
  }

  // Convenience: the paper's uniform random benchmark system.
  static SerialSim make_random(const SimConfig<D>& cfg, const Model& model,
                               std::uint64_t n) {
    const auto init = uniform_random_particles(cfg, n);
    return SerialSim(cfg, model, init);
  }

  // Permanent bond between the particles with ids ida and idb (grain
  // construction).  Ids are stable across the cell-order reordering that
  // happens at every rebuild (including the one in the constructor), so
  // this is the only safe way to address a particle from outside.
  void add_bond(std::int32_t ida, std::int32_t idb,
                const BondedSpring& spring) {
    if (ida == idb || static_cast<std::size_t>(ida) >= store_.size() ||
        static_cast<std::size_t>(idb) >= store_.size() || ida < 0 ||
        idb < 0) {
      throw std::invalid_argument("add_bond: bad particle ids");
    }
    bonds_.push_back({index_of_id_[static_cast<std::size_t>(ida)],
                      index_of_id_[static_cast<std::size_t>(idb)]});
    bond_springs_.push_back(spring);
  }

  // One force + position-update step, rebuilding the link list first if it
  // is no longer valid.
  void step() {
    if (!list_valid()) {
      rebuild();
    } else if (counters_.iterations > 0) {
      ++counters_.rebuilds_skipped;
    }
    trace::Scope iteration(trace::Phase::kIteration);
    zero_forces(store_);
    // PairDisp (not an opaque lambda) lets the batched kernel run its
    // vector gather phase.
    const PairDisp<D> disp = boundary_.pair_disp();
    {
      trace::Scope scope(trace::Phase::kForce);
      potential_ = accumulate_forces<D>(links_.core(), store_, model_, disp,
                                        /*update_both=*/true, 1.0, &counters_);
      potential_ += bond_forces(disp);
    }
    trace::Scope update_scope(trace::Phase::kUpdate);
    kick_drift(store_, store_.size(), cfg_.dt, cfg_.gravity, boundary_,
               &counters_);
    drift_ = max_displacement<D>(store_.cpositions(),
                                 std::span<const Vec<D>>(ref_pos_),
                                 store_.size());
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<SerialSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return drift_ < cfg_.drift_allowance(); }

  // Rebuild the link list: wrap positions, bin into cells, optionally
  // reorder particles into cell order, regenerate links.
  void rebuild() {
    trace::Scope scope(trace::Phase::kLinkBuild);
    {
      trace::Scope bin_scope(trace::Phase::kBin);
      Timer t;
      auto pos = store_.positions();
      for (auto& x : pos) boundary_.wrap(x);
      // Cells are sized for binning_radius() >= list_radius() so the
      // one-cell stencil still covers rc + skin.
      grid_.configure(Vec<D>{}, cfg_.box, cfg_.binning_radius(), wrap_flags());
      grid_.bin(store_.positions(), store_.size());
      counters_.rebuild_bin_ns += t.nanoseconds();
    }
    if (cfg_.reorder) {
      trace::Scope reorder_scope(trace::Phase::kReorder);
      Timer t;
      remap_bonds(grid_.order());
      store_.apply_permutation(grid_.order(), store_.size());
      grid_.reset_order_to_identity();
      ++counters_.reorders;
      counters_.rebuild_reorder_ns += t.nanoseconds();
    }
    counters_.links_core = 0;
    counters_.links_halo = 0;
    {
      trace::Scope gen_scope(trace::Phase::kLinkGen);
      Timer t;
      const auto cells = snapshot_cells(grid_, store_.cpositions(),
                                        store_.gather_scratch());
      generate_links(links_, grid_, cells, store_.size(), cfg_.list_radius(),
                     boundary_.pair_disp());
      counters_.rebuild_linkgen_ns += t.nanoseconds();
    }
    {
      trace::Scope plan_scope(trace::Phase::kColorPlan);
      Timer t;
      build_color_plan(links_, grid_, store_.cpositions());
      counters_.rebuild_colorplan_ns += t.nanoseconds();
    }
    record_link_stats(links_, counters_);
    refresh_id_index();
    const auto pos = store_.cpositions();
    ref_pos_.assign(pos.begin(), pos.begin() + store_.size());
    drift_ = 0.0;
    ++counters_.rebuilds;
  }

  // Current storage index of the particle with the given id.
  std::int32_t index_of_id(std::int32_t id) const {
    return index_of_id_[static_cast<std::size_t>(id)];
  }

  double potential_energy() const { return potential_; }
  double kinetic() const { return kinetic_energy(store_, store_.size()); }
  double total_energy() const { return potential_ + kinetic(); }

  const SimConfig<D>& config() const { return cfg_; }
  const Boundary<D>& boundary() const { return boundary_; }
  ParticleStore<D>& store() { return store_; }
  const ParticleStore<D>& store() const { return store_; }
  const LinkList& links() const { return links_; }
  const CellGrid<D>& grid() const { return grid_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  std::span<const Link> bonds() const { return bonds_; }

 private:
  std::array<bool, D> wrap_flags() const {
    std::array<bool, D> w{};
    w.fill(boundary_.periodic());
    return w;
  }

  template <class Disp>
  double bond_forces(Disp&& disp) {
    double pe = 0.0;
    auto pos = store_.positions();
    auto vel = store_.velocities();
    auto frc = store_.forces();
    for (std::size_t b = 0; b < bonds_.size(); ++b) {
      const auto i = static_cast<std::size_t>(bonds_[b].i);
      const auto j = static_cast<std::size_t>(bonds_[b].j);
      const Vec<D> d = disp(pos[i], pos[j]);
      const double rv = dot(vel[i] - vel[j], d);
      double s, e;
      if (!bond_springs_[b].pair(norm2(d), rv, s, e)) continue;
      pe += e;
      const Vec<D> f = s * d;
      frc[i] += f;
      frc[j] -= f;
    }
    return pe;
  }

  void refresh_id_index() {
    index_of_id_.resize(store_.size());
    for (std::size_t i = 0; i < store_.size(); ++i) {
      const std::int32_t id = store_.id(i);
      if (id >= 0 && static_cast<std::size_t>(id) < index_of_id_.size()) {
        index_of_id_[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(i);
      }
    }
  }

  // Bond endpoints are particle indices, so the cell-order permutation
  // (new index k holds old particle perm[k]) must be inverted and applied.
  void remap_bonds(const std::vector<std::int32_t>& perm) {
    if (bonds_.empty()) return;
    inverse_perm_.resize(perm.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
      inverse_perm_[static_cast<std::size_t>(perm[k])] =
          static_cast<std::int32_t>(k);
    }
    for (auto& b : bonds_) {
      b.i = inverse_perm_[static_cast<std::size_t>(b.i)];
      b.j = inverse_perm_[static_cast<std::size_t>(b.j)];
    }
  }

  SimConfig<D> cfg_;
  Model model_;
  Boundary<D> boundary_;
  ParticleStore<D> store_;
  CellGrid<D> grid_;
  LinkList links_;
  std::vector<Link> bonds_;
  std::vector<BondedSpring> bond_springs_;
  std::vector<std::int32_t> inverse_perm_;
  std::vector<std::int32_t> index_of_id_;
  double potential_ = 0.0;
  // Measured maximum displacement since the last rebuild.
  double drift_ = 0.0;
  // Rebuild-time position snapshot the drift is measured against.
  std::vector<Vec<D>> ref_pos_;
  Counters counters_;
};

}  // namespace hdem
