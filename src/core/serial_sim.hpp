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
#include "core/rebuild.hpp"
#include "core/step_loop.hpp"
#include "trace/tracer.hpp"

namespace hdem {

template <int D, class Model = ElasticSphere>
class SerialSim {
 public:
  SerialSim(const SimConfig<D>& cfg, const Model& model,
            std::span<const ParticleInit<D>> particles)
      : cfg_(cfg),
        model_(model),
        boundary_(cfg.bc, cfg.box),
        trigger_(cfg.drift_allowance()) {
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
  // bonds keep ids and bond_forces resolves them through index_of_id_.
  void add_bond(std::int32_t ida, std::int32_t idb,
                const BondedSpring& spring) {
    if (ida == idb || static_cast<std::size_t>(ida) >= store_.size() ||
        static_cast<std::size_t>(idb) >= store_.size() || ida < 0 ||
        idb < 0) {
      throw std::invalid_argument("add_bond: bad particle ids");
    }
    bonds_.push_back({ida, idb});
    bond_springs_.push_back(spring);
  }

  // One force + position-update step, rebuilding the link list first if it
  // is no longer valid.
  void step() {
    trigger_.prepare_step(counters_, [&] { rebuild(); });
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
    trigger_.measure(store_, counters_.iterations);
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<SerialSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return trigger_.list_valid(); }

  // Rebuild the link list: wrap positions, bin into cells, optionally
  // reorder particles into cell order, regenerate links (the shared
  // pipeline of core/rebuild.hpp on a one-member inline team).
  void rebuild() {
    trace::Scope scope(trace::Phase::kLinkBuild);
    SoloTeam team;
    rebuild_domain(cfg_, boundary_, grid_, store_, links_, team,
                   fused_scratch_, counters_);
    refresh_id_index();
    trigger_.reset(store_.size());
    trigger_.record(store_, store_.size());
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
  std::span<const Link> bonds() const { return bonds_; }  // particle ids

 private:
  template <class Disp>
  double bond_forces(Disp&& disp) {
    double pe = 0.0;
    auto pos = store_.positions();
    auto vel = store_.velocities();
    auto frc = store_.forces();
    for (std::size_t b = 0; b < bonds_.size(); ++b) {
      const auto i = static_cast<std::size_t>(index_of_id(bonds_[b].i));
      const auto j = static_cast<std::size_t>(index_of_id(bonds_[b].j));
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

  SimConfig<D> cfg_;
  Model model_;
  Boundary<D> boundary_;
  ParticleStore<D> store_;
  CellGrid<D> grid_;
  LinkList links_;
  FusedBuildScratch fused_scratch_;
  std::vector<Link> bonds_;
  std::vector<BondedSpring> bond_springs_;
  std::vector<std::int32_t> index_of_id_;
  double potential_ = 0.0;
  RebuildTrigger<D> trigger_;
  Counters counters_;
};

}  // namespace hdem
