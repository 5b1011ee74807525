// Shared-memory driver: the paper's pure OpenMP implementation.
//
// One undecomposed domain; the force loop is parallelised over *links*
// with a static block schedule (automatically load-balanced "since the
// work is tied directly to the links rather than the particles"), the
// position update over particles, and link generation over cells.  The
// force-array update conflict is resolved by a selectable strategy
// (src/reduction).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

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
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "trace/tracer.hpp"

namespace hdem {

template <int D, class Model = ElasticSphere>
class SmpSim {
 public:
  // steal: replace the colored schedule's static chunk runs with
  // deterministic work stealing over the color-plan chunks (colored
  // reduction only; trajectories stay bit-identical to the static
  // schedule at any team size).
  SmpSim(const SimConfig<D>& cfg, const Model& model,
         std::span<const ParticleInit<D>> particles, int nthreads,
         ReductionKind reduction, bool steal = false)
      : cfg_(cfg),
        model_(model),
        boundary_(cfg.bc, cfg.box),
        team_(nthreads),
        reduction_kind_(reduction),
        acc_(make_accumulator<D>(reduction)),
        trigger_(cfg.drift_allowance()) {
    cfg_.validate();
    if (steal) {
      if (reduction != ReductionKind::kColored) {
        throw std::invalid_argument(
            "SmpSim: work stealing requires the colored reduction (chunk "
            "claiming is only conflict-free under the color plan)");
      }
      std::get<ColoredAccumulator<D>>(acc_).set_steal(true);
    }
    store_.reserve(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      store_.push_back(particles[i].pos, particles[i].vel,
                       static_cast<std::int32_t>(i));
    }
    counters_.particles = particles.size();
    rebuild();
  }

  static SmpSim make_random(const SimConfig<D>& cfg, const Model& model,
                            std::uint64_t n, int nthreads,
                            ReductionKind reduction) {
    const auto init = uniform_random_particles(cfg, n);
    return SmpSim(cfg, model, init, nthreads, reduction);
  }

  void step() {
    trigger_.prepare_step(counters_, [&] { rebuild(); });
    // PairDisp (not an opaque lambda) lets the batched kernel run its
    // vector gather phase.
    const PairDisp<D> disp = boundary_.pair_disp();
    {
      trace::Scope scope(trace::Phase::kForce);
      potential_ = dispatch_force_pass<D>(acc_, team_, links_, store_,
                                          model_, disp, &counters_);
    }
    {
      trace::Scope scope(trace::Phase::kUpdate);
      smp_update_positions(team_, store_, store_.size(), cfg_.dt,
                           cfg_.gravity, boundary_, &counters_);
    }
    trigger_.measure(store_, counters_.iterations);
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<SmpSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return trigger_.list_valid(); }

  // The shared rebuild stages on the team: each reproduces its serial
  // counterpart exactly, so trajectories are bit-identical at any size.
  void rebuild() {
    trace::Scope rebuild_scope(trace::Phase::kLinkBuild);
    rebuild_domain(cfg_, boundary_, grid_, store_, links_, team_,
                   fused_scratch_, counters_);
    prepare_accumulator<D>(acc_, team_.size(), links_, store_.size());
    trigger_.reset(store_.size());
    trigger_.record(store_, store_.size());
    ++counters_.rebuilds;
  }

  double potential_energy() const { return potential_; }
  double kinetic() const { return kinetic_energy(store_, store_.size()); }
  double total_energy() const { return potential_ + kinetic(); }

  const SimConfig<D>& config() const { return cfg_; }
  ParticleStore<D>& store() { return store_; }
  const ParticleStore<D>& store() const { return store_; }
  const LinkList& links() const { return links_; }
  smp::ThreadTeam& team() { return team_; }
  ReductionKind reduction_kind() const { return reduction_kind_; }

  // Counters including the team's synchronisation tallies.
  Counters counters() const {
    Counters c = counters_;
    c.parallel_regions = team_.regions();
    c.barriers = team_.barriers();
    c.critical_sections = team_.criticals();
    return c;
  }

 private:
  SimConfig<D> cfg_;
  Model model_;
  Boundary<D> boundary_;
  smp::ThreadTeam team_;
  ReductionKind reduction_kind_;
  AnyAccumulator<D> acc_;
  ParticleStore<D> store_;
  CellGrid<D> grid_;
  LinkList links_;
  FusedBuildScratch fused_scratch_;
  double potential_ = 0.0;
  RebuildTrigger<D> trigger_;
  Counters counters_;
};

}  // namespace hdem
