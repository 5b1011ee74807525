// Shared-memory driver: the paper's pure OpenMP implementation.
//
// One undecomposed domain; the force loop is parallelised over *links*
// with a static block schedule (automatically load-balanced "since the
// work is tied directly to the links rather than the particles"), the
// position update over particles, and link generation over cells.  The
// force-array update conflict is resolved by a selectable strategy
// (src/reduction).
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
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

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
        acc_(make_accumulator<D>(reduction)) {
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
    if (!list_valid()) {
      rebuild();
    } else if (counters_.iterations > 0) {
      ++counters_.rebuilds_skipped;
    }
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
    drift_ = max_displacement<D>(store_.cpositions(),
                                 std::span<const Vec<D>>(ref_pos_),
                                 store_.size());
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<SmpSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return drift_ < cfg_.drift_allowance(); }

  // The whole rebuild pipeline runs thread-parallel: wrap, binning
  // (two-level counting sort), cell-order reorder (parallel gather), and
  // the fused link build, which emits the list already in the color plan's
  // canonical order.  Every stage is exactly reproducing its serial
  // counterpart's output, so trajectories stay bit-identical for any team
  // size.
  void rebuild() {
    trace::Scope rebuild_scope(trace::Phase::kLinkBuild);
    {
      trace::Scope scope(trace::Phase::kBin);
      Timer t;
      // Wrap positions (parallel over particles).
      team_.parallel_for(0, static_cast<std::int64_t>(store_.size()),
                         [&](int, std::int64_t lo, std::int64_t hi) {
                           auto pos = store_.positions();
                           for (std::int64_t i = lo; i < hi; ++i) {
                             boundary_.wrap(pos[static_cast<std::size_t>(i)]);
                           }
                         });
      grid_.configure(Vec<D>{}, cfg_.box, cfg_.binning_radius(), wrap_flags());
      grid_.bin_parallel(store_.cpositions(), store_.size(), team_);
      counters_.rebuild_bin_ns += t.nanoseconds();
    }
    if (cfg_.reorder) {
      trace::Scope scope(trace::Phase::kReorder);
      Timer t;
      store_.apply_permutation_parallel(grid_.order(), store_.size(), team_);
      grid_.reset_order_to_identity();
      ++counters_.reorders;
      counters_.rebuild_reorder_ns += t.nanoseconds();
    }
    {
      trace::Scope scope(trace::Phase::kLinkGen);
      Timer t;
      counters_.links_core = 0;
      counters_.links_halo = 0;
      build_links_fused(links_, grid_, store_.cpositions(), store_.size(),
                        cfg_.list_radius(), boundary_.pair_disp(), team_,
                        fused_scratch_, store_.gather_scratch(), &counters_);
      counters_.rebuild_linkgen_ns += t.nanoseconds();
    }
    prepare_accumulator<D>(acc_, team_.size(), links_, store_.size());
    const auto pos = store_.cpositions();
    ref_pos_.assign(pos.begin(), pos.begin() + store_.size());
    drift_ = 0.0;
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
  std::array<bool, D> wrap_flags() const {
    std::array<bool, D> w{};
    w.fill(boundary_.periodic());
    return w;
  }

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
  // Measured maximum displacement since the last rebuild.
  double drift_ = 0.0;
  // Rebuild-time position snapshot the drift is measured against.
  std::vector<Vec<D>> ref_pos_;
  Counters counters_;
};

}  // namespace hdem
