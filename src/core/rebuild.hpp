// The list-rebuild stages every driver runs (Section 4: bin into cells,
// optionally permute into cell order, build the links), one implementation
// for any team size: SerialSim passes a SoloTeam, SmpSim and MpSim their
// thread team (one member for pure message passing).  Each stage owns its
// trace scope, timer and Counters field; rebuild_domain chains them for the
// undecomposed drivers, MpSim builds halo templates between them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/link_list.hpp"
#include "core/particle_store.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem {

// smp::ThreadTeam's interface for one member, run inline: no thread, no
// std::function, no tallies, and no threading dependency in core.
struct SoloTeam {
  int size() const { return 1; }
  template <class Fn>
  void parallel(Fn&& fn) {
    fn(0);
  }
  template <class Body>
  void parallel_for(std::int64_t begin, std::int64_t end, Body&& body) {
    if (end > begin) body(0, begin, end);
  }
  void barrier() {}
};

// Cell-grid wrap flags: every axis of an undecomposed periodic domain;
// none for block grids (their halo copies carry the periodic images).
template <int D>
std::array<bool, D> wrap_flags(bool periodic) {
  std::array<bool, D> w{};
  w.fill(periodic);
  return w;
}

// With `wrap` (undecomposed drivers) wrap every position into the box,
// then counting-sort the first n particles into the configured `grid`.
template <int D, class Team>
void bin_stage(CellGrid<D>& grid, ParticleStore<D>& store, std::size_t n,
               std::type_identity_t<const Boundary<D>*> wrap, Team& team,
               Counters& counters, std::int32_t rank = -1) {
  trace::Scope scope(trace::Phase::kBin, rank);
  Timer t;
  if (wrap != nullptr) {
    auto pos = store.positions();
    team.parallel_for(0, static_cast<std::int64_t>(pos.size()),
                      [&](int, std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i) {
                          wrap->wrap(pos[static_cast<std::size_t>(i)]);
                        }
                      });
  }
  grid.bin_parallel(store.cpositions(), n, team);
  counters.rebuild_bin_ns += t.nanoseconds();
}

// Permute the first n particles into cell order (the Section 6.3 cache
// optimisation); the binning stays valid with the identity order.
template <int D, class Team>
void reorder_stage(CellGrid<D>& grid, ParticleStore<D>& store, std::size_t n,
                   Team& team, Counters& counters, std::int32_t rank = -1) {
  trace::Scope scope(trace::Phase::kReorder, rank);
  Timer t;
  store.apply_permutation_parallel(grid.order(), n, team);
  grid.reset_order_to_identity();
  ++counters.reorders;
  counters.rebuild_reorder_ns += t.nanoseconds();
}

// The fused build: list, color plan and link statistics in one pass,
// byte-identical to build_links at any team size.  The statistics
// accumulate; a driver zeroes links_core/links_halo once per rebuild.
template <int D, class Team>
void link_stage(LinkList& links, const CellGrid<D>& grid,
                ParticleStore<D>& store, std::size_t ncore, double rc,
                const PairDisp<D>& disp, Team& team,
                FusedBuildScratch& scratch, Counters& counters,
                std::int32_t rank = -1) {
  trace::Scope scope(trace::Phase::kLinkGen, rank);
  Timer t;
  build_links_fused(links, grid, store.cpositions(), ncore, rc, disp, team,
                    scratch, store.gather_scratch(), &counters);
  counters.rebuild_linkgen_ns += t.nanoseconds();
}

// The whole pipeline of the undecomposed drivers (SerialSim, SmpSim): wrap
// and bin every particle over the box, reorder when configured, build the
// list.  Cells are sized for binning_radius() >= list_radius(), so the
// one-cell stencil still covers rc + skin.
template <int D, class Team>
void rebuild_domain(const SimConfig<D>& cfg, const Boundary<D>& bc,
                    CellGrid<D>& grid, ParticleStore<D>& store,
                    LinkList& links, Team& team, FusedBuildScratch& scratch,
                    Counters& counters) {
  grid.configure(Vec<D>{}, cfg.box, cfg.binning_radius(),
                 wrap_flags<D>(bc.periodic()));
  bin_stage(grid, store, store.size(), &bc, team, counters);
  if (cfg.reorder) reorder_stage(grid, store, store.size(), team, counters);
  counters.links_core = 0;
  counters.links_halo = 0;
  link_stage(links, grid, store, store.size(), cfg.list_radius(),
             bc.pair_disp(), team, scratch, counters);
}

}  // namespace hdem
