// Threaded force loop over the link list.
//
// "The force loop is parallelised over links, the update of positions is
// parallelised over particles ... Load balance can be achieved in all
// cases using a static schedule."  One parallel region per pass: the team
// zeroes the global force array, runs the static-block link loop feeding a
// force-accumulation strategy, and the strategy performs whatever merge
// phase it needs (barriers, critical sections, striped reductions) before
// the implicit join.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "core/boundary.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/link_list.hpp"
#include "core/pair_kernel.hpp"
#include "core/particle_store.hpp"
#include "reduction/strategies.hpp"
#include "smp/thread_team.hpp"
#include "util/timer.hpp"
#include "util/vec.hpp"

namespace hdem {

namespace detail {
struct alignas(64) PadSlot {
  double pe = 0.0;
  std::uint64_t contacts = 0;
  std::uint64_t cost_ns = 0;
};
}  // namespace detail

// Which slice of the link list a force pass traverses.  The overlapped
// halo schedule runs one kCore pass while halo messages are in flight
// (core links never touch halo data) and one kHalo pass after the swap
// completes; kAll is the classic single-pass schedule.  Per section the
// static partitions are identical in both schedules, so a kCore pass
// followed by a kHalo pass accumulates every force in exactly the same
// per-thread order as one kAll pass.
enum class ForceSection : std::uint8_t { kAll, kCore, kHalo };

// Returns the potential energy of the traversed links (core links at full
// weight, replicated core-halo links at half weight).  A kHalo pass joins
// an ongoing accumulation: it skips the force zeroing (the kCore pass did
// it) and adds the halo-link contributions on top.
template <int D, class Model, class Disp, class Accum>
double smp_force_pass(smp::ThreadTeam& team, const LinkList& list,
                      ParticleStore<D>& store, const Model& model,
                      Disp&& disp, Accum& acc, Counters* counters = nullptr,
                      ForceSection section = ForceSection::kAll) {
  const int t_count = team.size();
  std::vector<detail::PadSlot> slots(static_cast<std::size_t>(t_count));
  const auto n = static_cast<std::int64_t>(store.size());
  const auto n_core_links = static_cast<std::int64_t>(list.n_core);
  const auto n_links = static_cast<std::int64_t>(list.size());

  // Phases this pass will execute under the colored schedule (identical
  // for every thread); the in-pass barriers it pays is one fewer.
  std::uint64_t color_barriers = 0;
  if constexpr (requires { Accum::kColoredSchedule; }) {
    int executed = 0;
    for (int ph = 0; ph < acc.phase_count(); ++ph) {
      const bool halo = acc.phase_is_halo(ph);
      if ((section == ForceSection::kCore && halo) ||
          (section == ForceSection::kHalo && !halo)) {
        continue;
      }
      ++executed;
    }
    color_barriers = executed > 0 ? static_cast<std::uint64_t>(executed - 1) : 0;
  }

  // Stealing-schedule shared state: one claim cursor per phase (phases are
  // barrier-separated inside the single region, so a phase's cursor is
  // quiescent before any thread reads it) and one potential-energy slot
  // per (phase, chunk position).  Per-chunk slots summed in fixed order
  // keep the reported energy deterministic at any team size — per-thread
  // sums would be shaped by the nondeterministic claiming order.
  bool steal_mode = false;
  std::unique_ptr<std::atomic<std::size_t>[]> steal_cursors;
  std::vector<std::size_t> chunk_slot;
  std::vector<double> chunk_pe;
  if constexpr (requires { Accum::kColoredSchedule; }) {
    if (acc.stealing()) {
      steal_mode = true;
      const auto nph = static_cast<std::size_t>(acc.phase_count());
      steal_cursors = std::make_unique<std::atomic<std::size_t>[]>(nph);
      chunk_slot.assign(nph + 1, 0);
      for (std::size_t ph = 0; ph < nph; ++ph) {
        chunk_slot[ph + 1] =
            chunk_slot[ph] +
            acc.color_chunks(acc.phase_color(static_cast<int>(ph))).size();
      }
      chunk_pe.assign(chunk_slot.back(), 0.0);
    }
  }

  team.parallel([&](int tid) {
    // Zero the global force array (parallel over particles, halos too).
    if (section != ForceSection::kHalo) {
      const auto r = smp::static_block(0, n, tid, t_count);
      auto frc = store.forces();
      for (std::int64_t i = r.lo; i < r.hi; ++i) {
        frc[static_cast<std::size_t>(i)] = Vec<D>{};
      }
    }
    acc.thread_begin(tid, store);
    if (section != ForceSection::kHalo) {
      team.barrier();  // zeroing complete before any accumulation
    }

    auto pos = store.positions();
    auto vel = store.velocities();
    double my_pe = 0.0;
    std::uint64_t my_contacts = 0;
    std::uint64_t my_ns = 0;

    const auto sink = [&](std::int32_t p, const Vec<D>& f) {
      acc.add(tid, p, f, store);
    };
    auto run = [&](std::size_t lo, std::size_t hi, bool update_both,
                   double pe_weight) {
      const Timer rt;
      const double v = batched_pair_links<D>(
          std::span<const Link>(list.links.data() + lo, hi - lo), pos, vel,
          model, disp, update_both, pe_weight, my_contacts, sink);
      my_ns += rt.nanoseconds();
      my_pe += v;
      return v;
    };

    if constexpr (requires { Accum::kColoredSchedule; }) {
      // Phased conflict-free traversal: within a phase each thread's
      // chunks write disjoint particle sets, so every add is a plain
      // store; the barrier separates phases whose write regions overlap.
      // A section pass filters to its phases; the region join between a
      // kCore and a kHalo pass replaces the barrier that would have
      // separated them.
      const int nph = acc.phase_count();
      bool ran_phase = false;
      for (int ph = 0; ph < nph; ++ph) {
        const bool halo = acc.phase_is_halo(ph);
        if ((section == ForceSection::kCore && halo) ||
            (section == ForceSection::kHalo && !halo)) {
          continue;
        }
        if (ran_phase) team.barrier();
        ran_phase = true;
        if (steal_mode) {
          // Claim chunk positions from the phase's cursor.  Within a
          // color every particle belongs to at most one chunk and each
          // position is claimed exactly once, so neither the claiming
          // thread nor the claiming order can change any particle's
          // accumulation order — forces are bit-identical to the static
          // schedule.
          const auto cs = acc.color_chunks(acc.phase_color(ph));
          auto& cursor = steal_cursors[static_cast<std::size_t>(ph)];
          for (;;) {
            const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
            if (k >= cs.size()) break;
            const int chunk = cs[k];
            const auto [lo, hi] =
                halo ? acc.halo_range(chunk) : acc.core_range(chunk);
            chunk_pe[chunk_slot[static_cast<std::size_t>(ph)] + k] =
                run(lo, hi, !halo, halo ? 0.5 : 1.0);
          }
        } else {
          for (const int chunk : acc.thread_chunks(acc.phase_color(ph), tid)) {
            const auto [lo, hi] =
                halo ? acc.halo_range(chunk) : acc.core_range(chunk);
            run(lo, hi, !halo, halo ? 0.5 : 1.0);
          }
        }
      }
    } else {
      if (section != ForceSection::kHalo) {
        const auto rc = smp::static_block(0, n_core_links, tid, t_count);
        run(static_cast<std::size_t>(rc.lo), static_cast<std::size_t>(rc.hi),
            true, 1.0);
      }
      if (section != ForceSection::kCore) {
        const auto rh = smp::static_block(n_core_links, n_links, tid, t_count);
        run(static_cast<std::size_t>(rh.lo), static_cast<std::size_t>(rh.hi),
            false, 0.5);
      }
    }

    acc.thread_finish(team, tid, store);
    slots[static_cast<std::size_t>(tid)].pe = my_pe;
    slots[static_cast<std::size_t>(tid)].contacts = my_contacts;
    slots[static_cast<std::size_t>(tid)].cost_ns = my_ns;
  });

  double pe = 0.0;
  std::uint64_t contacts = 0;
  for (const auto& s : slots) {
    pe += s.pe;
    contacts += s.contacts;
  }
  if (steal_mode) {
    // Fixed (phase, chunk) summation order, independent of who claimed
    // what; unexecuted phases of a section pass contribute zero slots.
    pe = 0.0;
    for (const double v : chunk_pe) pe += v;
  }
  if (counters != nullptr) {
    if (counters->thread_cost_ns.size() < static_cast<std::size_t>(t_count)) {
      counters->thread_cost_ns.resize(static_cast<std::size_t>(t_count), 0);
    }
    for (int t = 0; t < t_count; ++t) {
      counters->thread_cost_ns[static_cast<std::size_t>(t)] +=
          slots[static_cast<std::size_t>(t)].cost_ns;
    }
    acc.collect(*counters);
    counters->color_barriers += color_barriers;
    switch (section) {
      case ForceSection::kAll: counters->force_evals += list.size(); break;
      case ForceSection::kCore: counters->force_evals += list.n_core; break;
      case ForceSection::kHalo:
        counters->force_evals += list.size() - list.n_core;
        break;
    }
    counters->contacts += contacts;
  }
  return pe;
}

// Threaded position update ("the update of positions is parallelised over
// particles").
template <int D>
void smp_update_positions(smp::ThreadTeam& team, ParticleStore<D>& store,
                          std::size_t ncore, double dt, const Vec<D>& gravity,
                          const Boundary<D>& bc,
                          Counters* counters = nullptr) {
  team.parallel_for(0, static_cast<std::int64_t>(ncore),
                    [&](int, std::int64_t lo, std::int64_t hi) {
                      kick_drift_range(store, static_cast<std::size_t>(lo),
                                       static_cast<std::size_t>(hi), dt,
                                       gravity, bc, nullptr);
                    });
  if (counters != nullptr) counters->position_updates += ncore;
}

// Fused-hybrid helper (the paper's Section 11 proposal): process one
// block's links [lo, hi) — indices local to the block's list — inside an
// already-open parallel region, feeding the block's accumulator.  Returns
// the potential energy of the processed links (half weight for core-halo
// links) and tallies contacts.
template <int D, class Model, class Accum>
double fused_force_range(const LinkList& list, std::int64_t lo,
                         std::int64_t hi, ParticleStore<D>& store,
                         const Model& model, Accum& acc, int tid,
                         std::uint64_t& contacts) {
  auto pos = store.positions();
  auto vel = store.velocities();
  const auto n_core = static_cast<std::int64_t>(list.n_core);
  // Blocks see shifted halo copies, so displacement is plain xi - xj; the
  // non-periodic PairDisp keeps the kernel's vector gather phase active.
  const PairDisp<D> disp{};
  const auto sink = [&](std::int32_t p, const Vec<D>& f) {
    acc.add(tid, p, f, store);
  };
  // The range may straddle the core/halo boundary; each side runs through
  // the batched kernel with its own update/weight mode.
  double pe = 0.0;
  const std::int64_t core_hi = std::min(hi, n_core);
  if (lo < core_hi) {
    pe += batched_pair_links<D>(
        std::span<const Link>(list.links.data() + lo,
                              static_cast<std::size_t>(core_hi - lo)),
        pos, vel, model, disp, true, 1.0, contacts, sink);
  }
  const std::int64_t halo_lo = std::max(lo, n_core);
  if (halo_lo < hi) {
    pe += batched_pair_links<D>(
        std::span<const Link>(list.links.data() + halo_lo,
                              static_cast<std::size_t>(hi - halo_lo)),
        pos, vel, model, disp, false, 0.5, contacts, sink);
  }
  return pe;
}

// ---------------------------------------------------------------------------
// Runtime strategy selection.
template <int D>
using AnyAccumulator =
    std::variant<AtomicAllAccumulator<D>, SelectedAtomicAccumulator<D>,
                 CriticalAccumulator<D>, StripeAccumulator<D>,
                 TransposeAccumulator<D>, NoLockAccumulator<D>,
                 ColoredAccumulator<D>>;

template <int D>
AnyAccumulator<D> make_accumulator(ReductionKind kind) {
  switch (kind) {
    case ReductionKind::kAtomicAll: return AtomicAllAccumulator<D>{};
    case ReductionKind::kSelectedAtomic: return SelectedAtomicAccumulator<D>{};
    case ReductionKind::kCritical: return CriticalAccumulator<D>{};
    case ReductionKind::kStripe: return StripeAccumulator<D>{};
    case ReductionKind::kTranspose: return TransposeAccumulator<D>{};
    case ReductionKind::kNoLock: return NoLockAccumulator<D>{};
    case ReductionKind::kColored: return ColoredAccumulator<D>{};
  }
  return AtomicAllAccumulator<D>{};
}

template <int D>
void prepare_accumulator(AnyAccumulator<D>& acc, int team_size,
                         const LinkList& list, std::size_t nparticles) {
  std::visit(
      [&](auto& a) {
        if constexpr (requires { std::decay_t<decltype(a)>::kColoredSchedule; }) {
          // The colored strategy consumes the list's ColorPlan, not just
          // the link span.
          a.prepare(team_size, list, nparticles);
        } else {
          a.prepare(team_size, std::span<const Link>(list.links), list.n_core,
                    nparticles);
        }
      },
      acc);
}

template <int D, class Model, class Disp>
double dispatch_force_pass(AnyAccumulator<D>& acc, smp::ThreadTeam& team,
                           const LinkList& list, ParticleStore<D>& store,
                           const Model& model, Disp&& disp,
                           Counters* counters = nullptr,
                           ForceSection section = ForceSection::kAll) {
  return std::visit(
      [&](auto& a) {
        return smp_force_pass<D>(team, list, store, model, disp, a, counters,
                                 section);
      },
      acc);
}

}  // namespace hdem
