// Message-passing and hybrid driver.
//
// Pure message passing (nthreads = 1): the paper's MPI implementation —
// block-cyclic domain decomposition, per-block halo swaps with indexed
// templates, migration at rebuilds, global reductions for energies and the
// rebuild criterion.  It is the hybrid code on a one-member team, which
// starts no thread and runs every region inline; only the force pass keeps
// a plain per-block loop.
//
// Hybrid (nthreads > 1): "The domain decomposition gives each MPI process
// a set of blocks with accompanying halos.  The OpenMP parallelisation
// occurs lower down at the level of loops over the links or particles
// within each block, so MPI communications never take place within a
// parallel region."  Each rank owns a thread team; per-block force and
// update loops run on the team (one parallel region per block per loop,
// reproducing the hybrid overhead structure the paper analyses), while all
// communication is performed by the master thread.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/boundary.hpp"
#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/dynamics.hpp"
#include "core/force_model.hpp"
#include "core/init.hpp"
#include "core/rebuild.hpp"
#include "core/step_loop.hpp"
#include "decomp/block.hpp"
#include "decomp/halo.hpp"
#include "decomp/layout.hpp"
#include "decomp/migrate.hpp"
#include "decomp/rebalance.hpp"
#include "mp/comm.hpp"
#include "mp/nodemap.hpp"
#include "reduction/force_pass.hpp"
#include "smp/thread_team.hpp"
#include "trace/tracer.hpp"
#include "util/timer.hpp"

namespace hdem {

// StateRecord (core/init.hpp) is the snapshot type gather_state returns.

template <int D, class Model = ElasticSphere>
class MpSim {
 public:
  struct Options {
    int nthreads = 1;  // > 1 selects the hybrid scheme
    ReductionKind reduction = ReductionKind::kSelectedAtomic;
    // The paper's Section 11 proposal: "a single parallel loop over all
    // links in all blocks rather than one loop per block", reducing both
    // the per-block fork/join overhead and the inter-thread dependencies
    // (a thread's contiguous global link range covers whole blocks most of
    // the time).  Only meaningful for the hybrid scheme with an
    // atomic-family reduction.
    bool fused = false;
    // Overlap halo communication with core-link forces: initiate every
    // block's swap, compute core links (which never read halo data) while
    // messages are in flight, complete the swap, then compute halo links.
    // Trajectories are bit-identical to the synchronous schedule — within
    // each block core links are accumulated before halo links either way.
    bool overlap = false;
    // Deterministic work stealing over color-plan chunks (colored
    // reduction only): threads claim chunks from an atomic cursor instead
    // of walking static runs.  Conflict-free under the color plan, so
    // trajectories stay bit-identical at any team size.
    bool steal = false;
    // Adaptive cost-driven block remapping: accumulate measured per-block
    // step cost, exchange the cost vector at list rebuilds, and adopt a
    // deterministic LPT assignment table when the measured imbalance
    // exceeds rebalance_threshold (max/mean rank load).  Blocks migrate
    // whole; halo plans are rebuilt against the new table; trajectories
    // are unaffected (per-block physics is ownership-independent).
    bool rebalance = false;
    double rebalance_threshold = 1.15;
    // Zero-copy intra-node halo exchange: edges between ranks of the same
    // node (ranks_per_node consecutive ranks per node; 0 = every rank on
    // one node) gather halo positions straight out of the neighbour's
    // position array through generation-fenced shared windows instead of
    // messages.  Trajectories are bit-identical to the wire path.
    bool shared_halo = false;
    int ranks_per_node = 0;
  };

  MpSim(const SimConfig<D>& cfg, const DecompLayout<D>& layout,
        mp::Comm& comm, const Model& model,
        std::span<const ParticleInit<D>> global_particles,
        Options opts = {})
      : cfg_(cfg),
        layout_(layout),
        comm_(&comm),
        model_(model),
        boundary_(cfg.bc, cfg.box),
        // The exchanger aliases this driver's layout_ (declared before
        // halo_), so rebalancer edits to the assignment table are visible
        // at the next template rebuild.  Templates are built at the
        // widened width rc + skin: the extra ring of copies is what lets
        // one template survive every step of a list-reuse interval.
        halo_(layout_, boundary_, cfg.list_radius()),
        opts_(opts),
        trigger_(cfg.drift_allowance()) {
    cfg_.validate();
    layout_.validate(cfg_);
    if (layout_.nprocs() != comm.size()) {
      throw std::invalid_argument("MpSim: layout rank count != comm size");
    }
    if (opts_.fused && opts_.nthreads < 2) {
      throw std::invalid_argument("MpSim: fused mode requires a thread team");
    }
    if (opts_.fused && opts_.reduction != ReductionKind::kAtomicAll &&
        opts_.reduction != ReductionKind::kSelectedAtomic &&
        opts_.reduction != ReductionKind::kNoLock &&
        opts_.reduction != ReductionKind::kColored) {
      throw std::invalid_argument(
          "MpSim: fused mode supports the atomic-family and colored "
          "reductions only (private-array strategies need per-block merge "
          "phases)");
    }
    if (opts_.steal && opts_.reduction != ReductionKind::kColored) {
      throw std::invalid_argument(
          "MpSim: work stealing requires the colored reduction (chunk "
          "claiming is only conflict-free under the color plan)");
    }
    if (opts_.rebalance_threshold < 1.0) {
      throw std::invalid_argument("MpSim: rebalance threshold below 1.0");
    }
    team_ = std::make_unique<smp::ThreadTeam>(opts_.nthreads);
    if (opts_.shared_halo) {
      halo_.enable_shared_windows(mp::NodeMap(opts_.ranks_per_node));
    }
    // Framed swaps (delta compression and/or coalescing) come from the
    // config — a collective setting, validated by cfg_.validate() above —
    // so every rank's exchanger frames identically.
    halo_.set_frame_modes(cfg_.halo_delta, cfg_.halo_coalesce);

    // Instantiate this rank's blocks and adopt its share of the global
    // initial condition (every rank scans the same deterministic list).
    for (const auto& coords : layout_.blocks_of_rank(comm.rank())) {
      BlockDomain<D> b;
      b.coords = coords;
      b.index = layout_.block_index(coords);
      b.lo = layout_.block_lo(coords, cfg_.box);
      b.hi = b.lo + layout_.block_width(cfg_.box);
      blocks_.push_back(std::move(b));
    }
    for (std::size_t i = 0; i < global_particles.size(); ++i) {
      const auto& p = global_particles[i];
      const auto c = layout_.block_of_position(p.pos, cfg_.box);
      if (layout_.owner_rank(c) != comm.rank()) continue;
      const int bi = layout_.block_index(c);
      for (auto& b : blocks_) {
        if (b.index == bi) {
          b.store.push_back(p.pos, p.vel, static_cast<std::int32_t>(i));
          b.ncore = b.store.size();
          break;
        }
      }
    }
    counters_.blocks = blocks_.size();
    rebuild();
  }

  bool hybrid() const { return opts_.nthreads > 1; }

  void step() {
    if (trigger_.prepare_step(counters_, [&] { rebuild(); })) {
      // A reused list skips the whole rebuild pipeline: no migration
      // check, no halo-template refresh (and hence no shared-window
      // republication), no link regeneration.  The per-step halo swap
      // still runs — positions change every step — but against the
      // templates built at the widened width.
      ++counters_.migrations_skipped;
      ++counters_.halo_rebuilds_skipped;
    }
    trace::Scope iteration(trace::Phase::kIteration, comm_->rank());
    {
      trace::Scope scope(trace::Phase::kHaloSwap, comm_->rank());
      halo_.begin_swap(blocks_, *comm_, counters_);
    }
    if (!opts_.overlap) {
      // Synchronous schedule: complete the swap before any force work.
      // The kHaloSwap / kHaloWait trace split stays visible either way.
      trace::Scope scope(trace::Phase::kHaloWait, comm_->rank());
      halo_.finish_swap(blocks_, *comm_, counters_);
    }
    potential_ = 0.0;
    if (opts_.fused) {
      const bool colored = opts_.reduction == ReductionKind::kColored;
      if (opts_.overlap) {
        double pe_core = 0.0;
        {
          trace::Scope scope(trace::Phase::kForce, comm_->rank());
          pe_core = colored ? fused_colored_force_pass(ForceSection::kCore)
                            : fused_force_pass(ForceSection::kCore);
        }
        {
          trace::Scope scope(trace::Phase::kHaloWait, comm_->rank());
          halo_.finish_swap(blocks_, *comm_, counters_);
        }
        trace::Scope scope(trace::Phase::kForce, comm_->rank());
        potential_ =
            pe_core + (colored ? fused_colored_force_pass(ForceSection::kHalo)
                               : fused_force_pass(ForceSection::kHalo));
      } else {
        trace::Scope scope(trace::Phase::kForce, comm_->rank());
        potential_ = colored ? fused_colored_force_pass(ForceSection::kAll)
                             : fused_force_pass(ForceSection::kAll);
      }
      // Links walked per step is the cost signal (ISSUE: links walked ×
      // ns/link — the scale factor cancels out of LPT's relative weights).
      // Unlike wall-clock timings it is identical on every run, rank and
      // team size, so every schedule adopts the same tables at the same
      // rebuilds and the bit-identity gate holds by construction.
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        block_cost_ns_[k] += blocks_[k].links.size();
      }
      trace::Scope scope(trace::Phase::kUpdate, comm_->rank());
      fused_update_positions();
    } else {
      if (opts_.overlap) {
        // Every block's core-link pass runs while halo messages are in
        // flight; halo-link passes and updates follow the completed swap.
        pe_scratch_.assign(blocks_.size() * 2, 0.0);
        for (std::size_t k = 0; k < blocks_.size(); ++k) {
          trace::Scope scope(trace::Phase::kForce, comm_->rank());
          block_forces(k, ForceSection::kCore, pe_scratch_[2 * k]);
          block_cost_ns_[k] += blocks_[k].links.n_core;
        }
        trace::Scope scope(trace::Phase::kHaloWait, comm_->rank());
        halo_.finish_swap(blocks_, *comm_, counters_);
      }
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        auto& b = blocks_[k];
        {
          trace::Scope scope(trace::Phase::kForce, comm_->rank());
          if (opts_.overlap) {
            block_forces(k, ForceSection::kHalo, pe_scratch_[2 * k + 1]);
            block_cost_ns_[k] += b.links.size() - b.links.n_core;
          } else {
            block_forces(k, ForceSection::kAll, potential_);
            block_cost_ns_[k] += b.links.size();
          }
        }
        trace::Scope scope(trace::Phase::kUpdate, comm_->rank());
        smp_update_positions(*team_, b.store, b.ncore, cfg_.dt, cfg_.gravity,
                             boundary_, &counters_);
      }
      // Sum the overlapped schedule's per-block energies in the synchronous
      // schedule's core-then-halo block order, so the reported potential is
      // bit-identical too.
      for (std::size_t k = 0; opts_.overlap && k < blocks_.size(); ++k) {
        potential_ += pe_scratch_[2 * k];
        potential_ += pe_scratch_[2 * k + 1];
      }
    }

    // The rebuild criterion must be a global decision: take the worldwide
    // maximum (also how the paper's global quantities are formed — reduced
    // per block, then across processes).
    trace::Scope collective_scope(trace::Phase::kCollective, comm_->rank());
    advance_drift();
    ++counters_.iterations;
  }

  void run(std::uint64_t iterations) {
    StepLoop<MpSim>(*this, iterations).advance(iterations);
  }

  bool list_valid() const { return trigger_.list_valid(); }

  void rebuild() {
    for (auto& b : blocks_) b.store.truncate(b.ncore);
    // Rebalance before particle migration: whole blocks move first, then
    // the ordinary migration re-homes stray particles against the (possibly
    // updated) table, and everything below — templates, lists, accumulator
    // plans — is rebuilt against the new ownership.
    if (opts_.rebalance) maybe_rebalance();
    {
      trace::Scope scope(trace::Phase::kMigrate, comm_->rank());
      migrate_particles(blocks_, layout_, boundary_, *comm_, counters_);
    }

    // Cells (and the halo margin around the block) are sized for
    // binning_radius() >= rc + skin so the one-cell stencil still covers
    // the widened candidate radius.  Core-only binning first: it gives the
    // reorder permutation and selects the halo templates.
    const Vec<D> margin_vec(cfg_.binning_radius());
    const std::int32_t rank = comm_->rank();
    for (auto& b : blocks_) {
      b.grid.configure(b.lo - margin_vec, b.hi + margin_vec,
                       cfg_.binning_radius(), wrap_flags<D>(false));
      bin_stage(b.grid, b.store, b.ncore, nullptr, *team_, counters_, rank);
      if (cfg_.reorder) {
        reorder_stage(b.grid, b.store, b.ncore, *team_, counters_, rank);
      }
    }
    {
      trace::Scope scope(trace::Phase::kHaloBuild, rank);
      halo_.build_templates(blocks_, *comm_, counters_);
    }

    counters_.links_core = 0;
    counters_.links_halo = 0;
    counters_.halo_particles = 0;
    counters_.particles = 0;
    std::size_t ncore = 0;
    for (const auto& b : blocks_) ncore += b.ncore;
    trigger_.reset(ncore);
    trace::Scope link_scope(trace::Phase::kLinkBuild, rank);
    for (auto& b : blocks_) {
      // Re-bin including the fresh halo copies.  They carry shifted
      // coordinates, so the displacement is plain xi - xj.
      bin_stage(b.grid, b.store, b.store.size(), nullptr, *team_, counters_,
                rank);
      link_stage(b.links, b.grid, b.store, b.ncore, cfg_.list_radius(),
                 PairDisp<D>{}, *team_, fused_link_scratch_, counters_, rank);
      counters_.halo_particles += b.halo_count();
      counters_.particles += b.ncore;
      trigger_.record(b.store, b.ncore);
    }
    if (hybrid()) prepare_team_accumulators();
    // Fresh cost window for the next rebuild interval (and the right size
    // after a block handoff).
    block_cost_ns_.assign(blocks_.size(), 0);
    ++counters_.rebuilds;
  }

  // -- energies (collective: every rank must call together) -----------------
  double local_potential() const { return potential_; }
  double local_kinetic() const {
    double ke = 0.0;
    for (const auto& b : blocks_) ke += kinetic_energy(b.store, b.ncore);
    return ke;
  }
  double global_potential() { return reduce_energy(local_potential()); }
  double global_kinetic() { return reduce_energy(local_kinetic()); }
  double global_energy() {
    return reduce_energy(local_potential() + local_kinetic());
  }

  // Full particle state at the root rank, sorted by id (empty elsewhere).
  // Collective.
  std::vector<StateRecord<D>> gather_state(int root = 0) {
    std::vector<StateRecord<D>> mine;
    for (const auto& b : blocks_) {
      for (std::size_t i = 0; i < b.ncore; ++i) {
        mine.push_back({b.store.id(i), b.store.pos(i), b.store.vel(i)});
      }
    }
    auto all = comm_->gatherv(std::span<const StateRecord<D>>(mine), root);
    std::sort(all.begin(), all.end(),
              [](const StateRecord<D>& a, const StateRecord<D>& b) {
                return a.id < b.id;
              });
    return all;
  }

  // This rank's counters including communication and (hybrid) team
  // synchronisation tallies.
  Counters counters() const {
    Counters c = counters_;
    const Counters& mc = comm_->counters();
    c.msgs_sent = mc.msgs_sent;
    c.bytes_sent = mc.bytes_sent;
    c.collectives = mc.collectives;
    c.irecvs_posted = mc.irecvs_posted;
    c.waits_blocked = mc.waits_blocked;
    c.bytes_overlapped = mc.bytes_overlapped;
    c.bytes_exposed = mc.bytes_exposed;
    c.exposed_wait_ns = mc.exposed_wait_ns;
    if (hybrid()) {
      c.parallel_regions = team_->regions();
      c.barriers = team_->barriers();
      c.critical_sections = team_->criticals();
    }
    // Live per-block cost window (since the last rebuild), for the
    // imbalance diagnostics and tests.
    c.block_cost_ns = block_cost_ns_;
    return c;
  }

  const std::vector<BlockDomain<D>>& blocks() const { return blocks_; }
  const DecompLayout<D>& layout() const { return layout_; }
  const SimConfig<D>& config() const { return cfg_; }
  mp::Comm& comm() { return *comm_; }

 private:
  // The tentpole's decision step, run at every list rebuild when enabled.
  // Collective: every rank contributes its measured per-block costs to one
  // allgatherv, then runs the identical pure-integer procedure (permille
  // imbalance of the current table vs the deterministic LPT candidate) on
  // the identical vector — so all ranks adopt, or keep, the same table
  // with no further communication.  On adoption, whole blocks hand their
  // particles to the new owners before the ordinary migration runs.
  void maybe_rebalance() {
    trace::Scope scope(trace::Phase::kRebalance, comm_->rank());
    std::vector<BlockCost> mine(blocks_.size());
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      mine[k].block = blocks_[k].index;
      mine[k].cost = k < block_cost_ns_.size() ? block_cost_ns_[k] : 0;
    }
    const auto cost = exchange_block_costs(layout_.nblocks(), mine, *comm_);
    // Construction rebuild (or a rebuild before any step): nothing has
    // been measured anywhere, so keep the current table.  The check is on
    // the gathered vector, which every rank sees identically.
    bool measured = false;
    for (const std::uint64_t c : cost) measured = measured || c != 0;
    if (!measured) return;
    const std::uint64_t current =
        imbalance_permille(cost, layout_.assignment(), layout_.nprocs());
    std::vector<int> candidate = lpt_assignment<D>(layout_, cost);
    const std::uint64_t cand =
        imbalance_permille(cost, candidate, layout_.nprocs());
    if (!should_adopt(current, cand, opts_.rebalance_threshold)) return;
    std::uint64_t moved = 0;
    for (std::size_t b = 0; b < candidate.size(); ++b) {
      if (candidate[b] != layout_.assignment()[b]) ++moved;
    }
    layout_.set_assignment(std::move(candidate));
    migrate_blocks(blocks_, layout_, cfg_.box, *comm_, counters_);
    counters_.blocks_reassigned += moved;
    ++counters_.rebalances;
    counters_.blocks = blocks_.size();
  }

  // One block's force pass over `section`, added into `pe`: the team's
  // reduction strategy on the hybrid scheme, the plain serial loops at one
  // thread (the strategies cost and count differently there).
  void block_forces(std::size_t k, ForceSection section, double& pe) {
    auto& b = blocks_[k];
    // Halo copies are geometrically shifted, so displacement is plain
    // xi - xj; PairDisp (not an opaque lambda) keeps the batched kernel's
    // vector gather phase active.
    const PairDisp<D> disp{};
    if (hybrid()) {
      pe += dispatch_force_pass<D>(accs_[k], *team_, b.links, b.store, model_,
                                   disp, &counters_, section);
      return;
    }
    if (section != ForceSection::kHalo) {
      zero_forces(b.store);
      pe += accumulate_forces<D>(b.links.core(), b.store, model_, disp,
                                 /*update_both=*/true, 1.0, &counters_);
    }
    if (section != ForceSection::kCore) {
      pe += accumulate_forces<D>(b.links.halo(), b.store, model_, disp,
                                 /*update_both=*/false, 0.5, &counters_);
    }
  }

  void prepare_team_accumulators() {
    accs_.resize(blocks_.size());
    // Global prefix offsets of each block's links / core particles, used
    // by the fused scheme's single static partitions.  The overlapped
    // fused schedule partitions the core-link and halo-link totals
    // separately, so those prefixes are kept as well.
    link_offset_.assign(blocks_.size() + 1, 0);
    core_offset_.assign(blocks_.size() + 1, 0);
    core_link_offset_.assign(blocks_.size() + 1, 0);
    halo_link_offset_.assign(blocks_.size() + 1, 0);
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      link_offset_[k + 1] =
          link_offset_[k] + static_cast<std::int64_t>(blocks_[k].links.size());
      core_offset_[k + 1] =
          core_offset_[k] + static_cast<std::int64_t>(blocks_[k].ncore);
      core_link_offset_[k + 1] =
          core_link_offset_[k] +
          static_cast<std::int64_t>(blocks_[k].links.n_core);
      halo_link_offset_[k + 1] =
          halo_link_offset_[k] +
          static_cast<std::int64_t>(blocks_[k].links.size() -
                                    blocks_[k].links.n_core);
    }
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      auto& b = blocks_[k];
      accs_[k] = make_accumulator<D>(opts_.reduction);
      if (opts_.steal) {
        // Survives until the next make_accumulator (i.e. set every rebuild).
        std::get<ColoredAccumulator<D>>(accs_[k]).set_steal(true);
      }
      if (opts_.fused) {
        std::visit(
            [&](auto& a) {
              using T = std::decay_t<decltype(a)>;
              if constexpr (std::is_same_v<T, SelectedAtomicAccumulator<D>>) {
                a.prepare_global(team_->size(),
                                 std::span<const Link>(b.links.links),
                                 b.links.n_core, b.ncore, link_offset_[k],
                                 link_offset_.back());
                if (opts_.overlap) {
                  a.mark_global_split(team_->size(),
                                      std::span<const Link>(b.links.links),
                                      b.links.n_core, core_link_offset_[k],
                                      core_link_offset_.back(),
                                      halo_link_offset_[k],
                                      halo_link_offset_.back());
                }
              } else if constexpr (std::is_same_v<T, ColoredAccumulator<D>>) {
                // The fused colored pass walks global color phases but each
                // chunk is still a per-block color-plan chunk, so the
                // per-block prepare supplies everything it needs.
                a.prepare(team_->size(), b.links, b.ncore);
              } else {
                a.prepare(team_->size(), std::span<const Link>(b.links.links),
                          b.links.n_core, b.ncore);
              }
            },
            accs_[k]);
      } else {
        prepare_accumulator<D>(accs_[k], team_->size(), b.links, b.ncore);
      }
    }
    if (opts_.fused && opts_.reduction == ReductionKind::kColored) {
      build_fused_color_phases();
    }
  }

  // Fused colored schedule (Section 11 proposal × colored reduction): one
  // parallel region per pass, but instead of one static partition of the
  // global link range, the pass runs four barrier-separated *global* color
  // phases — every block's core color 0, then core color 1, then halo
  // color 0, then halo color 1.  Chunks of different blocks touch
  // different stores and same-color chunks within a block are
  // conflict-free by the plan, so every phase is race-free with plain
  // stores.  Each particle still sees core color 0 before core color 1
  // before the halo colors — the per-block colored order — so the forces
  // are bit-identical to the per-block colored driver (and the serial
  // one).  A block with one color or no halo links simply contributes no
  // items to the absent phases.
  struct FusedChunk {
    std::int32_t block;  // local block position
    std::int32_t chunk;  // chunk id in that block's color plan
  };

  void build_fused_color_phases() {
    for (int ph = 0; ph < 4; ++ph) {
      fused_items_[ph].clear();
      fused_weight_[ph].assign(1, 0);
    }
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      const auto& ca = std::get<ColoredAccumulator<D>>(accs_[k]);
      const bool halo = blocks_[k].links.size() > blocks_[k].links.n_core;
      for (int color = 0; color < ca.ncolors(); ++color) {
        for (const int chunk : ca.color_chunks(color)) {
          const auto [clo, chi] = ca.core_range(chunk);
          fused_items_[color].push_back(
              {static_cast<std::int32_t>(k), chunk});
          fused_weight_[color].push_back(
              fused_weight_[color].back() +
              static_cast<std::uint64_t>(chi - clo));
          if (halo) {
            const auto [hlo, hhi] = ca.halo_range(chunk);
            fused_items_[2 + color].push_back(
                {static_cast<std::int32_t>(k), chunk});
            fused_weight_[2 + color].push_back(
                fused_weight_[2 + color].back() +
                static_cast<std::uint64_t>(hhi - hlo));
          }
        }
      }
    }
    // Static per-phase thread bounds, weight-balanced by link count with
    // the same midpoint rule as ColoredAccumulator::prepare.
    const auto tsz = static_cast<std::size_t>(team_->size());
    std::size_t slot = 0;
    for (int ph = 0; ph < 4; ++ph) {
      const std::size_t m = fused_items_[ph].size();
      const std::uint64_t total = fused_weight_[ph].back();
      auto& bound = fused_bounds_[ph];
      bound.assign(tsz + 1, m);
      bound[0] = 0;
      std::size_t cursor = 0;
      for (std::size_t t = 1; t < tsz; ++t) {
        if (total == 0) {
          cursor = m * t / tsz;
        } else {
          const std::uint64_t target = total * t / tsz;
          while (cursor < m && (fused_weight_[ph][cursor] +
                                fused_weight_[ph][cursor + 1]) /
                                       2 <=
                                   target) {
            ++cursor;
          }
        }
        bound[t] = cursor;
      }
      fused_slot_[ph] = slot;
      slot += m;
    }
    fused_pe_.assign(slot, 0.0);
  }

  double fused_colored_force_pass(ForceSection section) {
    const int t_count = team_->size();
    std::vector<std::uint64_t> contacts(static_cast<std::size_t>(t_count) * 8,
                                        0);
    std::vector<std::uint64_t> cost(static_cast<std::size_t>(t_count) * 8, 0);
    std::array<std::atomic<std::size_t>, 4> cursors{};
    const int ph_lo = section == ForceSection::kHalo ? 2 : 0;
    const int ph_hi = section == ForceSection::kCore ? 2 : 4;
    for (int ph = ph_lo; ph < ph_hi; ++ph) {
      std::fill(fused_pe_.begin() + static_cast<std::int64_t>(fused_slot_[ph]),
                fused_pe_.begin() + static_cast<std::int64_t>(
                                        fused_slot_[ph] +
                                        fused_items_[ph].size()),
                0.0);
    }
    team_->parallel([&](int tid) {
      if (section != ForceSection::kHalo) {
        for (auto& b : blocks_) {
          const auto r = smp::static_block(
              0, static_cast<std::int64_t>(b.store.size()), tid, t_count);
          auto frc = b.store.forces();
          for (std::int64_t i = r.lo; i < r.hi; ++i) {
            frc[static_cast<std::size_t>(i)] = Vec<D>{};
          }
        }
        team_->barrier();
      }
      std::uint64_t my_contacts = 0;
      std::uint64_t my_ns = 0;
      const auto run_item = [&](int ph, std::size_t k) {
        const FusedChunk it = fused_items_[ph][k];
        auto& b = blocks_[static_cast<std::size_t>(it.block)];
        auto& ca =
            std::get<ColoredAccumulator<D>>(accs_[static_cast<std::size_t>(
                it.block)]);
        const bool halo = ph >= 2;
        const auto [lo, hi] =
            halo ? ca.halo_range(it.chunk) : ca.core_range(it.chunk);
        const auto sink = [&](std::int32_t p, const Vec<D>& f) {
          ca.add(tid, p, f, b.store);
        };
        const PairDisp<D> disp{};
        const Timer rt;
        const double v = batched_pair_links<D>(
            std::span<const Link>(b.links.links.data() + lo, hi - lo),
            b.store.positions(), b.store.velocities(), model_, disp, !halo,
            halo ? 0.5 : 1.0, my_contacts, sink);
        my_ns += rt.nanoseconds();
        // Per-item energy slot in fixed (phase, item) order: the reported
        // potential is identical whichever thread ran the item and at any
        // team size (static or stealing).
        fused_pe_[fused_slot_[ph] + k] = v;
      };
      bool first = true;
      for (int ph = ph_lo; ph < ph_hi; ++ph) {
        if (!first) team_->barrier();
        first = false;
        if (opts_.steal) {
          auto& cursor = cursors[static_cast<std::size_t>(ph)];
          for (;;) {
            const std::size_t k =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (k >= fused_items_[ph].size()) break;
            run_item(ph, k);
          }
        } else {
          const auto& bound = fused_bounds_[ph];
          const auto t = static_cast<std::size_t>(tid);
          for (std::size_t k = bound[t]; k < bound[t + 1]; ++k) {
            run_item(ph, k);
          }
        }
      }
      contacts[static_cast<std::size_t>(tid) * 8] = my_contacts;
      cost[static_cast<std::size_t>(tid) * 8] = my_ns;
    });
    double pe = 0.0;
    for (int ph = ph_lo; ph < ph_hi; ++ph) {
      for (std::size_t k = 0; k < fused_items_[ph].size(); ++k) {
        pe += fused_pe_[fused_slot_[ph] + k];
      }
    }
    if (counters_.thread_cost_ns.size() < static_cast<std::size_t>(t_count)) {
      counters_.thread_cost_ns.resize(static_cast<std::size_t>(t_count), 0);
    }
    for (int t = 0; t < t_count; ++t) {
      counters_.contacts += contacts[static_cast<std::size_t>(t) * 8];
      counters_.thread_cost_ns[static_cast<std::size_t>(t)] +=
          cost[static_cast<std::size_t>(t) * 8];
    }
    const std::vector<std::int64_t>& offs =
        section == ForceSection::kAll
            ? link_offset_
            : (section == ForceSection::kCore ? core_link_offset_
                                              : halo_link_offset_);
    counters_.force_evals += static_cast<std::uint64_t>(offs.back());
    counters_.color_barriers +=
        static_cast<std::uint64_t>(ph_hi - ph_lo - 1);
    for (auto& acc : accs_) {
      std::visit([&](auto& a) { a.collect(counters_); }, acc);
    }
    return pe;
  }

  // One parallel region for the whole rank: zero every block's forces,
  // barrier, then each thread walks its share of the single global link
  // range, dispatching into the owning blocks.  (Section 11: "a single
  // parallel loop over all links in all blocks rather than one loop per
  // block".)  Under the overlapped schedule the pass runs twice — once
  // over the global core-link range while halos are in flight, once over
  // the global halo-link range afterwards — with each section partitioned
  // by its own prefix offsets; the kHalo pass joins the accumulation
  // without re-zeroing.
  double fused_force_pass(ForceSection section = ForceSection::kAll) {
    const int t_count = team_->size();
    std::vector<double> pe(static_cast<std::size_t>(t_count) * 8, 0.0);
    std::vector<std::uint64_t> contacts(static_cast<std::size_t>(t_count) * 8,
                                        0);
    const std::vector<std::int64_t>& offs =
        section == ForceSection::kAll
            ? link_offset_
            : (section == ForceSection::kCore ? core_link_offset_
                                              : halo_link_offset_);
    const std::int64_t total = offs.back();
    team_->parallel([&](int tid) {
      if (section != ForceSection::kHalo) {
        for (auto& b : blocks_) {
          const auto r = smp::static_block(
              0, static_cast<std::int64_t>(b.store.size()), tid, t_count);
          auto frc = b.store.forces();
          for (std::int64_t i = r.lo; i < r.hi; ++i) {
            frc[static_cast<std::size_t>(i)] = Vec<D>{};
          }
        }
        team_->barrier();
      }
      const auto g = smp::static_block(0, total, tid, t_count);
      double my_pe = 0.0;
      std::uint64_t my_contacts = 0;
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        const std::int64_t lo = std::max(g.lo, offs[k]);
        const std::int64_t hi = std::min(g.hi, offs[k + 1]);
        if (lo >= hi) continue;
        auto& b = blocks_[k];
        // Block-local link indices: a kHalo range starts at the block's
        // halo section, the other sections start at zero.
        const std::int64_t base =
            section == ForceSection::kHalo
                ? static_cast<std::int64_t>(b.links.n_core)
                : 0;
        std::visit(
            [&](auto& a) {
              my_pe += fused_force_range<D>(
                  b.links, base + (lo - offs[k]), base + (hi - offs[k]),
                  b.store, model_, a, tid, my_contacts);
            },
            accs_[k]);
      }
      pe[static_cast<std::size_t>(tid) * 8] = my_pe;
      contacts[static_cast<std::size_t>(tid) * 8] = my_contacts;
    });
    double total_pe = 0.0;
    for (int t = 0; t < t_count; ++t) {
      total_pe += pe[static_cast<std::size_t>(t) * 8];
      counters_.contacts += contacts[static_cast<std::size_t>(t) * 8];
    }
    counters_.force_evals += static_cast<std::uint64_t>(total);
    for (auto& acc : accs_) {
      std::visit([&](auto& a) { a.collect(counters_); }, acc);
    }
    return total_pe;
  }

  // One parallel region over the global core-particle range.
  void fused_update_positions() {
    const int t_count = team_->size();
    const std::int64_t total = core_offset_.back();
    team_->parallel([&](int tid) {
      const auto g = smp::static_block(0, total, tid, t_count);
      for (std::size_t k = 0; k < blocks_.size(); ++k) {
        const std::int64_t lo = std::max(g.lo, core_offset_[k]);
        const std::int64_t hi = std::min(g.hi, core_offset_[k + 1]);
        if (lo >= hi) continue;
        kick_drift_range(
            blocks_[k].store, static_cast<std::size_t>(lo - core_offset_[k]),
            static_cast<std::size_t>(hi - core_offset_[k]), cfg_.dt,
            cfg_.gravity, boundary_, nullptr);
      }
    });
    counters_.position_updates += static_cast<std::uint64_t>(total);
  }

  double reduce_energy(double local) {
    return comm_->allreduce(local, mp::Op::kSum);
  }

  // Advance the rebuild criterion: the per-rank maximum core displacement
  // since the last rebuild, reduced across ranks with one kMax allreduce
  // so every rank takes the same rebuild decision.  A non-finite state
  // scans as +inf, so that same allreduce tells every rank; only then does
  // a kMin allreduce agree on the offending id, and every rank throws the
  // same SimulationDiverged.
  void advance_drift() {
    double local = 0.0;
    for (std::size_t k = 0; k < blocks_.size(); ++k) {
      local = std::max(local, trigger_.scan(k, blocks_[k].store));
    }
    trigger_.settle(comm_->allreduce(local, mp::Op::kMax),
                    counters_.iterations, [&](std::int32_t id) {
                      return comm_->allreduce(id, mp::Op::kMin);
                    });
  }

  SimConfig<D> cfg_;
  DecompLayout<D> layout_;
  mp::Comm* comm_;
  Model model_;
  Boundary<D> boundary_;
  HaloExchanger<D> halo_;
  Options opts_;
  // Every rank owns a team; one member starts no thread.  Held by pointer
  // so the driver stays movable.
  std::unique_ptr<smp::ThreadTeam> team_;
  std::vector<AnyAccumulator<D>> accs_;
  std::vector<BlockDomain<D>> blocks_;
  FusedBuildScratch fused_link_scratch_;  // reused per block
  // Global prefix offsets for the fused scheme's single static partitions
  // (whole list, plus the overlapped schedule's per-section partitions).
  std::vector<std::int64_t> link_offset_;
  std::vector<std::int64_t> core_offset_;
  std::vector<std::int64_t> core_link_offset_;
  std::vector<std::int64_t> halo_link_offset_;
  // Per-block (core, halo) potential-energy partials for the overlapped
  // schedule, reused across steps.
  std::vector<double> pe_scratch_;
  // Fused colored schedule: per-global-phase item lists (phase = 2*is_halo
  // + color), prefix link weights, static thread bounds, and the per-item
  // potential-energy slots with their per-phase base offsets.
  std::array<std::vector<FusedChunk>, 4> fused_items_;
  std::array<std::vector<std::uint64_t>, 4> fused_weight_;
  std::array<std::vector<std::size_t>, 4> fused_bounds_;
  std::array<std::size_t, 4> fused_slot_{};
  std::vector<double> fused_pe_;
  // Per-block step cost accumulated since the last rebuild, in links
  // walked (the cost model's dominant term and, unlike a wall-clock
  // timing, identical across runs, ranks and team sizes — the rebalancer
  // must see the same vector everywhere to adopt the same table); reset
  // at every rebuild.
  std::vector<std::uint64_t> block_cost_ns_;
  double potential_ = 0.0;
  RebuildTrigger<D> trigger_;
  Counters counters_;
};

}  // namespace hdem
