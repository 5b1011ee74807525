// Operation counters — the measured quantities that feed the performance
// model (see src/perf).
//
// The paper analyses its results in terms of operation counts: number of
// link-force evaluations, number of atomic locks during the force update,
// bytes exchanged in halo swaps, thread synchronisations per block, etc.
// Every driver in this library maintains an exact set of such counters so
// the machine cost model works from measured inputs rather than estimates.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace hdem {

struct Counters {
  // -- simulation structure -------------------------------------------------
  std::uint64_t iterations = 0;        // force+update steps performed
  std::uint64_t rebuilds = 0;          // link-list reconstructions
  // Verlet-skin amortization: steps that reused a still-valid candidate
  // list instead of rebuilding (serial/smp/mp), and on the mp path the
  // migration checks and halo-template refreshes (with their shared-window
  // republications) those reused steps avoided.
  std::uint64_t rebuilds_skipped = 0;  // steps served by a reused list
  std::uint64_t migrations_skipped = 0;   // migration checks skipped (mp)
  std::uint64_t halo_rebuilds_skipped = 0;// template refreshes skipped (mp)
  std::uint64_t reorders = 0;          // cell-order particle permutations
  std::uint64_t particles = 0;         // core particles owned (current)
  std::uint64_t halo_particles = 0;    // halo copies held (current)
  std::uint64_t blocks = 0;            // blocks owned (current)

  // -- link list / force loop (cumulative over iterations) ------------------
  std::uint64_t links_core = 0;        // core links in current list
  std::uint64_t links_halo = 0;        // core-halo links in current list
  std::uint64_t force_evals = 0;       // links traversed (distance checks)
  std::uint64_t contacts = 0;          // pairs inside interaction range
  std::uint64_t position_updates = 0;  // particle position updates
  std::uint64_t link_gap_sum = 0;      // sum over links of |i - j| (locality)
  std::uint64_t link_gap_count = 0;    // links contributing to link_gap_sum
  // Histogram of link index gaps in log2 buckets: bucket b counts links
  // with |i - j| in [2^b, 2^(b+1)).  Bucket 0 also counts gap <= 1.  The
  // cache model reads the fraction of link accesses whose reuse span
  // exceeds a machine's cache capacity straight off this histogram.
  static constexpr int kGapBuckets = 40;
  std::uint64_t link_gap_hist[kGapBuckets] = {};
  // Histogram bucket of one gap: floor(log2(gap)), gaps 0 and 1 in bucket
  // 0, everything from 2^(kGapBuckets-1) up in the last bucket.  One
  // bit_width instead of a shift loop keeps the per-link tally cheap
  // enough to run inside the link build.
  static constexpr int gap_bucket(std::uint64_t gap) {
    return std::min(static_cast<int>(std::bit_width(gap | 1)) - 1,
                    kGapBuckets - 1);
  }

  // -- shared-memory runtime (cumulative) -----------------------------------
  std::uint64_t parallel_regions = 0;  // fork/join parallel constructs
  std::uint64_t barriers = 0;          // team barrier episodes
  std::uint64_t atomic_updates = 0;    // force accumulations done atomically
  std::uint64_t plain_updates = 0;     // force accumulations done unprotected
  std::uint64_t critical_sections = 0; // critical-section entries
  std::uint64_t reduction_bytes = 0;   // private-array traffic (zero+merge)
  // Colored reduction (current plan): number of colors (phases per pass)
  // and conflict-free chunks in the active ColorPlan; color_barriers counts
  // the extra in-pass barrier episodes the colored schedule performs
  // (cumulative — the price paid for zero atomics).
  std::uint64_t colors = 0;            // colors in the active plan (0 = off)
  std::uint64_t colored_chunks = 0;    // chunks in the active plan
  std::uint64_t color_barriers = 0;    // barriers between color phases

  // -- message passing (cumulative) ------------------------------------------
  std::uint64_t msgs_sent = 0;         // point-to-point messages to other ranks
  std::uint64_t bytes_sent = 0;        // payload bytes in those messages
  std::uint64_t msgs_local = 0;        // block-to-block copies within a rank
  std::uint64_t bytes_local = 0;       // bytes moved by those copies
  // Shared-window halo path: gathers performed directly from a same-node
  // neighbour's position array (tallied by the reader).  Conservation
  // against the wire path: bytes_sent(wire run) = bytes_sent(shared run)
  // + bytes_shared(shared run), with bytes_local identical in both.
  std::uint64_t msgs_shared = 0;       // zero-copy window gathers
  std::uint64_t bytes_shared = 0;      // bytes moved by those gathers
  std::uint64_t window_republishes = 0;// window descriptors (re)published
  std::uint64_t collectives = 0;       // barrier/reduce/bcast episodes
  std::uint64_t migrated_particles = 0;// particles re-homed at rebuilds

  // -- delta-compressed halo swaps (cumulative) -------------------------------
  // With --halo-delta each send side compares the current template slice
  // against a last-sent shadow and ships only the changed values behind a
  // bitmask frame; the receiver patches its halo region in place.  The
  // sender tallies halo_bytes_eager (what the eager protocol would have
  // shipped for the same swaps) and halo_bytes_delta (the value payload it
  // actually shipped); the receiver tallies bytes_delta_saved for the
  // entries it reconstructed from its own halo copy.  Reconstruction is
  // bitwise-exact, so the two ends of every stream agree and the merged
  // counters obey the conservation invariant
  //   halo_bytes_eager = halo_bytes_delta + bytes_delta_saved.
  // On a delta run bytes_shared also shrinks to the masked-changed bytes
  // the same-node readers actually copy (bytes_delta_saved makes up the
  // difference against an eager run).
  std::uint64_t halo_bytes_eager = 0;  // eager-equivalent bytes (sender)
  std::uint64_t halo_bytes_delta = 0;  // changed-value bytes shipped (sender)
  std::uint64_t bytes_delta_saved = 0; // bytes reconstructed in place (receiver)
  std::uint64_t halo_frame_overhead = 0;// frame header + mask bytes added
  std::uint64_t msgs_coalesced = 0;    // wire sides merged into shared frames
  // Wire halo traffic alone: msgs_sent/bytes_sent also count collectives
  // and rebuild messages, so the swap-path reductions are gated on these.
  std::uint64_t halo_msgs_wire = 0;    // halo swap messages put on the wire
  std::uint64_t halo_bytes_wire = 0;   // payload bytes in those messages

  // Fraction of eager halo bytes the delta protocol avoided shipping
  // (0 when delta is off or nothing was exchanged).
  double delta_hit_rate() const;

  // -- nonblocking runtime (cumulative) ---------------------------------------
  // A receive whose message had already arrived when its wait ran hid its
  // transfer behind compute (overlapped); one whose wait had to block left
  // the transfer on the critical path (exposed).  The split is what lets
  // the cost model price halo traffic under the overlapped schedule.
  std::uint64_t irecvs_posted = 0;     // nonblocking receives posted
  std::uint64_t waits_blocked = 0;     // wait/wait_any calls that blocked
  std::uint64_t bytes_overlapped = 0;  // received bytes complete before wait
  std::uint64_t bytes_exposed = 0;     // received bytes blocked on at wait
  std::uint64_t exposed_wait_ns = 0;   // nanoseconds spent blocked in waits

  // -- load balance (adaptive rebalancer + stealing schedule) -----------------
  std::uint64_t rebalances = 0;         // assignment tables adopted
  std::uint64_t blocks_reassigned = 0;  // blocks whose owner changed
  // Per-block accumulated step cost in links walked (the cost model's
  // ns/link term makes this a wall-time proxy that is bit-reproducible
  // across runs and team sizes) for the blocks this rank owns, in the
  // driver's block order.  Merging ranks appends (blocks are disjoint);
  // the max/mean ratio is the measured load imbalance the rebalancer acts
  // on.
  std::vector<std::uint64_t> block_cost_ns;
  // Per-thread force-pass wall time for this rank's team, indexed by
  // thread id.  Merging adds element-wise (an all-rank max/mean ratio over
  // per-rank teams would mix independent clocks).
  std::vector<std::uint64_t> thread_cost_ns;
  // Max/mean ratio of a cost vector (1.0 = balanced, 0.0 = empty).
  static double imbalance_ratio(const std::vector<std::uint64_t>& cost);
  double block_imbalance() const { return imbalance_ratio(block_cost_ns); }
  double thread_imbalance() const { return imbalance_ratio(thread_cost_ns); }

  // -- rebuild phases (cumulative nanoseconds) --------------------------------
  // Wall time per rebuild stage (core/rebuild.hpp), accumulated by the
  // drivers; the rebuild scaling bench and trace summaries read the
  // breakdown from here.  The fused link build produces the color plan
  // inside link generation.
  std::uint64_t rebuild_bin_ns = 0;      // counting-sort binning
  std::uint64_t rebuild_reorder_ns = 0;  // cell-order permutation
  std::uint64_t rebuild_linkgen_ns = 0;  // link generation + color plan

  // Accumulate another counter set (e.g. merging per-rank counters).
  // "Current" quantities (particles, links_core, ...) add as well, which is
  // the right semantics when merging disjoint ranks/blocks.
  Counters& merge(const Counters& o);

  // Mean index distance between link endpoints; the locality metric used by
  // the cache model (large for random particle order, small after
  // cell-order reordering).
  double mean_link_gap() const;

  // Record one link gap into the sum and histogram.
  void record_link_gap(std::uint64_t gap) {
    link_gap_sum += gap;
    ++link_gap_count;
    ++link_gap_hist[gap_bucket(gap)];
  }

  // Fraction of recorded link gaps strictly above `capacity` (measured in
  // particles); the cache model's miss-probability estimator.
  double gap_fraction_above(double capacity) const;

  // Human-readable multi-line summary.
  std::string summary() const;
};

// Steady-state window extraction: cumulative fields become after - before,
// "current" fields (particles, halo_particles, blocks, links_*) and the
// locality statistics keep their latest values.
Counters counters_delta(const Counters& after, const Counters& before);

}  // namespace hdem
