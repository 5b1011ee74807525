#include "core/counters.hpp"

#include <cmath>
#include <sstream>

namespace hdem {

Counters& Counters::merge(const Counters& o) {
  iterations = iterations > o.iterations ? iterations : o.iterations;
  rebuilds = rebuilds > o.rebuilds ? rebuilds : o.rebuilds;
  // Reuse decisions are global (every rank skips the same steps), so they
  // merge like rebuilds rather than adding across ranks.
  rebuilds_skipped =
      rebuilds_skipped > o.rebuilds_skipped ? rebuilds_skipped
                                            : o.rebuilds_skipped;
  migrations_skipped =
      migrations_skipped > o.migrations_skipped ? migrations_skipped
                                                : o.migrations_skipped;
  halo_rebuilds_skipped = halo_rebuilds_skipped > o.halo_rebuilds_skipped
                              ? halo_rebuilds_skipped
                              : o.halo_rebuilds_skipped;
  reorders = reorders > o.reorders ? reorders : o.reorders;
  particles += o.particles;
  halo_particles += o.halo_particles;
  blocks += o.blocks;
  links_core += o.links_core;
  links_halo += o.links_halo;
  force_evals += o.force_evals;
  contacts += o.contacts;
  position_updates += o.position_updates;
  link_gap_sum += o.link_gap_sum;
  link_gap_count += o.link_gap_count;
  for (int b = 0; b < kGapBuckets; ++b) link_gap_hist[b] += o.link_gap_hist[b];
  parallel_regions += o.parallel_regions;
  barriers += o.barriers;
  atomic_updates += o.atomic_updates;
  plain_updates += o.plain_updates;
  critical_sections += o.critical_sections;
  reduction_bytes += o.reduction_bytes;
  colors = colors > o.colors ? colors : o.colors;
  colored_chunks += o.colored_chunks;
  color_barriers += o.color_barriers;
  msgs_sent += o.msgs_sent;
  bytes_sent += o.bytes_sent;
  msgs_local += o.msgs_local;
  bytes_local += o.bytes_local;
  msgs_shared += o.msgs_shared;
  bytes_shared += o.bytes_shared;
  window_republishes += o.window_republishes;
  collectives += o.collectives;
  migrated_particles += o.migrated_particles;
  halo_bytes_eager += o.halo_bytes_eager;
  halo_bytes_delta += o.halo_bytes_delta;
  bytes_delta_saved += o.bytes_delta_saved;
  halo_frame_overhead += o.halo_frame_overhead;
  msgs_coalesced += o.msgs_coalesced;
  halo_msgs_wire += o.halo_msgs_wire;
  halo_bytes_wire += o.halo_bytes_wire;
  irecvs_posted += o.irecvs_posted;
  waits_blocked += o.waits_blocked;
  bytes_overlapped += o.bytes_overlapped;
  bytes_exposed += o.bytes_exposed;
  exposed_wait_ns += o.exposed_wait_ns;
  rebuild_bin_ns += o.rebuild_bin_ns;
  rebuild_reorder_ns += o.rebuild_reorder_ns;
  rebuild_linkgen_ns += o.rebuild_linkgen_ns;
  // rebalances/blocks_reassigned are global decisions repeated on every
  // rank (max, like rebuilds); block costs are per-rank-disjoint (append);
  // thread costs overlay team slots (element-wise add).
  rebalances = rebalances > o.rebalances ? rebalances : o.rebalances;
  blocks_reassigned =
      blocks_reassigned > o.blocks_reassigned ? blocks_reassigned
                                              : o.blocks_reassigned;
  block_cost_ns.insert(block_cost_ns.end(), o.block_cost_ns.begin(),
                       o.block_cost_ns.end());
  if (thread_cost_ns.size() < o.thread_cost_ns.size()) {
    thread_cost_ns.resize(o.thread_cost_ns.size(), 0);
  }
  for (std::size_t t = 0; t < o.thread_cost_ns.size(); ++t) {
    thread_cost_ns[t] += o.thread_cost_ns[t];
  }
  return *this;
}

double Counters::imbalance_ratio(const std::vector<std::uint64_t>& cost) {
  if (cost.empty()) return 0.0;
  std::uint64_t total = 0, max = 0;
  for (const std::uint64_t c : cost) {
    total += c;
    if (c > max) max = c;
  }
  if (total == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(cost.size()) /
         static_cast<double>(total);
}

double Counters::gap_fraction_above(double capacity) const {
  if (link_gap_count == 0) return 0.0;
  if (capacity <= 0.0) return 1.0;
  double above = 0.0;
  for (int b = 0; b < kGapBuckets; ++b) {
    if (link_gap_hist[b] == 0) continue;
    // Bucket b holds gaps in [2^b, 2^(b+1)); assume a log-uniform spread
    // within the bucket so thresholds crossing a bucket interpolate
    // smoothly instead of stepping.
    const double lo = static_cast<double>(1ull << b);
    const double hi = 2.0 * lo;
    double frac;
    if (capacity <= lo) {
      frac = 1.0;
    } else if (capacity >= hi) {
      frac = 0.0;
    } else {
      frac = std::log2(hi / capacity);  // in (0, 1)
    }
    above += frac * static_cast<double>(link_gap_hist[b]);
  }
  return above / static_cast<double>(link_gap_count);
}

Counters counters_delta(const Counters& after, const Counters& before) {
  Counters d = after;  // current fields + locality stay at "after" values
  d.iterations = after.iterations - before.iterations;
  d.rebuilds = after.rebuilds - before.rebuilds;
  d.rebuilds_skipped = after.rebuilds_skipped - before.rebuilds_skipped;
  d.migrations_skipped = after.migrations_skipped - before.migrations_skipped;
  d.halo_rebuilds_skipped =
      after.halo_rebuilds_skipped - before.halo_rebuilds_skipped;
  d.reorders = after.reorders - before.reorders;
  d.force_evals = after.force_evals - before.force_evals;
  d.contacts = after.contacts - before.contacts;
  d.position_updates = after.position_updates - before.position_updates;
  d.parallel_regions = after.parallel_regions - before.parallel_regions;
  d.barriers = after.barriers - before.barriers;
  d.atomic_updates = after.atomic_updates - before.atomic_updates;
  d.plain_updates = after.plain_updates - before.plain_updates;
  d.critical_sections = after.critical_sections - before.critical_sections;
  d.reduction_bytes = after.reduction_bytes - before.reduction_bytes;
  d.color_barriers = after.color_barriers - before.color_barriers;
  d.msgs_sent = after.msgs_sent - before.msgs_sent;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.msgs_local = after.msgs_local - before.msgs_local;
  d.bytes_local = after.bytes_local - before.bytes_local;
  d.msgs_shared = after.msgs_shared - before.msgs_shared;
  d.bytes_shared = after.bytes_shared - before.bytes_shared;
  d.window_republishes = after.window_republishes - before.window_republishes;
  d.collectives = after.collectives - before.collectives;
  d.migrated_particles = after.migrated_particles - before.migrated_particles;
  d.halo_bytes_eager = after.halo_bytes_eager - before.halo_bytes_eager;
  d.halo_bytes_delta = after.halo_bytes_delta - before.halo_bytes_delta;
  d.bytes_delta_saved = after.bytes_delta_saved - before.bytes_delta_saved;
  d.halo_frame_overhead =
      after.halo_frame_overhead - before.halo_frame_overhead;
  d.msgs_coalesced = after.msgs_coalesced - before.msgs_coalesced;
  d.halo_msgs_wire = after.halo_msgs_wire - before.halo_msgs_wire;
  d.halo_bytes_wire = after.halo_bytes_wire - before.halo_bytes_wire;
  d.irecvs_posted = after.irecvs_posted - before.irecvs_posted;
  d.waits_blocked = after.waits_blocked - before.waits_blocked;
  d.bytes_overlapped = after.bytes_overlapped - before.bytes_overlapped;
  d.bytes_exposed = after.bytes_exposed - before.bytes_exposed;
  d.exposed_wait_ns = after.exposed_wait_ns - before.exposed_wait_ns;
  d.rebuild_bin_ns = after.rebuild_bin_ns - before.rebuild_bin_ns;
  d.rebuild_reorder_ns = after.rebuild_reorder_ns - before.rebuild_reorder_ns;
  d.rebuild_linkgen_ns = after.rebuild_linkgen_ns - before.rebuild_linkgen_ns;
  d.rebalances = after.rebalances - before.rebalances;
  d.blocks_reassigned = after.blocks_reassigned - before.blocks_reassigned;
  // Cost vectors subtract element-wise when the shapes still match; a
  // rebalance inside the window changes the block set, in which case the
  // "after" accumulation (reset at the rebalance) already is the window.
  if (after.block_cost_ns.size() == before.block_cost_ns.size()) {
    for (std::size_t b = 0; b < d.block_cost_ns.size(); ++b) {
      if (d.block_cost_ns[b] >= before.block_cost_ns[b]) {
        d.block_cost_ns[b] -= before.block_cost_ns[b];
      }
    }
  }
  if (after.thread_cost_ns.size() == before.thread_cost_ns.size()) {
    for (std::size_t t = 0; t < d.thread_cost_ns.size(); ++t) {
      if (d.thread_cost_ns[t] >= before.thread_cost_ns[t]) {
        d.thread_cost_ns[t] -= before.thread_cost_ns[t];
      }
    }
  }
  return d;
}

double Counters::delta_hit_rate() const {
  if (halo_bytes_eager == 0) return 0.0;
  return static_cast<double>(bytes_delta_saved) /
         static_cast<double>(halo_bytes_eager);
}

double Counters::mean_link_gap() const {
  if (link_gap_count == 0) return 0.0;
  return static_cast<double>(link_gap_sum) /
         static_cast<double>(link_gap_count);
}

std::string Counters::summary() const {
  std::ostringstream os;
  os << "iterations=" << iterations << " rebuilds=" << rebuilds
     << " reorders=" << reorders << "\n"
     << "reuse: rebuilds_skipped=" << rebuilds_skipped
     << " migrations_skipped=" << migrations_skipped
     << " halo_rebuilds_skipped=" << halo_rebuilds_skipped << "\n"
     << "particles=" << particles << " halo=" << halo_particles
     << " blocks=" << blocks << "\n"
     << "links core=" << links_core << " halo=" << links_halo
     << " force_evals=" << force_evals << " contacts=" << contacts << "\n"
     << "mean_link_gap=" << mean_link_gap() << "\n"
     << "smp: regions=" << parallel_regions << " barriers=" << barriers
     << " atomic=" << atomic_updates << " plain=" << plain_updates
     << " critical=" << critical_sections
     << " reduction_bytes=" << reduction_bytes << "\n"
     << "colored: colors=" << colors << " chunks=" << colored_chunks
     << " color_barriers=" << color_barriers << "\n"
     << "mp: msgs=" << msgs_sent << " bytes=" << bytes_sent
     << " local_msgs=" << msgs_local << " local_bytes=" << bytes_local
     << " collectives=" << collectives
     << " migrated=" << migrated_particles << "\n"
     << "shared: msgs=" << msgs_shared << " bytes=" << bytes_shared
     << " republishes=" << window_republishes << "\n"
     << "halo: wire_msgs=" << halo_msgs_wire
     << " wire_bytes=" << halo_bytes_wire
     << " eager=" << halo_bytes_eager << " delta=" << halo_bytes_delta
     << " saved=" << bytes_delta_saved
     << " overhead=" << halo_frame_overhead
     << " coalesced=" << msgs_coalesced
     << " hit=" << delta_hit_rate() << "\n"
     << "overlap: irecvs=" << irecvs_posted
     << " waits_blocked=" << waits_blocked
     << " bytes_overlapped=" << bytes_overlapped
     << " bytes_exposed=" << bytes_exposed
     << " exposed_wait_ns=" << exposed_wait_ns << "\n"
     << "balance: rebalances=" << rebalances
     << " blocks_reassigned=" << blocks_reassigned
     << " block_imbalance=" << block_imbalance()
     << " thread_imbalance=" << thread_imbalance() << "\n"
     << "rebuild: bin_ns=" << rebuild_bin_ns
     << " reorder_ns=" << rebuild_reorder_ns
     << " linkgen_ns=" << rebuild_linkgen_ns << "\n";
  return os.str();
}

}  // namespace hdem
