#include "perf/machine.hpp"

#include <sstream>

#include "util/simd.hpp"

namespace hdem::perf {

// The serial kernel costs below are starting points; benches overwrite
// them with the calibrated fit against the paper's Tables 1 and 2 (see
// perf/calibrate).  Architectural constants are modelling choices recorded
// in DESIGN.md / EXPERIMENTS.md.

MachineSpec t3e900() {
  MachineSpec m;
  m.name = "T3E";
  m.cpus_per_node = 1;
  m.nodes = 344;
  m.t_pair = 4.0e-7;
  m.t_update = 3.0e-7;
  m.t_mem = 4.0e-7;
  m.t_bin = 1.5e-7;
  m.t_reorder = 1.2e-7;
  m.t_linkgen = 2.5e-7;
  m.t_scan = 2.0e-8;
  m.cache_bytes = 96.0e3;  // EV5.6 on-chip L2
  m.cache_l1_bytes = 8.0e3;  // EV5 L1 D-cache
  m.mem_saturation = 0.0;  // one CPU per memory system
  // The paper never runs threads on the T3E; values kept for completeness.
  m.t_atomic = 1.0e-6;
  m.t_contend = 0.0;  // no threaded runs on the T3E in the paper
  m.t_fork = 10.0e-6;
  m.t_barrier = 5.0e-6;
  m.t_critical = 5.0e-6;
  m.reduction_bw = 600.0e6;
  m.lat_intra = 2.0e-6;
  m.bw_intra = 350.0e6;
  m.lat_inter = 12.0e-6;  // torus MPI latency
  m.bw_inter = 300.0e6;
  m.lat_local = 1.0e-6;
  return m;
}

MachineSpec sun_hpc3500() {
  MachineSpec m;
  m.name = "Sun";
  m.cpus_per_node = 8;
  m.nodes = 1;
  m.t_pair = 3.5e-7;
  m.t_update = 3.0e-7;
  m.t_mem = 3.0e-7;
  m.t_bin = 1.5e-7;
  m.t_reorder = 1.2e-7;
  m.t_linkgen = 2.2e-7;
  m.t_scan = 2.0e-8;
  m.cache_bytes = 4.0e6;  // UltraSPARC-II external cache
  m.cache_l1_bytes = 16.0e3;  // on-chip D-cache
  m.mem_saturation = 0.18;
  m.t_atomic = 2.5e-6;  // KAI Guide software locks
  m.t_contend = 1.2e-7;  // UPA coherence traffic between 8 CPUs
  m.t_fork = 25.0e-6;
  m.t_barrier = 10.0e-6;
  m.t_critical = 8.0e-6;
  m.reduction_bw = 350.0e6;  // shared backplane, saturates quickly
  m.lat_intra = 3.0e-6;
  m.bw_intra = 200.0e6;
  m.lat_inter = 1.0;  // single node: inter-node path unused
  m.bw_inter = 1.0;
  m.lat_local = 2.0e-6;
  return m;
}

MachineSpec compaq_es40_cluster() {
  MachineSpec m;
  m.name = "CPQ";
  m.cpus_per_node = 4;
  m.nodes = 5;
  m.t_pair = 1.6e-7;
  m.t_update = 1.5e-7;
  m.t_mem = 2.0e-7;
  m.t_bin = 8.0e-8;
  m.t_reorder = 6.0e-8;
  m.t_linkgen = 1.2e-7;
  m.t_scan = 1.0e-8;
  m.cache_bytes = 4.0e6;  // EV6 B-cache
  m.cache_l1_bytes = 64.0e3;  // EV6 L1 D-cache
  m.mem_saturation = 0.35;  // node memory saturates with 4 busy CPUs
  m.t_atomic = 1.5e-7;      // hardware ll/sc
  m.t_contend = 5.0e-8;     // EV6 coherence traffic within a node
  m.t_fork = 8.0e-6;
  m.t_barrier = 3.0e-6;
  m.t_critical = 3.0e-6;
  m.reduction_bw = 1.0e9;
  m.lat_intra = 3.0e-6;
  m.bw_intra = 300.0e6;
  m.lat_inter = 8.0e-6;  // Memory Channel
  m.bw_inter = 80.0e6;
  m.lat_local = 1.5e-6;
  return m;
}

MachineSpec generic_host() {
  MachineSpec m;
  m.name = "host";
  m.cpus_per_node = 1;
  m.nodes = 1;
  m.t_pair = 2.0e-8;
  m.t_update = 2.0e-8;
  m.t_mem = 3.0e-8;
  m.t_bin = 1.0e-8;
  m.t_reorder = 6.0e-9;
  m.t_linkgen = 1.5e-8;
  m.t_scan = 1.5e-9;
  m.cache_bytes = 8.0e6;
  m.cache_l1_bytes = 32.0e3;
  m.mem_saturation = 0.2;
  m.t_atomic = 2.0e-8;
  m.t_contend = 5.0e-9;
  m.t_fork = 5.0e-6;
  m.t_barrier = 2.0e-6;
  m.t_critical = 1.0e-6;
  m.reduction_bw = 5.0e9;
  m.lat_intra = 1.0e-6;
  m.bw_intra = 2.0e9;
  m.lat_inter = 10.0e-6;
  m.bw_inter = 1.0e9;
  m.lat_local = 0.5e-6;
  m.simd_isa = simd::isa_name(simd::active_isa());
  return m;
}

std::string machine_report(const MachineSpec& m) {
  std::ostringstream os;
  os << m.name << ": " << m.nodes << " node(s) x " << m.cpus_per_node
     << " cpu(s), t_pair=" << m.t_pair * 1e9 << "ns"
     << ", simd_isa=" << m.simd_isa << ", simd_gain=" << m.simd_gain
     << " | host kernels: compiled=" << simd::isa_name(simd::kCompiledIsa)
     << ", active=" << simd::isa_name(simd::active_isa())
     << ", width=" << simd::dispatch_width();
  return os.str();
}

}  // namespace hdem::perf
