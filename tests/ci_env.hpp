// Transport selection for the CI halo-transport legs.
//
// The library reads no environment: a run's configuration is its explicit
// options.  The CI matrix still re-runs the mp suites under every halo
// transport and skin without per-test plumbing, by exporting
//
//   HDEM_SKIN=F             Verlet skin as a fraction of rc (default 0)
//   HDEM_SHARED_HALO=1      zero-copy shared-window halos
//   HDEM_RANKS_PER_NODE=N   node packing for the shared path (0 = one node)
//   HDEM_HALO_DELTA=1       delta-compressed halo frames
//   HDEM_HALO_COALESCE=1    coalesced wire halo frames
//
// This header is the only reader of those variables.  The mp suites seed
// every config that reaches an MpSim from it, so an unset environment
// gives the library's plain defaults.
#pragma once

#include <cstdlib>

#include "core/config.hpp"
#include "driver/mp_sim.hpp"

namespace hdem::test {

inline bool ci_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

// The leg's skin fraction.
inline double ci_skin() {
  const char* v = std::getenv("HDEM_SKIN");
  return v != nullptr ? std::atof(v) : 0.0;
}

// A default config with the leg's halo frame modes.
template <int D>
SimConfig<D> ci_config() {
  SimConfig<D> cfg;
  cfg.halo_delta = ci_flag("HDEM_HALO_DELTA");
  cfg.halo_coalesce = ci_flag("HDEM_HALO_COALESCE");
  return cfg;
}

// Default driver options with the leg's halo transport.
template <int D>
typename MpSim<D>::Options ci_options() {
  typename MpSim<D>::Options opts;
  opts.shared_halo = ci_flag("HDEM_SHARED_HALO");
  const char* rpn = std::getenv("HDEM_RANKS_PER_NODE");
  opts.ranks_per_node = rpn != nullptr ? std::atoi(rpn) : 0;
  return opts;
}

}  // namespace hdem::test
