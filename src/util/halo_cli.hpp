// Shared command-line group for the delta-compressed / coalesced halo
// swap, so every example and scaling bench exposes the same spelling:
//
//   --halo-delta     ship only template positions whose bits changed since
//                    the last swap (bitmask frame + dense changed values;
//                    receivers patch their halo regions in place).
//                    Bitwise-exact, so trajectories are bit-identical with
//                    the flag on or off (default off)
//   --halo-coalesce  merge all wire halo sides sharing a (neighbour rank,
//                    dim, direction) into one framed message (default off)
#pragma once

#include "core/config.hpp"
#include "util/cli.hpp"

namespace hdem {

struct HaloCliOptions {
  bool delta = false;
  bool coalesce = false;

  // Copy the flags into a config (the single source the drivers and
  // Config::validate() read).
  template <int D>
  void apply(SimConfig<D>& cfg) const {
    cfg.halo_delta = delta;
    cfg.halo_coalesce = coalesce;
  }
};

inline HaloCliOptions declare_halo_options(Cli& cli) {
  HaloCliOptions o;
  o.delta = cli.flag("halo-delta",
                     "delta-compressed halo swaps: send a bitmask plus only "
                     "the changed template positions between rebuilds "
                     "(bit-identical trajectories)");
  o.coalesce = cli.flag("halo-coalesce",
                        "coalesce wire halo sides sharing a (neighbour rank, "
                        "dim, direction) into one framed message");
  return o;
}

}  // namespace hdem
