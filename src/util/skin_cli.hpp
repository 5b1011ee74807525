// Shared command-line group for the Verlet skin, so every example and
// bench exposes the same spelling:
//
//   --skin=F      skin radius as a fraction of rc: candidate links are
//                 generated out to rc * (1 + F) and the list is reused
//                 until measured drift can close the widened gap
//                 (default 0)
//   --skin-cap=F  binning capacity as a fraction of rc; cells are sized
//                 for rc * (1 + F) (default -1: follow --skin).  Pin it
//                 across runs with different skins to keep the cell
//                 geometry — and hence trajectories — bit-identical.
#pragma once

#include "util/cli.hpp"

namespace hdem {

struct SkinCliOptions {
  double skin = 0.0;
  double skin_cap = -1.0;
};

inline SkinCliOptions declare_skin_options(Cli& cli) {
  SkinCliOptions o;
  o.skin = cli.real(
      "skin", 0.0,
      "Verlet skin as a fraction of rc: bin and link at rc*(1+skin), reuse "
      "the list until drift can close the gap");
  o.skin_cap = cli.real(
      "skin-cap", -1.0,
      "binning capacity as a fraction of rc (-1: follow --skin); pin across "
      "a skin sweep for bit-identical trajectories");
  return o;
}

}  // namespace hdem
