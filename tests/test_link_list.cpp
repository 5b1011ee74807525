// Property tests: the cell-based link list must contain exactly the pairs
// closer than rc, each exactly once, against an O(N^2) brute force; and the
// cell-ordered kernel must reproduce the plain scalar loop it replaced
// byte-for-byte (links, n_core and ColorPlan), serial and fused.
#include "core/link_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "core/boundary.hpp"
#include "core/cell_grid.hpp"
#include "smp/thread_team.hpp"
#include "util/rng.hpp"

namespace hdem {
namespace {

using PairSet = std::set<std::pair<std::int32_t, std::int32_t>>;

template <int D>
PairSet brute_force_pairs(const std::vector<Vec<D>>& pos,
                          const Boundary<D>& bc, double rc) {
  PairSet out;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (norm2(bc.displacement(pos[i], pos[j])) < rc * rc) {
        out.insert({static_cast<std::int32_t>(i), static_cast<std::int32_t>(j)});
      }
    }
  }
  return out;
}

template <int D>
PairSet cell_list_pairs(const std::vector<Vec<D>>& pos, const Boundary<D>& bc,
                        double rc, Counters* counters = nullptr) {
  CellGrid<D> grid;
  std::array<bool, D> wrap{};
  wrap.fill(bc.periodic());
  grid.configure(Vec<D>{}, bc.box(), rc, wrap);
  grid.bin(pos, pos.size());
  LinkList list;
  build_links(list, grid, std::span<const Vec<D>>(pos), pos.size(), rc,
              bc.pair_disp(), counters);
  PairSet out;
  for (const Link& l : list.links) {
    const auto lo = std::min(l.i, l.j);
    const auto hi = std::max(l.i, l.j);
    EXPECT_TRUE(out.insert({lo, hi}).second) << "duplicate link " << lo << "," << hi;
  }
  EXPECT_EQ(list.n_core, list.links.size()) << "serial lists are all core";
  return out;
}

struct Param {
  int seed;
  int n;
  double rc;
  BoundaryKind bc;
};

class LinkList2D : public ::testing::TestWithParam<Param> {};
class LinkList3D : public ::testing::TestWithParam<Param> {};

TEST_P(LinkList2D, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.seed));
  const Vec<2> box(1.0, 1.0);
  std::vector<Vec<2>> pos(static_cast<std::size_t>(p.n));
  for (auto& x : pos) x = Vec<2>(rng.uniform(), rng.uniform());
  Boundary<2> bc(p.bc, box);
  EXPECT_EQ(cell_list_pairs(pos, bc, p.rc), brute_force_pairs(pos, bc, p.rc));
}

TEST_P(LinkList3D, MatchesBruteForce) {
  const Param p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.seed));
  const Vec<3> box(1.0);
  std::vector<Vec<3>> pos(static_cast<std::size_t>(p.n));
  for (auto& x : pos) x = Vec<3>(rng.uniform(), rng.uniform(), rng.uniform());
  Boundary<3> bc(p.bc, box);
  EXPECT_EQ(cell_list_pairs(pos, bc, p.rc), brute_force_pairs(pos, bc, p.rc));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinkList2D,
    ::testing::Values(Param{1, 100, 0.1, BoundaryKind::kPeriodic},
                      Param{2, 100, 0.1, BoundaryKind::kWalls},
                      Param{3, 300, 0.15, BoundaryKind::kPeriodic},
                      Param{4, 300, 0.15, BoundaryKind::kWalls},
                      Param{5, 50, 0.3, BoundaryKind::kPeriodic},
                      Param{6, 50, 0.3, BoundaryKind::kWalls},
                      Param{7, 500, 0.07, BoundaryKind::kPeriodic},
                      Param{8, 2, 0.3, BoundaryKind::kPeriodic},
                      Param{9, 1, 0.2, BoundaryKind::kWalls}));

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinkList3D,
    ::testing::Values(Param{11, 100, 0.2, BoundaryKind::kPeriodic},
                      Param{12, 100, 0.2, BoundaryKind::kWalls},
                      Param{13, 300, 0.15, BoundaryKind::kPeriodic},
                      Param{14, 300, 0.15, BoundaryKind::kWalls},
                      Param{15, 40, 0.3, BoundaryKind::kPeriodic},
                      Param{16, 500, 0.12, BoundaryKind::kWalls}));

TEST(LinkList, CountersRecordSizes) {
  Rng rng(99);
  std::vector<Vec<2>> pos(200);
  for (auto& x : pos) x = Vec<2>(rng.uniform(), rng.uniform());
  Boundary<2> bc(BoundaryKind::kPeriodic, Vec<2>(1.0, 1.0));
  Counters c;
  const auto pairs = cell_list_pairs(pos, bc, 0.12, &c);
  EXPECT_EQ(c.links_core, pairs.size());
  EXPECT_EQ(c.links_halo, 0u);
  EXPECT_EQ(c.link_gap_count, pairs.size());
}

TEST(LinkList, HaloOrientationAndFiltering) {
  // Manually mark some particles as halo (index >= ncore): halo-halo pairs
  // must disappear and core-halo links must put the core particle first.
  std::vector<Vec<1>> pos = {Vec<1>(0.05), Vec<1>(0.12), Vec<1>(0.18),
                             Vec<1>(0.25)};
  CellGrid<1> grid;
  grid.configure(Vec<1>(0.0), Vec<1>(0.4), 0.1, {false});
  grid.bin(pos, pos.size());
  LinkList list;
  const std::size_t ncore = 2;  // particles 2 and 3 are halo copies
  build_links(list, grid, std::span<const Vec<1>>(pos), ncore, 0.1,
              PairDisp<1>{});
  // In-range pairs: (0,1) core-core, (1,2) core-halo, (2,3) halo-halo.
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.n_core, 1u);
  EXPECT_EQ(list.links[0].i, 0);
  EXPECT_EQ(list.links[0].j, 1);
  EXPECT_EQ(list.links[1].i, 1);  // core end first
  EXPECT_EQ(list.links[1].j, 2);
}

TEST(LinkList, RangeBuildConcatenatesToFullBuild) {
  Rng rng(5);
  std::vector<Vec<2>> pos(300);
  for (auto& x : pos) x = Vec<2>(rng.uniform(), rng.uniform());
  CellGrid<2> grid;
  grid.configure(Vec<2>(0.0, 0.0), Vec<2>(1.0, 1.0), 0.1, {false, false});
  grid.bin(pos, pos.size());
  const PairDisp<2> disp{};

  LinkList whole;
  build_links(whole, grid, std::span<const Vec<2>>(pos), pos.size(), 0.1, disp);

  std::vector<Vec<2>> buf;
  const auto cells = snapshot_cells(grid, std::span<const Vec<2>>(pos), buf);
  LinkVector part1, part2, halo;
  const std::int32_t mid = grid.ncells() / 2;
  build_links_range(grid, cells, pos.size(), 0.1, disp, 0, mid, part1, halo);
  build_links_range(grid, cells, pos.size(), 0.1, disp, mid, grid.ncells(),
                    part2, halo);
  EXPECT_TRUE(halo.empty());
  EXPECT_EQ(part1.size() + part2.size(), whole.size());

  auto key = [](const Link& l) {
    return std::make_pair(std::min(l.i, l.j), std::max(l.i, l.j));
  };
  PairSet a, b;
  for (const auto& l : whole.links) a.insert(key(l));
  for (const auto& l : part1) b.insert(key(l));
  for (const auto& l : part2) b.insert(key(l));
  EXPECT_EQ(a, b);
}

TEST(LinkList, EmptySystem) {
  std::vector<Vec<2>> pos;
  Boundary<2> bc(BoundaryKind::kWalls, Vec<2>(1.0, 1.0));
  EXPECT_TRUE(cell_list_pairs(pos, bc, 0.1).empty());
}

TEST(LinkList, ExactCutoffExcluded) {
  // Distance exactly rc must not create a link (strict <).
  std::vector<Vec<1>> pos = {Vec<1>(0.35), Vec<1>(0.45)};
  Boundary<1> bc(BoundaryKind::kWalls, Vec<1>(1.0));
  EXPECT_TRUE(cell_list_pairs(pos, bc, 0.1).empty());
  EXPECT_EQ(cell_list_pairs(pos, bc, 0.1000001).size(), 1u);
}

// -- differential test against the scalar loop ------------------------------

// The link loop the cell-ordered kernel replaced, kept verbatim as the
// oracle: indirect position loads through the cell lists, an opaque
// displacement call and a per-pair core/halo classification.
template <int D, class Disp>
void oracle_links_range(const CellGrid<D>& grid, std::span<const Vec<D>> pos,
                        std::size_t ncore, double rc, Disp&& disp,
                        std::int32_t cell_lo, std::int32_t cell_hi,
                        std::vector<Link>& out_core,
                        std::vector<Link>& out_halo) {
  const double rc2 = rc * rc;

  auto consider = [&](std::int32_t a, std::int32_t b) {
    const bool a_halo = static_cast<std::size_t>(a) >= ncore;
    const bool b_halo = static_cast<std::size_t>(b) >= ncore;
    if (a_halo && b_halo) return;  // owned (as core-halo) by other blocks
    const Vec<D> d = disp(pos[static_cast<std::size_t>(a)],
                          pos[static_cast<std::size_t>(b)]);
    if (norm2(d) >= rc2) return;
    if (!a_halo && !b_halo) {
      out_core.push_back({a, b});
    } else if (a_halo) {
      out_halo.push_back({b, a});  // core end first
    } else {
      out_halo.push_back({a, b});
    }
  };

  const auto& stencil = CellGrid<D>::half_stencil();
  for (std::int32_t c = cell_lo; c < cell_hi; ++c) {
    const auto in_c = grid.cell_particles(c);
    for (std::size_t a = 0; a < in_c.size(); ++a) {
      for (std::size_t b = a + 1; b < in_c.size(); ++b) {
        consider(in_c[a], in_c[b]);
      }
    }
    for (const auto& off : stencil) {
      const std::int32_t nb = grid.neighbor(c, off);
      if (nb < 0) continue;
      const auto in_nb = grid.cell_particles(nb);
      for (const std::int32_t a : in_c) {
        for (const std::int32_t b : in_nb) {
          consider(a, b);
        }
      }
    }
  }
}

template <int D>
LinkList oracle_build(const CellGrid<D>& grid, std::span<const Vec<D>> pos,
                      std::size_t ncore, double rc, const PairDisp<D>& disp) {
  std::vector<Link> core, halo;
  oracle_links_range(grid, pos, ncore, rc, disp, 0, grid.ncells(), core, halo);
  LinkList out;
  out.links.assign(core.begin(), core.end());
  out.n_core = core.size();
  out.links.insert(out.links.end(), halo.begin(), halo.end());
  build_color_plan(out, grid, pos);
  return out;
}

void expect_same_list(const LinkList& want, const LinkList& got,
                      const std::string& what) {
  ASSERT_EQ(got.n_core, want.n_core) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t l = 0; l < want.size(); ++l) {
    ASSERT_EQ(got.links[l].i, want.links[l].i) << what << " l=" << l;
    ASSERT_EQ(got.links[l].j, want.links[l].j) << what << " l=" << l;
  }
  EXPECT_EQ(got.plan.nchunks, want.plan.nchunks) << what;
  EXPECT_EQ(got.plan.ncolors, want.plan.ncolors) << what;
  EXPECT_EQ(got.plan.core_lo, want.plan.core_lo) << what;
  EXPECT_EQ(got.plan.core_hi, want.plan.core_hi) << what;
  EXPECT_EQ(got.plan.halo_lo, want.plan.halo_lo) << what;
  EXPECT_EQ(got.plan.halo_hi, want.plan.halo_hi) << what;
}

// Particle layouts of the differential sweep.
enum class Layout {
  kUniform,    // uniform over the box
  kCorner,     // packed into the low corner: most cells stay empty
  kBlockHalo,  // core inside, halo copies (indices >= ncore) in the margin
  kStray,      // uniform, every 7th particle moved one box length out, so
               // edge cells hold clamped particles only the image finds
};

struct OracleCase {
  bool wrapped;
  int cells;           // cells per axis (walled grids rotate 1..cells)
  double cell_factor;  // cell side / list radius (> 1: a Verlet skin)
  Layout layout;
};

// Build the case's grid and particles; returns ncore for kBlockHalo (the
// caller overrides it for the other layouts).
template <int D>
std::size_t make_case(const OracleCase& oc, int variant, double rc,
                      std::size_t n, CellGrid<D>& grid,
                      std::vector<Vec<D>>& pos, PairDisp<D>& disp) {
  const double cell = rc * oc.cell_factor;
  Vec<D> box;
  for (int d = 0; d < D; ++d) {
    // Walled grids get 1, 2, 3, ... cells on rotating axes; the half cell
    // keeps floor(extent / cell) off a rounding boundary.
    const int k = oc.wrapped ? oc.cells : 1 + (d + variant) % oc.cells;
    box[d] = (k + 0.5) * cell;
  }
  std::array<bool, D> wrap{};
  wrap.fill(oc.wrapped);
  grid.configure(Vec<D>{}, box, cell, wrap);
  disp = PairDisp<D>{box, oc.wrapped};

  Rng rng(1000 + static_cast<std::uint64_t>(variant) * 31 +
          static_cast<std::uint64_t>(D));
  pos.assign(n, Vec<D>{});
  for (auto& x : pos) {
    for (int d = 0; d < D; ++d) {
      const double f = oc.layout == Layout::kCorner ? 0.3 : 1.0;
      x[d] = rng.uniform() * f * box[d];
    }
  }
  if (oc.layout == Layout::kStray) {
    for (std::size_t i = 0; i < n; i += 7) {
      const int d = static_cast<int>(i / 7) % D;
      pos[i][d] += (i / 7) % 2 == 0 ? box[d] : -box[d];
    }
  }
  if (oc.layout != Layout::kBlockHalo) return n;
  // Halo copies are the particles within one cell of a face; they go
  // last, as the block drivers append them after the core.
  auto in_margin = [&](const Vec<D>& x) {
    for (int d = 0; d < D; ++d) {
      if (x[d] < cell || x[d] >= box[d] - cell) return true;
    }
    return false;
  };
  const auto mid = std::stable_partition(
      pos.begin(), pos.end(), [&](const Vec<D>& x) { return !in_margin(x); });
  return static_cast<std::size_t>(mid - pos.begin());
}

template <int D>
void oracle_sweep(std::size_t n) {
  const double rc = 0.1;
  const OracleCase cases[] = {
      {true, 3, 1.0, Layout::kUniform},    {true, 3, 1.4, Layout::kCorner},
      {true, 5, 1.0, Layout::kUniform},    {true, 5, 1.3, Layout::kBlockHalo},
      {false, 1, 1.0, Layout::kUniform},   {false, 2, 1.0, Layout::kUniform},
      {false, 3, 1.0, Layout::kUniform},   {false, 3, 1.4, Layout::kCorner},
      {false, 3, 1.2, Layout::kBlockHalo}, {false, 6, 1.0, Layout::kBlockHalo},
      {false, 6, 1.5, Layout::kCorner},    {true, 6, 1.0, Layout::kStray},
      {true, 3, 1.2, Layout::kStray},      {false, 4, 1.0, Layout::kStray},
  };
  int variant = 0;
  std::size_t core_links = 0, halo_links = 0;
  for (const OracleCase& oc : cases) {
    for (int v = 0; v < D; ++v, ++variant) {
      CellGrid<D> grid;
      std::vector<Vec<D>> pos;
      PairDisp<D> disp;
      const std::size_t block_core =
          make_case<D>(oc, variant, rc, n, grid, pos, disp);
      grid.bin(pos, n);
      std::vector<std::size_t> ncores = {0, n / 2, n};
      if (oc.layout == Layout::kBlockHalo) ncores = {block_core};
      for (const std::size_t ncore : ncores) {
        const std::string what =
            "D=" + std::to_string(D) + " case=" + std::to_string(variant) +
            " wrapped=" + std::to_string(oc.wrapped) +
            " cells=" + std::to_string(grid.ncells()) +
            " ncore=" + std::to_string(ncore);
        const LinkList want = oracle_build<D>(grid, pos, ncore, rc, disp);
        core_links += want.n_core;
        halo_links += want.size() - want.n_core;
        LinkList serial;
        build_links(serial, grid, std::span<const Vec<D>>(pos), ncore, rc,
                    disp);
        expect_same_list(want, serial, what + " serial");
        for (const int t : {1, 2, 3, 4}) {
          smp::ThreadTeam team(t);
          LinkList fused;
          FusedBuildScratch scratch;
          std::vector<Vec<D>> cell_buf;
          build_links_fused(fused, grid, std::span<const Vec<D>>(pos), ncore,
                            rc, disp, team, scratch, cell_buf);
          expect_same_list(want, fused, what + " T=" + std::to_string(t));
        }
      }
    }
  }
  // The sweep must exercise both streams, not compare empty lists.
  EXPECT_GT(core_links, 10 * n);
  EXPECT_GT(halo_links, n);
}

TEST(LinkKernelOracle, MatchesScalarLoop1D) { oracle_sweep<1>(40); }
TEST(LinkKernelOracle, MatchesScalarLoop2D) { oracle_sweep<2>(160); }
TEST(LinkKernelOracle, MatchesScalarLoop3D) { oracle_sweep<3>(400); }

TEST(LinkKernelOracle, IdentityOrderReadsPositionsInPlace) {
  // After the store is permuted into cell order the kernel reads the
  // positions directly (no gather) — same links as the oracle.
  Rng rng(21);
  std::vector<Vec<3>> pos(500);
  for (auto& x : pos) x = Vec<3>(rng.uniform(), rng.uniform(), rng.uniform());
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, Vec<3>(1.0), 0.12, {true, true, true});
  grid.bin(pos, pos.size());
  std::vector<Vec<3>> sorted(pos.size());
  for (std::size_t k = 0; k < pos.size(); ++k) {
    sorted[k] = pos[static_cast<std::size_t>(grid.order()[k])];
  }
  grid.reset_order_to_identity();
  ASSERT_TRUE(grid.identity_order());
  const PairDisp<3> disp{Vec<3>(1.0), true};
  std::vector<Vec<3>> unused;
  const auto cells =
      snapshot_cells(grid, std::span<const Vec<3>>(sorted), unused);
  EXPECT_EQ(cells.x.data(), sorted.data());
  EXPECT_TRUE(unused.empty());
  LinkList got;
  build_links(got, grid, std::span<const Vec<3>>(sorted), sorted.size(), 0.12,
              disp);
  expect_same_list(oracle_build<3>(grid, sorted, sorted.size(), 0.12, disp),
                   got, "identity order");
  grid.bin(sorted, sorted.size());
  EXPECT_FALSE(grid.identity_order());
}

}  // namespace
}  // namespace hdem
