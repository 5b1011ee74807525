// Halo template construction and per-iteration swaps, validated against a
// brute-force oracle over the global particle set.
#include "decomp/halo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/config.hpp"
#include "core/init.hpp"
#include "mp/comm.hpp"

namespace hdem {
namespace {

template <int D>
std::vector<BlockDomain<D>> make_blocks(const DecompLayout<D>& layout,
                                        const SimConfig<D>& cfg, int rank,
                                        const std::vector<ParticleInit<D>>& init) {
  std::vector<BlockDomain<D>> blocks;
  for (const auto& coords : layout.blocks_of_rank(rank)) {
    BlockDomain<D> b;
    b.coords = coords;
    b.index = layout.block_index(coords);
    b.lo = layout.block_lo(coords, cfg.box);
    b.hi = b.lo + layout.block_width(cfg.box);
    blocks.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < init.size(); ++i) {
    const auto c = layout.block_of_position(init[i].pos, cfg.box);
    if (layout.owner_rank(c) != rank) continue;
    for (auto& b : blocks) {
      if (b.index == layout.block_index(c)) {
        b.store.push_back(init[i].pos, init[i].vel,
                          static_cast<std::int32_t>(i));
        b.ncore = b.store.size();
      }
    }
  }
  return blocks;
}

// All (possibly shifted) copies of the global particles that fall in the
// rc-extended region of the block but are not its own core particles.
template <int D>
std::multiset<std::array<double, D>> expected_halo(
    const BlockDomain<D>& b, const std::vector<ParticleInit<D>>& init,
    const SimConfig<D>& cfg, bool periodic) {
  std::multiset<std::array<double, D>> out;
  const double rc = cfg.cutoff();
  std::array<int, D> shift_lo{}, shift_hi{};
  for (int d = 0; d < D; ++d) {
    shift_lo[d] = periodic ? -1 : 0;
    shift_hi[d] = periodic ? 1 : 0;
  }
  for (const auto& p : init) {
    // Skip the block's own core particles (unshifted inside [lo, hi)).
    bool own = true;
    for (int d = 0; d < D; ++d) {
      if (p.pos[d] < b.lo[d] || p.pos[d] >= b.hi[d]) {
        own = false;
        break;
      }
    }
    // Enumerate shift combinations.
    std::array<int, D> s = shift_lo;
    while (true) {
      Vec<D> x = p.pos;
      bool zero_shift = true;
      for (int d = 0; d < D; ++d) {
        x[d] += s[d] * cfg.box[d];
        if (s[d] != 0) zero_shift = false;
      }
      bool inside = true;
      for (int d = 0; d < D; ++d) {
        if (x[d] < b.lo[d] - rc || x[d] >= b.hi[d] + rc) {
          inside = false;
          break;
        }
      }
      if (inside && !(own && zero_shift)) {
        std::array<double, D> key{};
        for (int d = 0; d < D; ++d) key[d] = x[d];
        out.insert(key);
      }
      // increment the mixed-radix shift counter
      int d = 0;
      for (; d < D; ++d) {
        if (s[d] < shift_hi[d]) {
          ++s[d];
          break;
        }
        s[d] = shift_lo[d];
      }
      if (d == D) break;
    }
  }
  return out;
}

template <int D>
void check_halo_matches_oracle(BoundaryKind kind, int nprocs,
                               int blocks_per_proc, std::uint64_t n,
                               std::uint64_t seed) {
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = kind;
  cfg.seed = seed;
  const auto layout = DecompLayout<D>::make(nprocs, blocks_per_proc);
  layout.validate(cfg);
  const auto init = uniform_random_particles(cfg, n);
  const bool periodic = kind == BoundaryKind::kPeriodic;

  mp::run(nprocs, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(kind, cfg.box);
    HaloExchanger<D> halo(layout, bc, cfg.cutoff());
    Counters c;
    halo.build_templates(blocks, comm, c);
    for (const auto& b : blocks) {
      const auto expect = expected_halo(b, init,
                                        cfg, periodic);
      std::multiset<std::array<double, D>> got;
      for (std::size_t i = b.ncore; i < b.store.size(); ++i) {
        std::array<double, D> key{};
        for (int d = 0; d < D; ++d) key[d] = b.store.pos(i)[d];
        got.insert(key);
      }
      EXPECT_EQ(got, expect) << "block " << b.index << " rank " << comm.rank();
    }
  });
}

TEST(Halo, MatchesOraclePeriodic2D) {
  check_halo_matches_oracle<2>(BoundaryKind::kPeriodic, 4, 4, 600, 3);
}

TEST(Halo, MatchesOracleWalls2D) {
  check_halo_matches_oracle<2>(BoundaryKind::kWalls, 4, 4, 600, 4);
}

TEST(Halo, MatchesOraclePeriodic3D) {
  check_halo_matches_oracle<3>(BoundaryKind::kPeriodic, 2, 8, 800, 5);
}

TEST(Halo, MatchesOracleWalls3D) {
  check_halo_matches_oracle<3>(BoundaryKind::kWalls, 2, 8, 800, 6);
}

TEST(Halo, MatchesOracleSingleRankManyBlocks) {
  check_halo_matches_oracle<2>(BoundaryKind::kPeriodic, 1, 16, 500, 7);
}

TEST(Halo, MatchesOracleManyRanksOneBlockEach) {
  check_halo_matches_oracle<2>(BoundaryKind::kPeriodic, 9, 1, 700, 8);
}

TEST(Halo, SwapRefreshesMovedPositions) {
  constexpr int D = 2;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.seed = 11;
  const auto layout = DecompLayout<D>::make(4, 1);
  const auto init = uniform_random_particles(cfg, 400);

  mp::run(4, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(cfg.bc, cfg.box);
    HaloExchanger<D> halo(layout, bc, cfg.cutoff());
    Counters c;
    halo.build_templates(blocks, comm, c);

    // Record each block's halo positions, nudge every core particle by a
    // tiny deterministic offset, swap, and verify all halo copies moved by
    // exactly the same offset.
    const Vec<D> nudge(1e-6, -2e-6);
    std::vector<std::vector<Vec<D>>> before(blocks.size());
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size(); ++i) {
        before[k].push_back(blocks[k].store.pos(i));
      }
      for (std::size_t i = 0; i < blocks[k].ncore; ++i) {
        blocks[k].store.pos(i) += nudge;
      }
    }
    halo.swap_positions(blocks, comm, c);
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      std::size_t h = 0;
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size(); ++i, ++h) {
        const Vec<D> moved = blocks[k].store.pos(i) - before[k][h];
        EXPECT_NEAR(moved[0], nudge[0], 1e-15);
        EXPECT_NEAR(moved[1], nudge[1], 1e-15);
      }
    }
  });
}

TEST(Halo, CountsLocalVersusRemoteTransfers) {
  constexpr int D = 2;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  const auto init = uniform_random_particles(cfg, 300);

  // Single rank, many blocks: every halo transfer must be local.
  {
    const auto layout = DecompLayout<D>::make(1, 16);
    mp::run(1, [&](mp::Comm& comm) {
      auto blocks = make_blocks(layout, cfg, comm.rank(), init);
      Boundary<D> bc(cfg.bc, cfg.box);
      HaloExchanger<D> halo(layout, bc, cfg.cutoff());
      Counters c;
      halo.build_templates(blocks, comm, c);
      EXPECT_GT(c.msgs_local, 0u);
      EXPECT_EQ(comm.counters().msgs_sent, 0u);
    });
  }
  // Four ranks, one block each: every halo transfer crosses ranks.
  {
    const auto layout = DecompLayout<D>::make(4, 1);
    mp::run(4, [&](mp::Comm& comm) {
      auto blocks = make_blocks(layout, cfg, comm.rank(), init);
      Boundary<D> bc(cfg.bc, cfg.box);
      HaloExchanger<D> halo(layout, bc, cfg.cutoff());
      Counters c;
      halo.build_templates(blocks, comm, c);
      EXPECT_EQ(c.msgs_local, 0u);
      EXPECT_GT(comm.counters().msgs_sent, 0u);
    });
  }
}

TEST(Halo, TwoPhaseSwapEqualsOneShotSwap) {
  constexpr int D = 2;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.seed = 17;
  const auto layout = DecompLayout<D>::make(4, 2);
  const auto init = uniform_random_particles(cfg, 400);

  mp::run(4, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(cfg.bc, cfg.box);
    HaloExchanger<D> halo(layout, bc, cfg.cutoff());
    Counters c;
    halo.build_templates(blocks, comm, c);

    std::vector<std::vector<Vec<D>>> before(blocks.size());
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size(); ++i) {
        before[k].push_back(blocks[k].store.pos(i));
      }
    }
    const Vec<D> nudge(3e-6, -1e-6);
    for (auto& b : blocks) {
      for (std::size_t i = 0; i < b.ncore; ++i) b.store.pos(i) += nudge;
    }
    // Split swap with core reads between the phases (the overlap window):
    // every halo copy must still track its source by exactly the nudge.
    halo.begin_swap(blocks, comm, c);
    double unrelated = 0.0;
    for (const auto& b : blocks) {
      for (std::size_t i = 0; i < b.ncore; ++i) unrelated += b.store.pos(i)[0];
    }
    EXPECT_GT(unrelated, 0.0);
    halo.finish_swap(blocks, comm, c);
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      std::size_t h = 0;
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size();
           ++i, ++h) {
        const Vec<D> moved = blocks[k].store.pos(i) - before[k][h];
        EXPECT_NEAR(moved[0], nudge[0], 1e-15);
        EXPECT_NEAR(moved[1], nudge[1], 1e-15);
      }
    }
    // A further one-shot swap with no motion must reproduce the same bits
    // (the split and unsplit paths share pack/deliver code end to end).
    std::vector<std::vector<Vec<D>>> after(blocks.size());
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size(); ++i) {
        after[k].push_back(blocks[k].store.pos(i));
      }
    }
    halo.swap_positions(blocks, comm, c);
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      std::size_t h = 0;
      for (std::size_t i = blocks[k].ncore; i < blocks[k].store.size();
           ++i, ++h) {
        EXPECT_EQ(blocks[k].store.pos(i)[0], after[k][h][0]);
        EXPECT_EQ(blocks[k].store.pos(i)[1], after[k][h][1]);
      }
    }
  });
}

TEST(Halo, RejectsDoubleBeginAndOrphanFinish) {
  constexpr int D = 2;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  const auto layout = DecompLayout<D>::make(1, 4);
  const auto init = uniform_random_particles(cfg, 200);
  mp::run(1, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(cfg.bc, cfg.box);
    HaloExchanger<D> halo(layout, bc, cfg.cutoff());
    Counters c;
    halo.build_templates(blocks, comm, c);
    EXPECT_THROW(halo.finish_swap(blocks, comm, c), std::logic_error);
    halo.begin_swap(blocks, comm, c);
    EXPECT_THROW(halo.begin_swap(blocks, comm, c), std::logic_error);
    halo.finish_swap(blocks, comm, c);
    EXPECT_THROW(halo.finish_swap(blocks, comm, c), std::logic_error);
  });
}

TEST(Halo, RejectsStaleHalos) {
  constexpr int D = 2;
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  const auto layout = DecompLayout<D>::make(1, 4);
  const auto init = uniform_random_particles(cfg, 100);
  mp::run(1, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<D> bc(cfg.bc, cfg.box);
    HaloExchanger<D> halo(layout, bc, cfg.cutoff());
    Counters c;
    halo.build_templates(blocks, comm, c);
    // Building again without truncating the halos must be refused.
    EXPECT_THROW(halo.build_templates(blocks, comm, c), std::logic_error);
  });
}

template <int D>
void check_binned_templates(bool reorder, int nprocs, int blocks_per_proc) {
  // build_templates scans only the face cell layers when the block grid
  // holds the core binning; the templates (indices and order) and the
  // delivered halos must equal the full-scan build's exactly.
  SimConfig<D> cfg;
  cfg.box = Vec<D>(1.0);
  cfg.bc = BoundaryKind::kPeriodic;
  cfg.seed = 17;
  const auto layout = DecompLayout<D>::make(nprocs, blocks_per_proc);
  const auto init = uniform_random_particles(cfg, 1500);
  mp::run(nprocs, [&](mp::Comm& comm) {
    auto scanned = make_blocks(layout, cfg, comm.rank(), init);
    auto binned = make_blocks(layout, cfg, comm.rank(), init);
    const double rc = cfg.cutoff();
    for (std::size_t k = 0; k < binned.size(); ++k) {
      auto& b = binned[k];
      std::array<bool, D> no_wrap{};
      b.grid.configure(b.lo - Vec<D>(rc), b.hi + Vec<D>(rc), rc, no_wrap);
      b.grid.bin(b.store.cpositions(), b.ncore);
      if (reorder) {
        scanned[k].store.apply_permutation(b.grid.order(), b.ncore);
        b.store.apply_permutation(b.grid.order(), b.ncore);
        b.grid.reset_order_to_identity();
      }
    }
    Boundary<D> bc(cfg.bc, cfg.box);
    HaloExchanger<D> full(layout, bc, rc), fast(layout, bc, rc);
    Counters c1, c2;
    full.build_templates(scanned, comm, c1);
    fast.build_templates(binned, comm, c2);
    for (std::size_t k = 0; k < binned.size(); ++k) {
      const auto& a = scanned[k];
      const auto& b = binned[k];
      for (int d = 0; d < D; ++d) {
        for (int s = 0; s < 2; ++s) {
          const auto want = a.halo[d][s].send.indices();
          const auto got = b.halo[d][s].send.indices();
          ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                                 got.end()))
              << "block " << b.index << " dim " << d << " side " << s;
        }
      }
      ASSERT_EQ(a.store.size(), b.store.size());
      for (std::size_t i = b.ncore; i < b.store.size(); ++i) {
        for (int d = 0; d < D; ++d) {
          ASSERT_EQ(a.store.pos(i)[d], b.store.pos(i)[d]) << "halo " << i;
        }
      }
    }
  });
}

TEST(Halo, BinnedTemplatesMatchFullScan2DReordered) {
  check_binned_templates<2>(true, 2, 2);
}
TEST(Halo, BinnedTemplatesMatchFullScan2DUnordered) {
  check_binned_templates<2>(false, 2, 2);
}
TEST(Halo, BinnedTemplatesMatchFullScan3DReordered) {
  check_binned_templates<3>(true, 2, 1);
}
TEST(Halo, BinnedTemplatesMatchFullScan3DUnordered) {
  check_binned_templates<3>(false, 1, 4);
}

}  // namespace
}  // namespace hdem
