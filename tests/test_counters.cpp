#include "core/counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cell_grid.hpp"
#include "core/link_list.hpp"
#include "smp/thread_team.hpp"
#include "util/rng.hpp"

namespace hdem {
namespace {

TEST(Counters, MergeAddsExtensiveFields) {
  Counters a, b;
  a.particles = 10;
  a.force_evals = 100;
  a.msgs_sent = 5;
  b.particles = 20;
  b.force_evals = 50;
  b.msgs_sent = 7;
  a.merge(b);
  EXPECT_EQ(a.particles, 30u);
  EXPECT_EQ(a.force_evals, 150u);
  EXPECT_EQ(a.msgs_sent, 12u);
}

TEST(Counters, MergeTakesMaxOfIterations) {
  // Iterations are per-rank and identical across ranks; merging must not
  // multiply them by the rank count.
  Counters a, b;
  a.iterations = 8;
  b.iterations = 8;
  a.merge(b);
  EXPECT_EQ(a.iterations, 8u);
}

TEST(Counters, DeltaSubtractsCumulativeKeepsCurrent) {
  Counters before, after;
  before.force_evals = 100;
  before.iterations = 2;
  after.force_evals = 300;
  after.iterations = 6;
  after.links_core = 42;  // current value
  after.particles = 1000;
  const Counters d = counters_delta(after, before);
  EXPECT_EQ(d.force_evals, 200u);
  EXPECT_EQ(d.iterations, 4u);
  EXPECT_EQ(d.links_core, 42u);
  EXPECT_EQ(d.particles, 1000u);
}

TEST(Counters, GapHistogramBuckets) {
  Counters c;
  c.record_link_gap(0);
  c.record_link_gap(1);
  c.record_link_gap(2);
  c.record_link_gap(3);
  c.record_link_gap(1024);
  EXPECT_EQ(c.link_gap_count, 5u);
  EXPECT_EQ(c.link_gap_hist[0], 2u);  // gaps 0 and 1
  EXPECT_EQ(c.link_gap_hist[1], 2u);  // gaps 2 and 3
  EXPECT_EQ(c.link_gap_hist[10], 1u);
}

TEST(Counters, MeanLinkGap) {
  Counters c;
  c.record_link_gap(2);
  c.record_link_gap(4);
  EXPECT_DOUBLE_EQ(c.mean_link_gap(), 3.0);
  Counters empty;
  EXPECT_DOUBLE_EQ(empty.mean_link_gap(), 0.0);
}

TEST(Counters, GapFractionAbove) {
  Counters c;
  for (int i = 0; i < 50; ++i) c.record_link_gap(4);      // bucket mid 6
  for (int i = 0; i < 50; ++i) c.record_link_gap(4096);   // bucket mid 6144
  EXPECT_DOUBLE_EQ(c.gap_fraction_above(1000.0), 0.5);
  EXPECT_DOUBLE_EQ(c.gap_fraction_above(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.gap_fraction_above(1e9), 0.0);
}

TEST(Counters, GapFractionEmptyIsZero) {
  Counters c;
  EXPECT_DOUBLE_EQ(c.gap_fraction_above(10.0), 0.0);
}

TEST(Counters, MergeAddsHistogram) {
  Counters a, b;
  a.record_link_gap(10);
  b.record_link_gap(10);
  b.record_link_gap(100000);
  a.merge(b);
  EXPECT_EQ(a.link_gap_count, 3u);
  EXPECT_NEAR(a.gap_fraction_above(1000.0), 1.0 / 3.0, 1e-12);
}

TEST(Counters, SummaryMentionsKeyFields) {
  Counters c;
  c.iterations = 3;
  c.links_core = 17;
  const std::string s = c.summary();
  EXPECT_NE(s.find("iterations=3"), std::string::npos);
  EXPECT_NE(s.find("core=17"), std::string::npos);
}

// The shift loop record_link_gap used before gap_bucket: the reference
// the bit_width bucketing must reproduce.
int shift_loop_bucket(std::uint64_t gap) {
  int b = 0;
  while ((gap >> 1) != 0 && b < Counters::kGapBuckets - 1) {
    gap >>= 1;
    ++b;
  }
  return b;
}

TEST(Counters, GapBucketMatchesShiftLoop) {
  const std::uint64_t gaps[] = {0,          1,          2,
                                3,          4,          7,
                                8,          1ull << 20, 1ull << 39,
                                1ull << 40, 1ull << 63};
  for (const std::uint64_t g : gaps) {
    EXPECT_EQ(Counters::gap_bucket(g), shift_loop_bucket(g)) << "gap=" << g;
  }
  // Everything from 2^39 up lands in the cap bucket.
  for (const std::uint64_t g : {1ull << 39, 1ull << 40, 1ull << 63, ~0ull}) {
    EXPECT_EQ(Counters::gap_bucket(g), Counters::kGapBuckets - 1);
  }
  for (int k = 0; k < 64; ++k) {
    for (const std::uint64_t g : {(1ull << k) - 1, 1ull << k, (1ull << k) + 1}) {
      ASSERT_EQ(Counters::gap_bucket(g), shift_loop_bucket(g)) << "gap=" << g;
    }
  }
}

TEST(Counters, FusedTalliesMatchSerialLinkStats) {
  // The fused build tallies each thread's core links and merges the
  // tallies in tid order; the totals must equal record_link_stats over
  // the finished list for every team size.
  Rng rng(4);
  const std::size_t n = 3000, ncore = 2400;  // trailing 600 are halo copies
  std::vector<Vec<3>> pos(n);
  for (auto& x : pos) x = Vec<3>(rng.uniform(), rng.uniform(), rng.uniform());
  CellGrid<3> grid;
  grid.configure(Vec<3>{}, Vec<3>(1.0), 0.08, {false, false, false});
  grid.bin(pos, n);
  const PairDisp<3> disp{};
  LinkList serial;
  build_links(serial, grid, std::span<const Vec<3>>(pos), ncore, 0.08, disp);
  Counters want;
  record_link_stats(serial, want);
  ASSERT_GT(want.link_gap_count, 0u);
  ASSERT_GT(want.links_halo, 0u);
  for (const int t : {1, 2, 4, 7}) {
    smp::ThreadTeam team(t);
    LinkList fused;
    FusedBuildScratch scratch;
    std::vector<Vec<3>> cell_buf;
    Counters got;
    build_links_fused(fused, grid, std::span<const Vec<3>>(pos), ncore, 0.08,
                      disp, team, scratch, cell_buf, &got);
    const std::string what = "T=" + std::to_string(t);
    EXPECT_EQ(got.links_core, want.links_core) << what;
    EXPECT_EQ(got.links_halo, want.links_halo) << what;
    EXPECT_EQ(got.link_gap_sum, want.link_gap_sum) << what;
    EXPECT_EQ(got.link_gap_count, want.link_gap_count) << what;
    for (int b = 0; b < Counters::kGapBuckets; ++b) {
      EXPECT_EQ(got.link_gap_hist[b], want.link_gap_hist[b])
          << what << " bucket " << b;
    }
  }
}

TEST(Counters, HugeGapSaturatesLastBucket) {
  Counters c;
  c.record_link_gap(~0ull);
  EXPECT_EQ(c.link_gap_hist[Counters::kGapBuckets - 1], 1u);
}

}  // namespace
}  // namespace hdem
