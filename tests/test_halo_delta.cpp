// Delta-compressed, coalesced halo frames (DESIGN §3.8): frame format
// round-trips and bounds checks, exchanger-level bit identity against the
// unframed path (wire, same-rank local, corner forwarding, coalesced
// streams at bpp 1 and 4, shared windows with masked copies), the
// byte-conservation invariant eager = delta + saved on merged counters,
// driver-level trajectory bit identity delta on/off across serial/smp/mp
// at T x skin, and the config/CLI surface.
#include "decomp/halo.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ci_env.hpp"
#include "core/config.hpp"
#include "core/init.hpp"
#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"
#include "driver/smp_sim.hpp"
#include "mp/comm.hpp"
#include "util/halo_cli.hpp"

namespace hdem {
namespace {

// -- frame format -----------------------------------------------------------

template <int D>
std::vector<std::byte> encode_frame(int block, std::uint16_t mode,
                                    std::uint32_t count,
                                    std::span<const std::uint64_t> mask,
                                    std::span<const Vec<D>> values) {
  HaloFrameHeader hdr{};
  hdr.block = block;
  hdr.mode = mode;
  hdr.count = count;
  hdr.changed = static_cast<std::uint32_t>(values.size());
  std::vector<std::byte> buf(sizeof(hdr));
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  const auto append = [&buf](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf.insert(buf.end(), b, b + n);
  };
  append(mask.data(), mask.size_bytes());
  append(values.data(), values.size_bytes());
  return buf;
}

TEST(HaloFrame, EagerRoundTrip) {
  const std::vector<Vec<2>> vals = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const auto buf = encode_frame<2>(7, kHaloFrameEager, 3, {}, vals);
  const auto f = halo_parse_frame<2>(buf, 0);
  EXPECT_EQ(f.hdr.block, 7);
  EXPECT_EQ(f.hdr.count, 3u);
  EXPECT_EQ(f.mask.size(), 0u);
  ASSERT_EQ(f.values.size(), 3u);
  EXPECT_EQ(f.end, buf.size());
  std::vector<Vec<2>> dest(3, Vec<2>(-1.0));
  EXPECT_EQ(halo_apply_frame<2>(f, dest), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(&dest[i], &vals[i], sizeof(Vec<2>)), 0) << i;
  }
}

TEST(HaloFrame, DeltaSingleBitFlip) {
  // 70 entries so the mask spans two words; only bit 65 set.
  const std::vector<std::uint64_t> mask = {0, std::uint64_t{1} << 1};
  const std::vector<Vec<2>> vals = {{9.0, -9.0}};
  const auto buf = encode_frame<2>(3, kHaloFrameDelta, 70, mask, vals);
  const auto f = halo_parse_frame<2>(buf, 0);
  ASSERT_EQ(f.mask.size(), 2u);
  ASSERT_EQ(f.values.size(), 1u);
  std::vector<Vec<2>> dest(70, Vec<2>(0.5));
  EXPECT_EQ(halo_apply_frame<2>(f, dest), 1u);
  EXPECT_EQ(dest[65][0], 9.0);
  EXPECT_EQ(dest[65][1], -9.0);
  for (std::size_t i = 0; i < 70; ++i) {
    if (i == 65) continue;
    EXPECT_EQ(dest[i][0], 0.5) << i;
  }
}

TEST(HaloFrame, DeltaAllChangedAndEmpty) {
  // All changed: mask all ones, values == count.
  {
    const std::vector<std::uint64_t> mask = {0xF};
    std::vector<Vec<2>> vals(4);
    for (int i = 0; i < 4; ++i) vals[static_cast<std::size_t>(i)] = Vec<2>(i);
    const auto buf = encode_frame<2>(0, kHaloFrameDelta, 4, mask, vals);
    std::vector<Vec<2>> dest(4, Vec<2>(-1.0));
    EXPECT_EQ(halo_apply_frame<2>(halo_parse_frame<2>(buf, 0), dest), 4u);
    EXPECT_EQ(dest[3][0], 3.0);
  }
  // Empty side: count 0 parses to a header-only frame and applies nothing.
  {
    const auto buf = encode_frame<2>(1, kHaloFrameDelta, 0, {}, {});
    const auto f = halo_parse_frame<2>(buf, 0);
    EXPECT_EQ(f.end, sizeof(HaloFrameHeader));
    std::vector<Vec<2>> dest;
    EXPECT_EQ(halo_apply_frame<2>(f, dest), 0u);
  }
}

TEST(HaloFrame, CoalescedStreamOfMixedFrames) {
  // Two frames back to back, one eager one delta, parsed sequentially the
  // way unpack_channel walks a coalesced message.
  const std::vector<Vec<2>> v0 = {{1.0, 1.0}, {2.0, 2.0}};
  const std::vector<std::uint64_t> mask = {0x2};
  const std::vector<Vec<2>> v1 = {{7.0, 7.0}};
  auto buf = encode_frame<2>(4, kHaloFrameEager, 2, {}, v0);
  const auto second = encode_frame<2>(5, kHaloFrameDelta, 2, mask, v1);
  buf.insert(buf.end(), second.begin(), second.end());
  const auto f0 = halo_parse_frame<2>(buf, 0);
  EXPECT_EQ(f0.hdr.block, 4);
  const auto f1 = halo_parse_frame<2>(buf, f0.end);
  EXPECT_EQ(f1.hdr.block, 5);
  EXPECT_EQ(f1.end, buf.size());
  std::vector<Vec<2>> dest(2, Vec<2>(0.0));
  halo_apply_frame<2>(f1, dest);
  EXPECT_EQ(dest[1][0], 7.0);
  EXPECT_EQ(dest[0][0], 0.0);
}

TEST(HaloFrame, ParseRejectsMalformedFrames) {
  const std::vector<Vec<2>> vals = {{1.0, 2.0}};
  auto buf = encode_frame<2>(0, kHaloFrameEager, 1, {}, vals);
  // Truncated header and truncated body.
  EXPECT_THROW(halo_parse_frame<2>(
                   std::span<const std::byte>(buf.data(), 8), 0),
               std::logic_error);
  EXPECT_THROW(halo_parse_frame<2>(
                   std::span<const std::byte>(buf.data(), buf.size() - 1), 0),
               std::logic_error);
  // Unknown mode.
  auto bad = buf;
  const std::uint16_t mode = 9;
  std::memcpy(bad.data() + 4, &mode, sizeof(mode));
  EXPECT_THROW(halo_parse_frame<2>(bad, 0), std::logic_error);
  // changed > count.
  bad = buf;
  const std::uint32_t changed = 2;
  std::memcpy(bad.data() + 12, &changed, sizeof(changed));
  EXPECT_THROW(halo_parse_frame<2>(bad, 0), std::logic_error);
  // Mask popcount disagreeing with changed.
  const std::vector<std::uint64_t> mask = {0x3};  // two bits
  const auto delta = encode_frame<2>(0, kHaloFrameDelta, 2, mask, vals);
  std::vector<Vec<2>> dest(2);
  EXPECT_THROW(halo_apply_frame<2>(halo_parse_frame<2>(delta, 0), dest),
               std::logic_error);
  // Mask bit addressing an entry beyond the region.
  const std::vector<std::uint64_t> high = {0x4};  // bit 2 with count 2
  const auto oob = encode_frame<2>(0, kHaloFrameDelta, 2, high, vals);
  EXPECT_THROW(halo_apply_frame<2>(halo_parse_frame<2>(oob, 0), dest),
               std::logic_error);
}

TEST(HaloFrame, TagsStayBelowCollectiveTags) {
  // Frame tags live in their own negative band below kTagAlltoall and
  // never collide with per-side halo tags (>= 0) for D <= 3.
  for (int d = 0; d < 3; ++d) {
    for (int s = 0; s < 2; ++s) {
      const int tag = halo_frame_tag(d, s);
      EXPECT_LE(tag, kTagHaloFrameBase);
      EXPECT_LT(tag, mp::kTagAlltoall);
    }
  }
  EXPECT_NE(halo_frame_tag(0, 0), halo_frame_tag(0, 1));
  EXPECT_NE(halo_frame_tag(0, 0), halo_frame_tag(1, 0));
}

// -- exchanger-level identity ------------------------------------------------

template <int D>
std::vector<BlockDomain<D>> make_blocks(
    const DecompLayout<D>& layout, const SimConfig<D>& cfg, int rank,
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

struct SwapModes {
  bool delta = false;
  bool coalesce = false;
  bool shared = false;
};

struct SwapResult {
  // positions[rank] = every block's full store (core + halo), in block
  // order — bitwise-comparable across mode settings.
  std::vector<std::vector<Vec<2>>> positions;
  Counters merged;  // exchanger counters merged over ranks
};

// Build templates, then run `nswaps` swaps, moving a deterministic subset
// of core particles before each (ids divisible by 3 — a partial change
// set, so delta masks are neither empty nor full).
SwapResult run_swaps(const SwapModes& modes, int nprocs, int bpp, int nswaps,
                     std::uint64_t n, std::uint64_t seed) {
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = seed;
  const auto layout = DecompLayout<2>::make(nprocs, bpp);
  const auto init = uniform_random_particles(cfg, n);
  SwapResult out;
  out.positions.resize(static_cast<std::size_t>(nprocs));
  std::vector<Counters> rank_counters(static_cast<std::size_t>(nprocs));
  mp::run(nprocs, [&](mp::Comm& comm) {
    auto blocks = make_blocks(layout, cfg, comm.rank(), init);
    Boundary<2> bc(cfg.bc, cfg.box);
    HaloExchanger<2> halo(layout, bc, cfg.cutoff());
    if (modes.shared) {
      halo.enable_shared_windows(mp::NodeMap(0));  // all ranks on one node
    }
    halo.set_frame_modes(modes.delta, modes.coalesce);
    Counters c;
    halo.build_templates(blocks, comm, c);
    for (int t = 0; t < nswaps; ++t) {
      for (auto& b : blocks) {
        for (std::size_t i = 0; i < b.ncore; ++i) {
          if (b.store.id(i) % 3 == 0) {
            b.store.pos(i) += Vec<2>(1e-7 * (t + 1), -2e-7);
          }
        }
      }
      halo.swap_positions(blocks, comm, c);
    }
    auto& mine = out.positions[static_cast<std::size_t>(comm.rank())];
    for (const auto& b : blocks) {
      const auto pos = b.store.cpositions();
      mine.insert(mine.end(), pos.begin(), pos.end());
    }
    rank_counters[static_cast<std::size_t>(comm.rank())] = c;
  });
  for (const auto& c : rank_counters) out.merged.merge(c);
  return out;
}

void expect_identical(const SwapResult& a, const SwapResult& b) {
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t r = 0; r < a.positions.size(); ++r) {
    ASSERT_EQ(a.positions[r].size(), b.positions[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < a.positions[r].size(); ++i) {
      ASSERT_EQ(std::memcmp(&a.positions[r][i], &b.positions[r][i],
                            sizeof(Vec<2>)),
                0)
          << "rank " << r << " entry " << i;
    }
  }
}

void expect_conservation(const Counters& c) {
  // Every gated row's invariant: the eager bytes each framed swap *would*
  // have shipped split exactly into what delta shipped and what it saved.
  EXPECT_EQ(c.halo_bytes_eager, c.halo_bytes_delta + c.bytes_delta_saved);
}

// Multi-block multi-rank wire exchange with corner forwarding (bpp 4 gives
// interior blocks with all four neighbours): every frame mode combination
// must reproduce the unframed swap bit for bit.
TEST(HaloDelta, WireSwapsBitIdenticalAcrossModes) {
  const auto base = run_swaps({false, false, false}, 4, 4, 6, 600, 21);
  for (const bool coalesce : {false, true}) {
    const auto d = run_swaps({true, coalesce, false}, 4, 4, 6, 600, 21);
    expect_identical(base, d);
    expect_conservation(d.merged);
    // The partial movement pattern must actually compress...
    EXPECT_GT(d.merged.bytes_delta_saved, 0u);
    // ...and cut wire bytes against the unframed path.
    EXPECT_LT(d.merged.halo_bytes_wire, base.merged.halo_bytes_wire);
  }
  // Coalesce-only framing (eager payloads in framed streams).
  const auto c = run_swaps({false, true, false}, 4, 4, 6, 600, 21);
  expect_identical(base, c);
  EXPECT_GT(c.merged.msgs_coalesced, 0u);
  EXPECT_LT(c.merged.halo_msgs_wire, base.merged.halo_msgs_wire);
}

TEST(HaloDelta, CoalescingAtBppOneKeepsPerSideStreams) {
  const auto base = run_swaps({false, false, false}, 2, 1, 4, 400, 22);
  const auto d = run_swaps({true, true, false}, 2, 1, 4, 400, 22);
  expect_identical(base, d);
  expect_conservation(d.merged);
  // One block per rank: nothing to merge, every channel carries one side.
  EXPECT_EQ(d.merged.msgs_coalesced, 0u);
}

TEST(HaloDelta, CoalescingAtBppFourMergesWireMessages) {
  const auto base = run_swaps({false, false, false}, 2, 4, 4, 500, 23);
  const auto d = run_swaps({true, true, false}, 2, 4, 4, 500, 23);
  expect_identical(base, d);
  expect_conservation(d.merged);
  EXPECT_GT(d.merged.msgs_coalesced, 0u);
  EXPECT_LT(d.merged.halo_msgs_wire, base.merged.halo_msgs_wire);
}

TEST(HaloDelta, SameRankLocalPathUnaffectedByDelta) {
  // Single rank, 16 blocks: every transfer is a same-rank copy; framing
  // must neither change the bits nor put anything on the wire.
  const auto base = run_swaps({false, false, false}, 1, 16, 5, 500, 24);
  const auto d = run_swaps({true, true, false}, 1, 16, 5, 500, 24);
  expect_identical(base, d);
  EXPECT_EQ(d.merged.halo_msgs_wire, 0u);
  EXPECT_EQ(d.merged.halo_bytes_wire, 0u);
  EXPECT_GT(d.merged.msgs_local, 0u);
}

TEST(HaloDelta, SharedWindowMaskedCopyMatchesFullCopy) {
  const auto base = run_swaps({false, false, true}, 4, 2, 6, 600, 25);
  const auto d = run_swaps({true, false, true}, 4, 2, 6, 600, 25);
  expect_identical(base, d);
  expect_conservation(d.merged);
  // The masked reader path copied fewer bytes than the full-copy path...
  EXPECT_LT(d.merged.bytes_shared, base.merged.bytes_shared);
  EXPECT_GT(d.merged.bytes_delta_saved, 0u);
  // ...and windows keep everything off the wire either way.
  EXPECT_EQ(d.merged.halo_bytes_wire, base.merged.halo_bytes_wire);
}

// -- driver-level trajectory identity ----------------------------------------

template <int D>
std::vector<StateRecord<D>> snapshot_records(const ParticleStore<D>& store) {
  std::vector<StateRecord<D>> out(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::size_t>(store.id(i));
    out[id] = {store.id(i), store.pos(i), store.vel(i)};
  }
  return out;
}

template <int D>
void expect_records_identical(const std::vector<StateRecord<D>>& a,
                              const std::vector<StateRecord<D>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << i;
    ASSERT_EQ(std::memcmp(&a[i].pos, &b[i].pos, sizeof(Vec<D>)), 0) << i;
    ASSERT_EQ(std::memcmp(&a[i].vel, &b[i].vel, sizeof(Vec<D>)), 0) << i;
  }
}

SimConfig<2> driver_config(bool delta, double skin) {
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(SimConfig<2>::paper_box_edge(600));
  cfg.seed = 31;
  cfg.dt = 2.5e-4;
  cfg.velocity_scale = 0.05;
  cfg.skin_factor = skin;
  cfg.skin_cap_factor = 0.3;  // pinned so skins share cell geometry
  cfg.halo_delta = delta;
  cfg.halo_coalesce = delta;
  return cfg;
}

std::vector<StateRecord<2>> run_driver(const char* driver, bool delta,
                                       double skin, int nthreads, int steps) {
  const auto cfg = driver_config(delta, skin);
  const auto init = uniform_random_particles(cfg, 600);
  const ElasticSphere model{cfg.stiffness, cfg.diameter};
  if (std::strcmp(driver, "serial") == 0) {
    SerialSim<2> sim(cfg, model, init);
    sim.run(static_cast<std::uint64_t>(steps));
    return snapshot_records<2>(sim.store());
  }
  if (std::strcmp(driver, "smp") == 0) {
    SmpSim<2> sim(cfg, model, init, nthreads, ReductionKind::kColored);
    sim.run(static_cast<std::uint64_t>(steps));
    return snapshot_records<2>(sim.store());
  }
  const auto layout = DecompLayout<2>::make(4, 1);
  auto opts = test::ci_options<2>();
  opts.nthreads = nthreads;
  // Atomic-family reductions are not run-to-run reproducible at T > 1.
  opts.reduction = ReductionKind::kColored;
  std::vector<StateRecord<2>> out;
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm, model, init, opts);
    sim.run(static_cast<std::uint64_t>(steps));
    auto s = sim.gather_state();
    if (comm.rank() == 0) out = std::move(s);
  });
  return out;
}

TEST(HaloDeltaDrivers, TrajectoriesBitIdenticalDeltaOnOff) {
  constexpr int kSteps = 60;
  for (const double skin : {0.0, 0.3}) {
    for (const char* driver : {"serial", "smp", "mp"}) {
      for (const int T : {1, 2, 4}) {
        if (std::strcmp(driver, "serial") == 0 && T > 1) continue;
        const auto off = run_driver(driver, false, skin, T, kSteps);
        const auto on = run_driver(driver, true, skin, T, kSteps);
        SCOPED_TRACE(std::string(driver) + " T=" + std::to_string(T) +
                     " skin=" + std::to_string(skin));
        expect_records_identical<2>(off, on);
      }
    }
  }
}

TEST(HaloDeltaDrivers, MpCountersConserveBytesAndCompress) {
  // Settled bed: a contact-free lattice at rest with a mobile minority
  // (every fifth particle), so most halo entries repeat bit-exactly
  // between swaps and the masks genuinely compress.
  SimConfig<2> cfg = test::ci_config<2>();
  cfg.box = Vec<2>(1.0);
  cfg.seed = 31;
  cfg.velocity_scale = 0.0;
  cfg.halo_delta = true;
  cfg.halo_coalesce = true;
  auto init = lattice_particles(cfg, 100);  // spacing 0.1 = 2x diameter
  for (std::size_t i = 0; i < init.size(); i += 5) {
    init[i].vel = Vec<2>(0.2, 0.1);
  }
  const auto layout = DecompLayout<2>::make(4, 1);
  std::vector<Counters> rank_counters(4);
  // The assertions below read the wire counters, so pin the wire
  // transport whatever the CI leg selects (the masked shared-window path
  // has its own suite above).
  auto opts = test::ci_options<2>();
  opts.shared_halo = false;
  mp::run(4, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init, opts);
    sim.run(60);
    rank_counters[static_cast<std::size_t>(comm.rank())] = sim.counters();
  });
  Counters merged;
  for (const auto& c : rank_counters) merged.merge(c);
  expect_conservation(merged);
  EXPECT_GT(merged.halo_bytes_eager, 0u);
  EXPECT_GT(merged.bytes_delta_saved, 0u);
  EXPECT_GT(merged.delta_hit_rate(), 0.0);
  EXPECT_GT(merged.halo_msgs_wire, 0u);
}

// -- config and CLI surface --------------------------------------------------

TEST(HaloDeltaConfig, ValidateRejectsZeroCapacityTemplates) {
  SimConfig<2> cfg;
  cfg.halo_delta = true;
  cfg.cutoff_factor = 1.0;  // list radius == rmax: zero drift allowance
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.cutoff_factor = 1.5;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(HaloDeltaConfig, CliFlagsApplyToConfig) {
  std::string prog = "prog", f1 = "--halo-delta", f2 = "--halo-coalesce";
  std::vector<char*> argv = {prog.data(), f1.data(), f2.data()};
  Cli cli(static_cast<int>(argv.size()), argv.data());
  const auto halo = declare_halo_options(cli);
  EXPECT_FALSE(cli.finish());
  EXPECT_TRUE(halo.delta);
  EXPECT_TRUE(halo.coalesce);
  SimConfig<2> cfg;
  halo.apply(cfg);
  EXPECT_TRUE(cfg.halo_delta);
  EXPECT_TRUE(cfg.halo_coalesce);
}

TEST(HaloDeltaCounters, HitRateAndMergeSemantics) {
  Counters a, b;
  a.halo_bytes_eager = 100;
  a.halo_bytes_delta = 30;
  a.bytes_delta_saved = 70;
  a.msgs_coalesced = 3;
  a.halo_msgs_wire = 5;
  a.halo_bytes_wire = 400;
  a.halo_frame_overhead = 48;
  b = a;
  a.merge(b);  // per-rank quantities add
  EXPECT_EQ(a.halo_bytes_eager, 200u);
  EXPECT_EQ(a.bytes_delta_saved, 140u);
  EXPECT_EQ(a.msgs_coalesced, 6u);
  EXPECT_EQ(a.halo_msgs_wire, 10u);
  EXPECT_EQ(a.halo_bytes_wire, 800u);
  EXPECT_EQ(a.halo_frame_overhead, 96u);
  EXPECT_DOUBLE_EQ(a.delta_hit_rate(), 0.7);
  EXPECT_DOUBLE_EQ(Counters{}.delta_hit_rate(), 0.0);
  const Counters d = counters_delta(a, b);
  EXPECT_EQ(d.halo_bytes_eager, 100u);
  EXPECT_EQ(d.bytes_delta_saved, 70u);
}

}  // namespace
}  // namespace hdem
