#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "driver/mp_sim.hpp"
#include "perf/machine.hpp"
#include "util/decomp_cli.hpp"
#include "util/halo_cli.hpp"
#include "util/skin_cli.hpp"
#include "util/tune_cli.hpp"

namespace hdem {
namespace {

// Helper building argv from a list of strings.
struct Args {
  explicit Args(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(prog.data());
    for (auto& a : storage) ptrs.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::string prog = "test";
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(Cli, DefaultsWhenAbsent) {
  Args a({});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 42, ""), 42);
  EXPECT_DOUBLE_EQ(cli.real("x", 1.5, ""), 1.5);
  EXPECT_EQ(cli.str("mode", "serial", ""), "serial");
  EXPECT_FALSE(cli.flag("full", ""));
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, EqualsSyntax) {
  Args a({"--n=7", "--x=2.25", "--mode=mp"});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 0, ""), 7);
  EXPECT_DOUBLE_EQ(cli.real("x", 0.0, ""), 2.25);
  EXPECT_EQ(cli.str("mode", "", ""), "mp");
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, SpaceSyntax) {
  Args a({"--n", "9", "--mode", "hybrid"});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 0, ""), 9);
  EXPECT_EQ(cli.str("mode", "", ""), "hybrid");
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, BooleanFlag) {
  Args a({"--full"});
  Cli cli(a.argc(), a.argv());
  EXPECT_TRUE(cli.flag("full", ""));
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, IntegerList) {
  Args a({"--procs=1,2,4,8"});
  Cli cli(a.argc(), a.argv());
  const auto v = cli.integer_list("procs", {}, "");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, IntegerListDefault) {
  Args a({});
  Cli cli(a.argc(), a.argv());
  const auto v = cli.integer_list("procs", {3, 5}, "");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 5);
}

TEST(Cli, UnknownOptionFails) {
  Args a({"--bogus=1"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, BadIntegerFails) {
  Args a({"--n=abc"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, HelpStopsExecution) {
  Args a({"--help"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "count");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, NegativeNumbersAsValues) {
  Args a({"--x=-2.5", "--n=-3"});
  Cli cli(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(cli.real("x", 0.0, ""), -2.5);
  EXPECT_EQ(cli.integer("n", 0, ""), -3);
  EXPECT_FALSE(cli.finish());
}

// ---- configuration has one source: explicit options ------------------------

// Everything a run's configuration starts from when nothing is passed.
struct Defaults {
  SimConfig<2> cfg;
  MpSim<2>::Options opts;
  SkinCliOptions skin;
  HaloCliOptions halo;
  DecompCliOptions decomp;
  TuneCliOptions tune;
  std::string report;
};

Defaults capture_defaults() {
  Defaults d;
  Args a({});
  Cli cli(a.argc(), a.argv());
  d.skin = declare_skin_options(cli);
  d.halo = declare_halo_options(cli);
  d.decomp = declare_decomp_options(cli);
  d.tune = declare_tune_options(cli);
  EXPECT_FALSE(cli.finish());
  d.report = perf::machine_report(perf::generic_host());
  return d;
}

// The library reads no environment: with the transport, skin and tuning
// variables set, every default is what it is with them unset.
TEST(EnvIndependence, DefaultsIgnoreTheEnvironment) {
  const char* const vars[][2] = {
      {"HDEM_HALO_DELTA", "1"}, {"HDEM_HALO_COALESCE", "1"},
      {"HDEM_SHARED_HALO", "1"}, {"HDEM_RANKS_PER_NODE", "2"},
      {"HDEM_SKIN", "0.3"},      {"HDEM_AUTO", "1"}};
  for (const auto& v : vars) ASSERT_EQ(::unsetenv(v[0]), 0);
  const Defaults plain = capture_defaults();
  for (const auto& v : vars) ASSERT_EQ(::setenv(v[0], v[1], 1), 0);
  const Defaults env = capture_defaults();
  for (const auto& v : vars) ASSERT_EQ(::unsetenv(v[0]), 0);

  EXPECT_EQ(env.cfg.box, plain.cfg.box);
  EXPECT_EQ(env.cfg.bc, plain.cfg.bc);
  EXPECT_EQ(env.cfg.diameter, plain.cfg.diameter);
  EXPECT_EQ(env.cfg.stiffness, plain.cfg.stiffness);
  EXPECT_EQ(env.cfg.cutoff_factor, plain.cfg.cutoff_factor);
  EXPECT_EQ(env.cfg.dt, plain.cfg.dt);
  EXPECT_EQ(env.cfg.velocity_scale, plain.cfg.velocity_scale);
  EXPECT_EQ(env.cfg.gravity, plain.cfg.gravity);
  EXPECT_EQ(env.cfg.reorder, plain.cfg.reorder);
  EXPECT_EQ(env.cfg.skin_factor, plain.cfg.skin_factor);
  EXPECT_EQ(env.cfg.skin_cap_factor, plain.cfg.skin_cap_factor);
  EXPECT_EQ(env.cfg.halo_delta, plain.cfg.halo_delta);
  EXPECT_EQ(env.cfg.halo_coalesce, plain.cfg.halo_coalesce);
  EXPECT_EQ(env.cfg.seed, plain.cfg.seed);

  EXPECT_EQ(env.opts.nthreads, plain.opts.nthreads);
  EXPECT_EQ(env.opts.reduction, plain.opts.reduction);
  EXPECT_EQ(env.opts.fused, plain.opts.fused);
  EXPECT_EQ(env.opts.overlap, plain.opts.overlap);
  EXPECT_EQ(env.opts.steal, plain.opts.steal);
  EXPECT_EQ(env.opts.rebalance, plain.opts.rebalance);
  EXPECT_EQ(env.opts.rebalance_threshold, plain.opts.rebalance_threshold);
  EXPECT_EQ(env.opts.shared_halo, plain.opts.shared_halo);
  EXPECT_EQ(env.opts.ranks_per_node, plain.opts.ranks_per_node);

  EXPECT_EQ(env.skin.skin, plain.skin.skin);
  EXPECT_EQ(env.skin.skin_cap, plain.skin.skin_cap);
  EXPECT_EQ(env.halo.delta, plain.halo.delta);
  EXPECT_EQ(env.halo.coalesce, plain.halo.coalesce);
  EXPECT_EQ(env.decomp.blocks_per_proc, plain.decomp.blocks_per_proc);
  EXPECT_EQ(env.decomp.rebalance, plain.decomp.rebalance);
  EXPECT_EQ(env.decomp.rebalance_threshold, plain.decomp.rebalance_threshold);
  EXPECT_EQ(env.decomp.steal, plain.decomp.steal);
  EXPECT_EQ(env.decomp.shared_halo, plain.decomp.shared_halo);
  EXPECT_EQ(env.decomp.ranks_per_node, plain.decomp.ranks_per_node);
  EXPECT_EQ(env.tune.auto_mode, plain.tune.auto_mode);
  EXPECT_EQ(env.tune.tune_file, plain.tune.tune_file);

  EXPECT_EQ(env.report, plain.report);
}

}  // namespace
}  // namespace hdem
