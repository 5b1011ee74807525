#include "perf/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "perf/tune.hpp"

namespace hdem::perf {
namespace {

// A well-conditioned synthetic design: columns vary independently.
std::vector<double> make_design(std::size_t nrows, std::size_t ncols) {
  std::vector<double> x(nrows * ncols);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < ncols; ++j) {
      // Deterministic, full-rank, strictly positive entries with very
      // different per-column scales (mimics n/P vs barrier counts).
      const double base = std::pow(10.0, static_cast<double>(j));
      x[r * ncols + j] =
          base * (1.0 + 0.37 * static_cast<double>((r * (j + 3)) % 7));
    }
  }
  return x;
}

std::vector<double> apply(const std::vector<double>& x, std::size_t nrows,
                          std::size_t ncols,
                          const std::vector<double>& beta) {
  std::vector<double> y(nrows, 0.0);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < ncols; ++j) {
      y[r] += x[r * ncols + j] * beta[j];
    }
  }
  return y;
}

TEST(FitPhase, ExactRecovery) {
  const std::size_t nrows = 9, ncols = 3;
  const auto x = make_design(nrows, ncols);
  const std::vector<double> truth = {3e-7, 2e-6, 5e-5};
  const auto y = apply(x, nrows, ncols, truth);
  const PhaseFit fit = fit_phase(x, nrows, ncols, y);
  ASSERT_EQ(fit.beta.size(), ncols);
  for (std::size_t j = 0; j < ncols; ++j) {
    EXPECT_NEAR(fit.beta[j] / truth[j], 1.0, 1e-6) << "column " << j;
  }
  EXPECT_LT(fit.max_rel_error, 1e-6);
}

TEST(FitPhase, NoisyRecoveryWithinTolerance) {
  const std::size_t nrows = 24, ncols = 3;
  const auto x = make_design(nrows, ncols);
  // Coefficients scaled so every column contributes comparably to y;
  // recovering a term whose whole contribution is smaller than the noise
  // is impossible for any fitter and not what this test is about.
  const std::vector<double> truth = {5e-5, 2e-6, 3e-7};
  auto y = apply(x, nrows, ncols, truth);
  // +-3% deterministic multiplicative noise.
  for (std::size_t r = 0; r < nrows; ++r) {
    y[r] *= 1.0 + 0.03 * ((r % 2 == 0) ? 1.0 : -1.0);
  }
  const PhaseFit fit = fit_phase(x, nrows, ncols, y);
  for (std::size_t j = 0; j < ncols; ++j) {
    EXPECT_NEAR(fit.beta[j] / truth[j], 1.0, 0.15) << "column " << j;
  }
  EXPECT_LT(fit.mean_rel_error, 0.05);
}

TEST(FitPhase, RejectsDependentColumn) {
  const std::size_t nrows = 8, ncols = 3;
  auto x = make_design(nrows, ncols);
  // Make column 2 an exact multiple of column 0.
  for (std::size_t r = 0; r < nrows; ++r) {
    x[r * ncols + 2] = 4.0 * x[r * ncols + 0];
  }
  const auto y = apply(x, nrows, ncols, {1.0, 2.0, 3.0});
  try {
    fit_phase(x, nrows, ncols, y);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos)
        << e.what();
  }
}

TEST(FitPhase, RejectsZeroColumn) {
  const std::size_t nrows = 6, ncols = 2;
  auto x = make_design(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r) x[r * ncols + 1] = 0.0;
  const std::vector<double> y(nrows, 1.0);
  EXPECT_THROW(fit_phase(x, nrows, ncols, y), std::invalid_argument);
}

TEST(FitPhase, RejectsUnderdeterminedDesign) {
  const std::size_t nrows = 2, ncols = 3;
  const auto x = make_design(nrows, ncols);
  const std::vector<double> y(nrows, 1.0);
  EXPECT_THROW(fit_phase(x, nrows, ncols, y), std::invalid_argument);
}

TEST(FitPhasePruned, DropsDependentColumnsAndStillFits) {
  const std::size_t nrows = 8, ncols = 3;
  auto x = make_design(nrows, ncols);
  for (std::size_t r = 0; r < nrows; ++r) {
    x[r * ncols + 2] = 4.0 * x[r * ncols + 0];
  }
  // Target generated from the identifiable columns only.
  const auto y = apply(x, nrows, ncols, {2.0, 3.0, 0.0});
  const PrunedPhaseFit fit = fit_phase_pruned(x, nrows, ncols, y);
  EXPECT_TRUE(fit.kept[0]);
  EXPECT_TRUE(fit.kept[1]);
  EXPECT_FALSE(fit.kept[2]);
  EXPECT_DOUBLE_EQ(fit.fit.beta[2], 0.0);
  EXPECT_LT(fit.fit.max_rel_error, 1e-6);
}

TEST(IndependentColumnMask, FlagsZeroAndDependent) {
  // Columns: [t, 2t, 1] over t = 1..4, plus a zero column.
  const std::size_t nrows = 4, ncols = 4;
  std::vector<double> x(nrows * ncols, 0.0);
  for (std::size_t r = 0; r < nrows; ++r) {
    const double t = static_cast<double>(r + 1);
    x[r * ncols + 0] = t;
    x[r * ncols + 1] = 2.0 * t;
    x[r * ncols + 2] = 1.0;
    x[r * ncols + 3] = 0.0;
  }
  const auto keep = independent_column_mask(x, nrows, ncols);
  EXPECT_TRUE(keep[0]);
  EXPECT_FALSE(keep[1]);  // multiple of column 0
  EXPECT_TRUE(keep[2]);   // intercept is independent of a linear ramp
  EXPECT_FALSE(keep[3]);  // identically zero
}

// --- FittedModel / fit_model over synthetic tune rows ---------------------

double phase_value(const FittedModel& truth, int phase, const TuneRow& r) {
  const auto f = FittedModel::features(phase, r.workload, r.config,
                                       r.rebuilds_per_step);
  double v = 0.0;
  for (int j = 0; j < FittedModel::kFeatureCount; ++j) {
    v += truth.beta[static_cast<std::size_t>(phase)]
                   [static_cast<std::size_t>(j)] *
         f[static_cast<std::size_t>(j)];
  }
  return v;
}

std::vector<TuneRow> synthetic_rows(const FittedModel& truth) {
  std::vector<TuneRow> rows;
  for (const int p : {1, 2, 4}) {
    for (const int t : {1, 2}) {
      for (const int b : {1, 2}) {
        if (p == 1 && b != 1) continue;
        for (const double skin : {0.0, 0.3}) {
          TuneRow r;
          r.workload.scenario = "uniform";
          r.workload.n = 4000;
          r.config.nprocs = p;
          r.config.nthreads = t;
          r.config.blocks_per_proc = b;
          r.config.skin = skin;
          // Constant per (scenario, skin) class, so the fitted class-rate
          // table reproduces each row's own rate exactly.
          r.rebuilds_per_step = skin == 0.0 ? 1.0 : 0.25;
          r.iterations = 8;
          r.force_s = phase_value(truth, FittedModel::kForce, r);
          r.rebuild_s = phase_value(truth, FittedModel::kRebuild, r);
          r.halo_wire_s = phase_value(truth, FittedModel::kHalo, r);
          r.migrate_s = phase_value(truth, FittedModel::kMigrate, r);
          r.other_s = phase_value(truth, FittedModel::kOther, r);
          r.step_seconds = r.force_s + r.rebuild_s + r.halo_wire_s +
                           r.migrate_s + r.other_s;
          rows.push_back(r);
        }
      }
    }
  }
  return rows;
}

TEST(FitModel, RecoversSyntheticModel) {
  FittedModel truth;
  truth.beta[FittedModel::kForce] = {4e-7, 1e-8, 2e-5, 3e-6};
  truth.beta[FittedModel::kRebuild] = {2e-7, 2e-8, 1e-4, 1e-6};
  truth.beta[FittedModel::kHalo] = {5e-7, 1e-7, 2e-7, 4e-5};
  truth.beta[FittedModel::kMigrate] = {3e-8, 2e-7, 5e-5, 0.0};
  truth.beta[FittedModel::kOther] = {1e-4, 2e-5, 3e-5, 1e-8};

  const auto rows = synthetic_rows(truth);
  const FittedModel fitted = fit_model(rows);
  ASSERT_TRUE(fitted.fitted());

  // Predictions must reproduce the generating model on every grid point
  // (individual coefficients may shuffle along near-degenerate directions;
  // the prediction is the contract).
  for (const TuneRow& r : rows) {
    const auto pred = fitted.predict(r.workload, r.config);
    EXPECT_NEAR(pred.total() / r.step_seconds, 1.0, 1e-3)
        << "P=" << r.config.nprocs << " T=" << r.config.nthreads
        << " B=" << r.config.blocks_per_proc << " skin=" << r.config.skin;
    EXPECT_NEAR(pred[FittedModel::kForce] / r.force_s, 1.0, 1e-3);
  }
}

TEST(FitModel, RejectsEmptyRowSet) {
  EXPECT_THROW(fit_model({}), std::invalid_argument);
}

TEST(FitModel, NarrowServingGridStillFits) {
  // A serving-shaped sweep: P = 1, B = 1 fixed, only T varies.  n_r is
  // then constant, collinear with the intercept — the strict fit would
  // reject it; fit_model must prune and still predict the grid.
  FittedModel truth;
  truth.beta[FittedModel::kForce] = {4e-7, 0.0, 0.0, 3e-6};
  truth.beta[FittedModel::kOther] = {1e-5, 2e-5, 0.0, 0.0};
  std::vector<TuneRow> rows;
  for (const int t : {1, 2, 4}) {
    TuneRow r;
    r.workload.n = 2000;
    r.config.nthreads = t;
    r.rebuilds_per_step = 1.0;
    r.force_s = phase_value(truth, FittedModel::kForce, r);
    r.other_s = phase_value(truth, FittedModel::kOther, r);
    r.step_seconds = r.force_s + r.other_s;
    rows.push_back(r);
  }
  const FittedModel fitted = fit_model(rows);
  for (const TuneRow& r : rows) {
    const auto pred = fitted.predict(r.workload, r.config);
    EXPECT_NEAR(pred.total() / r.step_seconds, 1.0, 1e-3)
        << "T=" << r.config.nthreads;
  }
}

// --- tune-file format ------------------------------------------------------

TEST(TuneFile, RoundTrip) {
  std::vector<TuneRow> rows;
  TuneRow r;
  r.workload.scenario = "settled";
  r.workload.D = 2;
  r.workload.n = 1234;
  r.workload.settled_stride = 8;
  r.workload.velocity_scale = 0.25;
  r.config.nprocs = 4;
  r.config.nthreads = 2;
  r.config.blocks_per_proc = 3;
  r.config.skin = 0.3;
  r.config.halo_delta = true;
  r.config.steal = true;
  r.simd_width = 4;
  r.iterations = 16;
  r.step_seconds = 1.25e-3;
  r.force_s = 9.0e-4;
  r.rebuild_s = 1.0e-4;
  r.halo_wire_s = 5.0e-5;
  r.halo_shared_s = 2.5e-5;
  r.halo_wait_s = 4.0e-5;
  r.migrate_s = 1.5e-5;
  r.rebalance_s = 1.0e-5;
  r.other_s = 2.0e-4;
  r.imbalance = 1.17;
  r.rebuilds_per_step = 0.125;
  rows.push_back(r);

  const std::string text = format_tune_rows(rows);
  EXPECT_NE(text.find("# hdem-tune v1"), std::string::npos);
  EXPECT_NE(text.find("# columns:"), std::string::npos);

  const auto back = parse_tune_rows(text);
  ASSERT_EQ(back.size(), 1u);
  const TuneRow& b = back[0];
  EXPECT_EQ(b.workload.scenario, "settled");
  EXPECT_EQ(b.workload.n, 1234u);
  EXPECT_EQ(b.workload.settled_stride, 8u);
  EXPECT_EQ(b.config.nprocs, 4);
  EXPECT_EQ(b.config.nthreads, 2);
  EXPECT_EQ(b.config.blocks_per_proc, 3);
  EXPECT_TRUE(b.config.halo_delta);
  EXPECT_FALSE(b.config.halo_coalesce);
  EXPECT_TRUE(b.config.steal);
  EXPECT_EQ(b.simd_width, 4);
  EXPECT_EQ(b.iterations, 16u);
  EXPECT_NEAR(b.step_seconds, r.step_seconds, 1e-12);
  EXPECT_NEAR(b.force_s, r.force_s, 1e-12);
  EXPECT_NEAR(b.halo_shared_s, r.halo_shared_s, 1e-12);
  EXPECT_NEAR(b.halo_wait_s, r.halo_wait_s, 1e-12);
  EXPECT_NEAR(b.imbalance, r.imbalance, 1e-12);
  EXPECT_NEAR(b.rebuilds_per_step, r.rebuilds_per_step, 1e-12);
}

// A row is reproducible from its own columns: every knob the run set,
// including non-default skin and halo modes, survives the round trip.
TEST(TuneFile, RoundTripKeepsEveryKnob) {
  std::vector<TuneRow> rows(2);
  rows[0].config.skin = 0.3;
  rows[0].config.skin_cap = 0.45;
  rows[0].config.halo_delta = true;
  rows[0].config.overlap = true;
  rows[0].config.rebalance = true;
  rows[1].config.nprocs = 2;
  rows[1].config.nthreads = 3;
  rows[1].config.blocks_per_proc = 4;
  rows[1].config.skin = 0.25;
  rows[1].config.halo_coalesce = true;
  rows[1].config.steal = true;
  rows[1].config.reorder = false;

  const auto back = parse_tune_rows(format_tune_rows(rows));
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TuneConfig& want = rows[i].config;
    const TuneConfig& got = back[i].config;
    EXPECT_EQ(got.nprocs, want.nprocs) << i;
    EXPECT_EQ(got.nthreads, want.nthreads) << i;
    EXPECT_EQ(got.blocks_per_proc, want.blocks_per_proc) << i;
    EXPECT_EQ(got.skin, want.skin) << i;
    EXPECT_EQ(got.skin_cap, want.skin_cap) << i;
    EXPECT_EQ(got.halo_delta, want.halo_delta) << i;
    EXPECT_EQ(got.halo_coalesce, want.halo_coalesce) << i;
    EXPECT_EQ(got.overlap, want.overlap) << i;
    EXPECT_EQ(got.steal, want.steal) << i;
    EXPECT_EQ(got.rebalance, want.rebalance) << i;
    EXPECT_EQ(got.reorder, want.reorder) << i;
  }
}

TEST(TuneFile, ParsesByColumnNameNotPosition) {
  // Reordered + extra columns must parse; values bind by header name.
  const std::string text =
      "# hdem-tune v1\n"
      "# columns: step_s extra T P scenario D n rc velocity stride cluster"
      " B skin skin_cap halo_delta halo_coalesce overlap steal rebalance"
      " reorder simd iters rebuild_rate imbalance force_s rebuild_s"
      " halo_wire_s halo_shared_s halo_wait_s migrate_s rebalance_s"
      " other_s\n"
      "0.5 99 3 2 uniform 2 1000 1.5 0.05 0 1 4 0 -1 0 0 0 0 0 1 1 8 1 1"
      " 0.4 0.05 0.01 0 0.002 0.005 0 0.035\n";
  const auto rows = parse_tune_rows(text);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].step_seconds, 0.5);
  EXPECT_EQ(rows[0].config.nthreads, 3);
  EXPECT_EQ(rows[0].config.nprocs, 2);
  EXPECT_EQ(rows[0].config.blocks_per_proc, 4);
}

TEST(TuneFile, RejectsMalformedInput) {
  // Data before the columns header.
  EXPECT_THROW(parse_tune_rows("1 2 3\n"), std::invalid_argument);
  // Row shorter than the header.
  EXPECT_THROW(parse_tune_rows("# columns: a b c\n1 2\n"),
               std::invalid_argument);
  // Header missing a required column.
  EXPECT_THROW(parse_tune_rows("# columns: scenario D\nuniform 2\n"),
               std::invalid_argument);
}

// --- serving choice --------------------------------------------------------

TEST(ChooseServing, LatencyScalesBatchConserves) {
  // Perfectly thread-scalable force term, no parallel overhead: a latency
  // job should take every thread, a batch job (same predicted CPU-seconds
  // at any T) the smallest team.
  FittedModel model;
  model.beta[FittedModel::kForce] = {1e-6, 0.0, 0.0, 0.0};  // n_r / T
  const TuneWorkload w;  // n = 4000
  const auto latency = choose_serving(model, w, 0.0, true, 4);
  EXPECT_EQ(latency.inner_threads, 4);
  const auto batch = choose_serving(model, w, 0.0, false, 4);
  EXPECT_EQ(batch.inner_threads, 1);
  EXPECT_GT(batch.predicted_step_seconds, latency.predicted_step_seconds);
}

TEST(ChooseServing, FlatScalingKeepsOneThread) {
  // A per-thread overhead term with no 1/T win: even the latency class
  // must keep T = 1 (the oversubscribed-CI-host shape).
  FittedModel model;
  model.beta[FittedModel::kForce] = {0.0, 1e-6, 0.0, 0.0};   // n_r, T-free
  model.beta[FittedModel::kOther] = {0.0, 5e-4, 0.0, 0.0};   // (T-1) cost
  const TuneWorkload w;
  EXPECT_EQ(choose_serving(model, w, 0.0, true, 4).inner_threads, 1);
  EXPECT_EQ(choose_serving(model, w, 0.0, false, 4).inner_threads, 1);
}

TEST(ChooseServing, QuantumTargetsFixedWorkAndClamps) {
  FittedModel model;
  model.beta[FittedModel::kForce] = {0.0, 1e-6, 0.0, 0.0};  // step = 1e-6 n
  TuneWorkload w;
  w.n = 400;  // step 4e-4 -> 0.004/4e-4 = 10 steps per quantum
  EXPECT_EQ(choose_serving(model, w, 0.0, false, 1).quantum_steps, 10u);
  w.n = 4;  // tiny step -> clamp high
  EXPECT_EQ(choose_serving(model, w, 0.0, false, 1).quantum_steps, 256u);
  w.n = 4'000'000;  // huge step -> clamp low
  EXPECT_EQ(choose_serving(model, w, 0.0, false, 1).quantum_steps, 8u);
}

}  // namespace
}  // namespace hdem::perf
