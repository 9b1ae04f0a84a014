// Statistical acceptance gate: across an (eps, d, n) grid with fixed
// seeds, FutureRand's measured max error from full RunProtocol passes must
// stay within a constant factor of the closed-form analysis/theory bounds.
// A utility regression (broken debias scale, mis-seeded randomizer, dedup
// double-count, checkpoint corruption) fails CI here instead of only
// shifting bench JSON.

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "futurerand/analysis/theory.h"
#include "futurerand/common/macros.h"
#include "futurerand/core/sketch_store.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/trace.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {
namespace {

core::ProtocolConfig MakeConfig(int64_t d, int64_t k, double eps) {
  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

WorkloadConfig MakeWorkload(int64_t n, int64_t d, int64_t k) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kUniformChanges;
  config.num_users = n;
  config.num_periods = d;
  config.max_changes = k;
  return config;
}

using GridParam = std::tuple<double, int64_t, int64_t>;  // (eps, d, n)

// The exact high-probability bound for the deployed randomizer
// (Lemma 4.6 with the exact c_gap), at beta small enough that a seeded
// 2-repetition run failing it indicates a code regression, not bad luck.
double TheoryBound(double eps, int64_t d, int64_t n, int64_t k) {
  const double c_gap =
      rand::ExactCGap(rand::RandomizerKind::kFutureRand, k, eps).ValueOrDie();
  analysis::BoundParams params;
  params.n = static_cast<double>(n);
  params.d = static_cast<double>(d);
  params.k = static_cast<double>(k);
  params.epsilon = eps;
  params.beta = 1e-9;
  return analysis::HoeffdingProtocolBound(params, c_gap);
}

class StatisticalAcceptanceTest
    : public ::testing::TestWithParam<GridParam> {};

TEST_P(StatisticalAcceptanceTest, MaxErrorWithinConstantFactorOfTheory) {
  const auto [eps, d, n] = GetParam();
  const int64_t k = 4;
  const RepeatedRunStats stats =
      RunRepeated(ProtocolKind::kFutureRand, MakeConfig(d, k, eps),
                  MakeWorkload(n, d, k), 2, 20260727)
          .ValueOrDie();
  const double bound = TheoryBound(eps, d, n, k);
  // Upper gate: the bound already holds with probability 1 - 1e-9 per run,
  // so any measured excursion past it is a regression.
  EXPECT_LE(stats.max_abs_error.max(), bound)
      << "eps=" << eps << " d=" << d << " n=" << n;
  // Degeneracy gate: an all-zero or near-exact estimate series means the
  // noise machinery is off (a privacy bug, not a utility win). The
  // expected error is a constant fraction of the bound; 1/300 of it is far
  // below any healthy run.
  EXPECT_GE(stats.max_abs_error.mean(), bound / 300.0)
      << "suspiciously accurate: is the randomizer actually running?";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StatisticalAcceptanceTest,
    ::testing::Values(GridParam{1.0, 32, 1000}, GridParam{1.0, 64, 3000},
                      GridParam{1.0, 128, 2000}, GridParam{0.5, 64, 2000},
                      GridParam{0.25, 32, 4000}, GridParam{0.5, 128, 1000},
                      GridParam{1.0, 64, 10000}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = "eps";
      name += std::to_string(
          static_cast<int>(std::get<0>(info.param) * 100));
      name += "_d";
      name += std::to_string(std::get<1>(info.param));
      name += "_n";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Sketch-store acceptance: the count-sketch backend trades memory for a
// bounded additive error on top of the LDP bound. The gate mirrors the
// analysis: a prefix query touches at most one node per level, so the
// sketch adds at most scale_h * NodeErrorBound per sketched level.

// Conservative additive term: every client at every sketched level (the
// true per-level population is smaller), level_reports = clients * reports
// per client. Loose, but it turns a broken sign/bucket hash — whose error
// is of order scale * level_reports — into a deterministic failure.
double SketchAdditiveBound(int64_t d, int64_t n, int64_t k, double eps,
                           const core::StoreConfig& store) {
  const double c_gap =
      rand::ExactCGap(rand::RandomizerKind::kFutureRand, k, eps).ValueOrDie();
  const double scale = (1.0 + std::log2(static_cast<double>(d))) / c_gap;
  const int64_t slab =
      static_cast<int64_t>(store.sketch_rows) * store.sketch_width;
  double total = 0.0;
  for (int64_t intervals = d; intervals >= 1; intervals /= 2) {
    if (intervals > slab) {
      total += scale * core::SketchStore::NodeErrorBound(
                           n * intervals, store.sketch_width);
    }
  }
  return total;
}

TEST(SketchStatisticalTest, MaxErrorWithinLdpBoundPlusSketchTerm) {
  const int64_t d = 256;
  const int64_t k = 4;
  const int64_t n = 1000;
  const double eps = 1.0;
  core::ProtocolConfig config = MakeConfig(d, k, eps);
  config.store = core::StoreConfig::Sketch(3, 16, 7);  // slab 48 < d
  const RepeatedRunStats stats =
      RunRepeated(ProtocolKind::kFutureRand, config, MakeWorkload(n, d, k),
                  2, 20260807)
          .ValueOrDie();
  EXPECT_LE(stats.max_abs_error.max(),
            TheoryBound(eps, d, n, k) +
                SketchAdditiveBound(d, n, k, eps, config.store));
  // Degeneracy gate, as for dense: all-zero estimates are a bug.
  EXPECT_GE(stats.max_abs_error.mean(),
            TheoryBound(eps, d, n, k) / 300.0);
}

TEST(SketchStatisticalTest, WideSketchAgreesWithDenseBitForBit) {
  // W >= d: no level has more intervals than one row holds, so the sketch
  // stores every counter exactly and the two backends must produce
  // bit-identical estimates report-for-report.
  const int64_t d = 64;
  const int64_t k = 4;
  const int64_t n = 1500;
  const double eps = 1.0;
  const WorkloadConfig workload_config = MakeWorkload(n, d, k);
  const Workload workload =
      Workload::Generate(workload_config, 77).ValueOrDie();
  core::ProtocolConfig dense_config = MakeConfig(d, k, eps);
  core::ProtocolConfig sketch_config = MakeConfig(d, k, eps);
  sketch_config.store = core::StoreConfig::Sketch(2, d, 7);
  const RunResult dense =
      RunProtocol(ProtocolKind::kFutureRand, dense_config, workload, 78)
          .ValueOrDie();
  const RunResult sketched =
      RunProtocol(ProtocolKind::kFutureRand, sketch_config, workload, 78)
          .ValueOrDie();
  EXPECT_EQ(dense.estimates, sketched.estimates);
  EXPECT_EQ(dense.metrics.max_abs, sketched.metrics.max_abs);
  EXPECT_EQ(dense.reports_submitted, sketched.reports_submitted);
}

// ---------------------------------------------------------------------------
// Longitudinal protocol gate: the Arcolezi-line randomizers report every
// tick and are debiased by the direct estimator, so their closed-form
// Hoeffding bound (LongitudinalDirectBound with the kind's exact u1-u0
// gap) must hold on the same style of seeded grid, with the same
// too-accurate degeneracy check.

double LongitudinalBound(ProtocolKind kind, double eps, int64_t d, int64_t n,
                         int64_t k) {
  const double gap =
      rand::ExactCGap(RandomizerForProtocol(kind).ValueOrDie(), k, eps)
          .ValueOrDie();
  analysis::BoundParams params;
  params.n = static_cast<double>(n);
  params.d = static_cast<double>(d);
  params.k = static_cast<double>(k);
  params.epsilon = eps;
  params.beta = 1e-9;
  return analysis::LongitudinalDirectBound(params, gap);
}

using LongitudinalGridParam = std::tuple<ProtocolKind, GridParam>;

class LongitudinalStatisticalTest
    : public ::testing::TestWithParam<LongitudinalGridParam> {};

TEST_P(LongitudinalStatisticalTest, MaxErrorWithinClosedFormBound) {
  const auto [kind, grid] = GetParam();
  const auto [eps, d, n] = grid;
  const int64_t k = 4;
  const RepeatedRunStats stats =
      RunRepeated(kind, MakeConfig(d, k, eps), MakeWorkload(n, d, k), 2,
                  20260808)
          .ValueOrDie();
  const double bound = LongitudinalBound(kind, eps, d, n, k);
  EXPECT_LE(stats.max_abs_error.max(), bound)
      << ProtocolKindToString(kind) << " eps=" << eps << " d=" << d
      << " n=" << n;
  // Degeneracy gate, as for the dyadic protocols: near-exact estimates
  // mean the memoized noise machinery is not actually running.
  EXPECT_GE(stats.max_abs_error.mean(), bound / 300.0)
      << ProtocolKindToString(kind)
      << ": suspiciously accurate: is the randomizer actually running?";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LongitudinalStatisticalTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kLGrr,
                                         ProtocolKind::kLOlh,
                                         ProtocolKind::kLoloha),
                       ::testing::Values(GridParam{1.0, 32, 1000},
                                         GridParam{0.5, 64, 2000},
                                         GridParam{0.25, 64, 4000})),
    [](const ::testing::TestParamInfo<LongitudinalGridParam>& info) {
      // No structured bindings here: a bare `[kind, grid]` would split the
      // INSTANTIATE macro's arguments at the comma.
      const GridParam& grid = std::get<1>(info.param);
      std::string name = ProtocolKindToString(std::get<0>(info.param));
      name += "_eps";
      name += std::to_string(static_cast<int>(std::get<0>(grid) * 100));
      name += "_d";
      name += std::to_string(std::get<1>(grid));
      name += "_n";
      name += std::to_string(std::get<2>(grid));
      return name;
    });

TEST(LongitudinalStatisticalTest, BoundHoldsUnderAtLeastOnceDelivery) {
  // The longitudinal pipelines ride the same fault-tolerant transport: the
  // closed-form bound must survive duplication and reordering under
  // idempotent dedup with periodic FRW checkpoint/restore cycles.
  const int64_t d = 64;
  const int64_t k = 4;
  const int64_t n = 2000;
  const double eps = 1.0;
  FaultOptions faults;
  faults.channel.duplicate_rate = 0.3;
  faults.channel.reorder_rate = 0.5;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.checkpoint_every = 16;
  const RepeatedRunStats stats =
      RunRepeated(ProtocolKind::kLGrr, MakeConfig(d, k, eps),
                  MakeWorkload(n, d, k), 2, 911, nullptr, 0, faults)
          .ValueOrDie();
  const double bound = LongitudinalBound(ProtocolKind::kLGrr, eps, d, n, k);
  EXPECT_LE(stats.max_abs_error.max(), bound);
  EXPECT_GE(stats.max_abs_error.mean(), bound / 300.0);
}

// ---------------------------------------------------------------------------
// Non-stationary grid: the paper's bounds are stated for ANY change process
// within the budget k, so the same gates must hold verbatim when the
// population churns, drifts, shocks, follows Zipf traffic, or replays a
// recorded series — for the dyadic pipeline and a memoized longitudinal
// one. Each regime also runs an at-least-once fault flavor (duplication +
// reordering under idempotent dedup with periodic checkpoint/restore; for
// churn that flavor additionally replays mid-stream joiner registrations).

WorkloadConfig NonStationaryWorkload(WorkloadKind kind, int64_t n, int64_t d,
                                     int64_t k) {
  WorkloadConfig config;
  config.kind = kind;
  config.num_users = n;
  config.num_periods = d;
  config.max_changes = k;
  switch (kind) {
    case WorkloadKind::kChurn:
      config.churn_join_fraction = 0.5;
      config.churn_leave_fraction = 0.5;
      break;
    case WorkloadKind::kDrift:
      config.drift_ramp = 16.0;
      break;
    case WorkloadKind::kShock:
      config.shock_fraction = 0.4;  // time/width keep their d/2, d/16 defaults
      break;
    case WorkloadKind::kZipf:
      config.zipf_items = 32;
      config.zipf_exponent = 1.5;
      break;
    default:
      break;  // kReplay: the caller fills replay_path
  }
  return config;
}

// Records a shock run's CSV once (exact non-private estimates, change
// budget 2) so the replay regime decomposes a genuinely non-stationary
// series. The low recording budget leaves the greedy decomposition slack
// to fit the replayed population back under the gate's budget k = 4.
const std::string& RecordedShockCsv(int64_t n, int64_t d) {
  static const std::string path = [&] {
    const std::string csv = ::testing::TempDir() + "/statistical_replay.csv";
    const Workload workload =
        Workload::Generate(NonStationaryWorkload(WorkloadKind::kShock, n, d,
                                                 /*k=*/2),
                           20260801)
            .ValueOrDie();
    const RunResult result =
        RunProtocol(ProtocolKind::kNonPrivate, MakeConfig(d, 2, 1.0),
                    workload, 20260802)
            .ValueOrDie();
    FR_CHECK(WriteRunCsv(csv, result, workload).ok());
    return csv;
  }();
  return path;
}

double BoundFor(ProtocolKind kind, double eps, int64_t d, int64_t n,
                int64_t k) {
  return kind == ProtocolKind::kFutureRand
             ? TheoryBound(eps, d, n, k)
             : LongitudinalBound(kind, eps, d, n, k);
}

using NonStationaryParam = std::tuple<ProtocolKind, WorkloadKind>;

class NonStationaryStatisticalTest
    : public ::testing::TestWithParam<NonStationaryParam> {};

TEST_P(NonStationaryStatisticalTest, BoundAndDegeneracyGatesHold) {
  const auto [protocol, regime] = GetParam();
  const double eps = 1.0;
  const int64_t d = 64;
  const int64_t n = 2000;
  const int64_t k = 4;
  WorkloadConfig workload_config = NonStationaryWorkload(regime, n, d, k);
  if (regime == WorkloadKind::kReplay) {
    workload_config.replay_path = RecordedShockCsv(n, d);
  }
  const double bound = BoundFor(protocol, eps, d, n, k);
  const RepeatedRunStats stats =
      RunRepeated(protocol, MakeConfig(d, k, eps), workload_config, 2,
                  20260803)
          .ValueOrDie();
  EXPECT_LE(stats.max_abs_error.max(), bound)
      << ProtocolKindToString(protocol) << " over "
      << WorkloadKindToString(regime);
  EXPECT_GE(stats.max_abs_error.mean(), bound / 300.0)
      << ProtocolKindToString(protocol) << " over "
      << WorkloadKindToString(regime)
      << ": suspiciously accurate: is the randomizer actually running?";
}

TEST_P(NonStationaryStatisticalTest, BoundHoldsUnderAtLeastOnceDelivery) {
  const auto [protocol, regime] = GetParam();
  const double eps = 1.0;
  const int64_t d = 64;
  const int64_t n = 2000;
  const int64_t k = 4;
  WorkloadConfig workload_config = NonStationaryWorkload(regime, n, d, k);
  if (regime == WorkloadKind::kReplay) {
    workload_config.replay_path = RecordedShockCsv(n, d);
  }
  FaultOptions faults;
  faults.channel.duplicate_rate = 0.3;
  faults.channel.reorder_rate = 0.5;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.checkpoint_every = 16;
  const double bound = BoundFor(protocol, eps, d, n, k);
  const RepeatedRunStats stats =
      RunRepeated(protocol, MakeConfig(d, k, eps), workload_config, 2,
                  20260804, nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_LE(stats.max_abs_error.max(), bound)
      << ProtocolKindToString(protocol) << " over "
      << WorkloadKindToString(regime) << " (at-least-once)";
  EXPECT_GE(stats.max_abs_error.mean(), bound / 300.0)
      << ProtocolKindToString(protocol) << " over "
      << WorkloadKindToString(regime) << " (at-least-once)";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NonStationaryStatisticalTest,
    ::testing::Combine(::testing::Values(ProtocolKind::kFutureRand,
                                         ProtocolKind::kLGrr),
                       ::testing::Values(WorkloadKind::kChurn,
                                         WorkloadKind::kDrift,
                                         WorkloadKind::kShock,
                                         WorkloadKind::kZipf,
                                         WorkloadKind::kReplay)),
    [](const ::testing::TestParamInfo<NonStationaryParam>& info) {
      std::string name = ProtocolKindToString(std::get<0>(info.param));
      name += "_";
      name += WorkloadKindToString(std::get<1>(info.param));
      return name;
    });

TEST(StatisticalAcceptanceTest, BoundHoldsUnderAtLeastOnceDelivery) {
  // The fault-tolerant path is part of the product: duplication plus
  // reordering under idempotent dedup (and periodic checkpoint/restore)
  // must meet the same statistical gate as the ideal transport.
  const int64_t d = 64;
  const int64_t k = 4;
  const int64_t n = 2000;
  const double eps = 1.0;
  FaultOptions faults;
  faults.channel.duplicate_rate = 0.3;
  faults.channel.reorder_rate = 0.5;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.checkpoint_every = 16;
  const RepeatedRunStats stats =
      RunRepeated(ProtocolKind::kFutureRand, MakeConfig(d, k, eps),
                  MakeWorkload(n, d, k), 2, 909, nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_LE(stats.max_abs_error.max(), TheoryBound(eps, d, n, k));
}

}  // namespace
}  // namespace futurerand::sim
