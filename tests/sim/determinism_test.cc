// Determinism regression suite: the whole pipeline is seeded, so RunProtocol
// called twice with the same (config, workload, seed) must produce
// bit-identical results — for every ProtocolKind, with and without a thread
// pool. Any nondeterminism (iteration-order dependence, shared-state races,
// time-derived seeding) breaks reproducibility of the paper's experiments
// and must fail here.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/threadpool.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {
namespace {

TEST(DeterminismTest, CoversEveryProtocolKind) {
  // kNonPrivate is the last enumerator; a kind appended after it changes
  // this cast and forces the shared kAllProtocolKinds array (runner.h) to
  // be extended — which its static_assert also enforces at compile time.
  EXPECT_EQ(static_cast<int64_t>(ProtocolKind::kNonPrivate) + 1,
            static_cast<int64_t>(AllProtocolKinds().size()));
}

core::ProtocolConfig TestConfig() {
  core::ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 2;
  config.epsilon = 1.0;
  return config;
}

Workload TestWorkload(uint64_t seed) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kUniformChanges;
  config.num_users = 600;
  config.num_periods = 32;
  config.max_changes = 2;
  return Workload::Generate(config, seed).ValueOrDie();
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b,
                        ProtocolKind kind) {
  // operator== on vector<double> is bitwise for finite values; combined with
  // the exact metric comparisons below this is the "bit-identical" bar.
  EXPECT_EQ(a.estimates, b.estimates) << ProtocolKindToString(kind);
  EXPECT_EQ(a.reports_submitted, b.reports_submitted)
      << ProtocolKindToString(kind);
  EXPECT_EQ(a.metrics.max_abs, b.metrics.max_abs) << ProtocolKindToString(kind);
  EXPECT_EQ(a.metrics.mean_abs, b.metrics.mean_abs)
      << ProtocolKindToString(kind);
  EXPECT_EQ(a.metrics.rmse, b.metrics.rmse) << ProtocolKindToString(kind);
  EXPECT_EQ(a.metrics.argmax_time, b.metrics.argmax_time)
      << ProtocolKindToString(kind);
}

class DeterminismProtocolTest : public ::testing::TestWithParam<ProtocolKind> {
};

TEST_P(DeterminismProtocolTest, RepeatedSingleThreadedRunsAreBitIdentical) {
  const Workload workload = TestWorkload(21);
  const RunResult a =
      RunProtocol(GetParam(), TestConfig(), workload, 22).ValueOrDie();
  const RunResult b =
      RunProtocol(GetParam(), TestConfig(), workload, 22).ValueOrDie();
  ExpectBitIdentical(a, b, GetParam());
}

TEST_P(DeterminismProtocolTest, RepeatedPooledRunsAreBitIdentical) {
  const Workload workload = TestWorkload(23);
  ThreadPool pool_a(4);
  ThreadPool pool_b(3);  // different shard count must not matter either
  const RunResult a =
      RunProtocol(GetParam(), TestConfig(), workload, 24, &pool_a)
          .ValueOrDie();
  const RunResult b =
      RunProtocol(GetParam(), TestConfig(), workload, 24, &pool_b)
          .ValueOrDie();
  ExpectBitIdentical(a, b, GetParam());
}

TEST_P(DeterminismProtocolTest, PooledMatchesSingleThreaded) {
  const Workload workload = TestWorkload(25);
  ThreadPool pool(4);
  const RunResult pooled =
      RunProtocol(GetParam(), TestConfig(), workload, 26, &pool).ValueOrDie();
  const RunResult single =
      RunProtocol(GetParam(), TestConfig(), workload, 26).ValueOrDie();
  ExpectBitIdentical(pooled, single, GetParam());
}

TEST_P(DeterminismProtocolTest, ShardCountDoesNotAffectEstimates) {
  // The ShardedAggregator's shard count is a pure throughput knob: shards
  // hold integer report sums, so any partition of clients merges to the
  // same totals and hence bit-identical estimates.
  const Workload workload = TestWorkload(41);
  ThreadPool pool(4);
  const RunResult one =
      RunProtocol(GetParam(), TestConfig(), workload, 42, &pool,
                  /*num_shards=*/1)
          .ValueOrDie();
  const RunResult seven =
      RunProtocol(GetParam(), TestConfig(), workload, 42, &pool,
                  /*num_shards=*/7)
          .ValueOrDie();
  ExpectBitIdentical(one, seven, GetParam());
}

TEST_P(DeterminismProtocolTest, DifferentSeedsDisagreeForPrivateProtocols) {
  // Guards against a seed being silently ignored: every protocol that adds
  // noise must actually consume it.
  if (GetParam() == ProtocolKind::kNonPrivate) {
    GTEST_SKIP() << "non-private pipeline is exact for any seed";
  }
  const Workload workload = TestWorkload(27);
  const RunResult a =
      RunProtocol(GetParam(), TestConfig(), workload, 28).ValueOrDie();
  const RunResult b =
      RunProtocol(GetParam(), TestConfig(), workload, 29).ValueOrDie();
  EXPECT_NE(a.estimates, b.estimates) << ProtocolKindToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeterminismProtocolTest,
    ::testing::ValuesIn(AllProtocolKinds()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindToString(info.param);
    });

// ---------------------------------------------------------------------------
// Sketch-store determinism: the count-sketch backend hashes with a pure
// function of the StoreConfig, and its cells commute under addition, so
// every guarantee above must survive switching the store — same-seed runs,
// shard counts, and mid-run checkpoint/restore all bit-identical.

core::ProtocolConfig SketchConfig() {
  core::ProtocolConfig config = TestConfig();
  // R*W = 24 < d = 32: the leaf level is genuinely hash-bucketed.
  config.store = core::StoreConfig::Sketch(3, 8, 7);
  return config;
}

TEST(SketchDeterminismTest, RepeatedRunsAreBitIdentical) {
  const Workload workload = TestWorkload(51);
  const RunResult a =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 52)
          .ValueOrDie();
  const RunResult b =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 52)
          .ValueOrDie();
  ExpectBitIdentical(a, b, ProtocolKind::kFutureRand);
}

TEST(SketchDeterminismTest, PooledMatchesSingleThreaded) {
  const Workload workload = TestWorkload(53);
  ThreadPool pool(4);
  const RunResult pooled =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 54,
                  &pool)
          .ValueOrDie();
  const RunResult single =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 54)
          .ValueOrDie();
  ExpectBitIdentical(pooled, single, ProtocolKind::kFutureRand);
}

TEST(SketchDeterminismTest, ShardCountDoesNotAffectEstimates) {
  const Workload workload = TestWorkload(55);
  ThreadPool pool(4);
  const RunResult one =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 56,
                  &pool, /*num_shards=*/1)
          .ValueOrDie();
  const RunResult seven =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 56,
                  &pool, /*num_shards=*/7)
          .ValueOrDie();
  ExpectBitIdentical(one, seven, ProtocolKind::kFutureRand);
}

TEST(SketchDeterminismTest, CheckpointRestoreCyclesAreInvisible) {
  // Serializing every few periods through the kind-8 codec and restoring
  // into a cold aggregator must not perturb a single bit of the output.
  const Workload workload = TestWorkload(57);
  FaultOptions faults;
  faults.checkpoint_every = 8;
  const RunResult checkpointed =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 58,
                  nullptr, /*num_shards=*/3, faults)
          .ValueOrDie();
  const RunResult plain =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 58,
                  nullptr, /*num_shards=*/3)
          .ValueOrDie();
  ExpectBitIdentical(checkpointed, plain, ProtocolKind::kFutureRand);
}

TEST(SketchDeterminismTest, SketchDiffersFromDenseInTheSketchedRegime) {
  // The inverse guard: with a genuinely sketched level the two backends
  // must NOT silently coincide, or the sketch paths are not being hit.
  const Workload workload = TestWorkload(59);
  const RunResult dense =
      RunProtocol(ProtocolKind::kFutureRand, TestConfig(), workload, 60)
          .ValueOrDie();
  const RunResult sketched =
      RunProtocol(ProtocolKind::kFutureRand, SketchConfig(), workload, 60)
          .ValueOrDie();
  EXPECT_NE(dense.estimates, sketched.estimates);
}

// ---------------------------------------------------------------------------
// Longitudinal fleet-state determinism: the memoized randomizer state is
// the only client-side state the FRW kind-9 codec persists, so a capture +
// cold-restore cycle mid-run must be invisible — the restored fleet's
// remaining ticks bit-identical to the uninterrupted one's. (The protocol
// kinds themselves are already covered by the parameterized suite above,
// which runs over every entry of kAllProtocolKinds.)

class LongitudinalDeterminismTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LongitudinalDeterminismTest, FleetStateRestoreCycleIsInvisible) {
  core::ProtocolConfig config = TestConfig();
  config.randomizer = GetParam() == ProtocolKind::kLGrr
                          ? rand::RandomizerKind::kLGrr
                      : GetParam() == ProtocolKind::kLOlh
                          ? rand::RandomizerKind::kLOlh
                          : rand::RandomizerKind::kLoloha;
  const Workload workload = TestWorkload(61);
  const int64_t n = workload.num_users();
  auto plain = core::ClientFleet::Create(config, n, 62).ValueOrDie();
  auto cycled = core::ClientFleet::Create(config, n, 62).ValueOrDie();
  std::vector<int8_t> states(static_cast<size_t>(n));
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < n; ++u) {
      states[static_cast<size_t>(u)] = workload.trace(u).StateAt(t);
    }
    EXPECT_EQ(
        core::EncodeReportBatch(plain.AdvanceTick(states).ValueOrDie())
            .ValueOrDie(),
        core::EncodeReportBatch(cycled.AdvanceTick(states).ValueOrDie())
            .ValueOrDie())
        << ProtocolKindToString(GetParam()) << " tick " << t;
    if (t % 8 == 0) {
      // Capture and restore into a cold fleet with a different base seed:
      // the blob must carry everything the remaining ticks depend on.
      const std::string blob =
          cycled.EncodeLongitudinalState().ValueOrDie();
      cycled = core::ClientFleet::Create(config, n, 63 + t).ValueOrDie();
      ASSERT_TRUE(cycled.RestoreLongitudinalState(blob).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LongitudinalProtocols, LongitudinalDeterminismTest,
    ::testing::Values(ProtocolKind::kLGrr, ProtocolKind::kLOlh,
                      ProtocolKind::kLoloha),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindToString(info.param);
    });

TEST(DeterminismTest, RunRepeatedIsDeterministicForSameBaseSeed) {
  WorkloadConfig workload_config;
  workload_config.kind = WorkloadKind::kUniformChanges;
  workload_config.num_users = 300;
  workload_config.num_periods = 16;
  workload_config.max_changes = 2;
  core::ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 2;
  config.epsilon = 1.0;
  const RepeatedRunStats a =
      RunRepeated(ProtocolKind::kFutureRand, config, workload_config, 3, 31)
          .ValueOrDie();
  const RepeatedRunStats b =
      RunRepeated(ProtocolKind::kFutureRand, config, workload_config, 3, 31)
          .ValueOrDie();
  EXPECT_EQ(a.max_abs_error.mean(), b.max_abs_error.mean());
  EXPECT_EQ(a.mean_abs_error.mean(), b.mean_abs_error.mean());
  EXPECT_EQ(a.rmse.mean(), b.rmse.mean());
}

}  // namespace
}  // namespace futurerand::sim
