// OLOLOHA memoization-correctness suite. The kind-specific invariant is the
// domain-reduction trick: ONE permanent hash seed, drawn at creation, is
// shared by both true values for the client's whole lifetime — so the suite
// pins the shared-seed lifecycle alongside the common longitudinal contract
// (memo sampled once, fresh second round, bit-identical state round-trips,
// FRW kind-9 fleet snapshots).

#include "futurerand/randomizer/longitudinal.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/core/config.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"

namespace futurerand::rand {
namespace {

constexpr RandomizerKind kKind = RandomizerKind::kLoloha;

std::unique_ptr<LongitudinalRandomizer> Make(int64_t length, double eps,
                                             double alpha, uint64_t seed) {
  return LongitudinalRandomizer::Create(kKind, length, eps, alpha, seed)
      .ValueOrDie();
}

TEST(LolohaTest, PermanentSeedDrawnAtCreationAndShared) {
  auto randomizer = Make(32, 1.0, 0.5, 7);
  const auto fresh = randomizer->ExportState();
  EXPECT_NE(fresh.hash_seed[0], 0u);
  EXPECT_EQ(fresh.hash_seed[0], fresh.hash_seed[1]);
  EXPECT_EQ(fresh.memo[0], -1);
  EXPECT_EQ(fresh.memo[1], -1);

  // Reports memoize values but never touch the shared seed.
  (void)randomizer->Randomize(int8_t{1});
  (void)randomizer->Randomize(int8_t{-1});
  for (int64_t t = 0; t < 30; ++t) {
    (void)randomizer->Randomize(t % 2 == 0 ? int8_t{1} : int8_t{-1});
    const auto current = randomizer->ExportState();
    EXPECT_EQ(current.hash_seed[0], fresh.hash_seed[0]);
    EXPECT_EQ(current.hash_seed[1], fresh.hash_seed[0]);
  }

  // Different creation seeds give different permanent seeds (the hash
  // family member is genuinely per-client).
  EXPECT_NE(Make(32, 1.0, 0.5, 8)->ExportState().hash_seed[0],
            fresh.hash_seed[0]);
}

TEST(LolohaTest, SpecUsesOptimalGAndAlphaParameterization) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  EXPECT_EQ(spec.g, OptimalLongitudinalG(1.0, 0.5));
  EXPECT_GE(spec.g, 2);
  EXPECT_NEAR(std::log(spec.p1 / spec.q1), spec.eps_perm, 1e-12);
  const auto g = static_cast<double>(spec.g);
  const double stay = spec.p1 * spec.p2 + (g - 1.0) * spec.q1 * spec.q2;
  const double move = spec.p1 * spec.q2 + spec.q1 * spec.p2 +
                      (g - 2.0) * spec.q1 * spec.q2;
  EXPECT_NEAR(std::log(stay / move), spec.eps_1, 1e-9);
  // The alpha knob must genuinely move the parameterization.
  const LongitudinalSpec lower_alpha =
      MakeLongitudinalSpec(kKind, 1.0, 0.3).ValueOrDie();
  EXPECT_NE(lower_alpha.p2, spec.p2);
}

TEST(LolohaTest, FirstRoundSampledOnceAndReusedAllTicks) {
  const int64_t kTicks = 40;
  auto randomizer = Make(kTicks, 1.0, 0.5, 11);
  (void)randomizer->Randomize(int8_t{1});
  const auto after_first = randomizer->ExportState();
  ASSERT_GE(after_first.memo[1], 0);
  EXPECT_EQ(after_first.memo[0], -1);
  for (int64_t t = 1; t < kTicks; ++t) {
    (void)randomizer->Randomize(int8_t{0});
    EXPECT_EQ(randomizer->ExportState().memo[1], after_first.memo[1])
        << "memo resampled at tick " << t;
  }
}

TEST(LolohaTest, SecondRoundDrawsFreshNoiseOverTheFrozenMemo) {
  auto randomizer = Make(400, 1.0, 0.5, 13);
  (void)randomizer->Randomize(int8_t{1});
  bool seen_plus = false;
  bool seen_minus = false;
  for (int64_t t = 1; t < 400; ++t) {
    const int8_t report = randomizer->Randomize(int8_t{0});
    seen_plus = seen_plus || report == 1;
    seen_minus = seen_minus || report == -1;
  }
  EXPECT_TRUE(seen_plus && seen_minus);
}

TEST(LolohaTest, EmpiricalReportMeansMatchU1AndU0) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 1.0, 0.5).ValueOrDie();
  const int64_t kClients = 20000;
  double sum1 = 0.0;
  double sum0 = 0.0;
  for (int64_t c = 0; c < kClients; ++c) {
    sum1 += Make(1, 1.0, 0.5, 1000 + static_cast<uint64_t>(c))
                ->Randomize(int8_t{1});
    sum0 += Make(1, 1.0, 0.5, 900000 + static_cast<uint64_t>(c))
                ->Randomize(int8_t{0});
  }
  EXPECT_NEAR(sum1 / kClients, spec.u1, 0.05);
  EXPECT_NEAR(sum0 / kClients, spec.u0, 0.05);
}

TEST(LolohaTest, ImportStateRoundTripsBitIdentically) {
  auto original = Make(64, 1.0, 0.5, 21);
  for (const int8_t derivative : {1, 0, -1, 0, 1, 0, 0, 0, -1, 1}) {
    (void)original->Randomize(derivative);
  }
  auto restored = Make(64, 1.0, 0.5, 123456);
  ASSERT_TRUE(restored->ImportState(original->ExportState()).ok());
  for (int64_t t = 0; t < 40; ++t) {
    // The warm-up left both twins at state 1, so dip to 0 first.
    const auto derivative = static_cast<int8_t>(t % 10 == 3   ? -1
                                                : t % 10 == 7 ? 1
                                                              : 0);
    EXPECT_EQ(restored->Randomize(derivative),
              original->Randomize(derivative))
        << "divergence at tick " << t;
  }
}

TEST(LolohaTest, ImportRejectsMismatchedSeeds) {
  auto randomizer = Make(16, 1.0, 0.5, 31);
  auto state = randomizer->ExportState();
  state.hash_seed[1] = state.hash_seed[0] + 1;
  EXPECT_FALSE(randomizer->ImportState(state).ok());
}

// The shared-seed invariant must hold through the FRW kind-9 fleet codec
// too: a restored fleet's clients tick bit-identically, seed included.
TEST(LolohaFleetSnapshotTest, RestoreTicksBitIdenticallyToTheCaptured) {
  core::ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 4;
  config.epsilon = 1.0;
  config.longitudinal_alpha = 0.5;
  config.randomizer = kKind;
  const int64_t n = 40;
  auto fleet = core::ClientFleet::Create(config, n, 61).ValueOrDie();
  std::vector<int8_t> states(static_cast<size_t>(n));
  auto fill = [&](int64_t t) {
    for (int64_t u = 0; u < n; ++u) {
      states[static_cast<size_t>(u)] = static_cast<int8_t>((u + t / 3) % 2);
    }
  };
  for (int64_t t = 1; t <= 10; ++t) {
    fill(t);
    ASSERT_TRUE(fleet.AdvanceTick(states).ok());
  }
  const std::string blob = fleet.EncodeLongitudinalState().ValueOrDie();
  auto restored = core::ClientFleet::Create(config, n, 424242).ValueOrDie();
  ASSERT_TRUE(restored.RestoreLongitudinalState(blob).ok());
  for (int64_t t = 11; t <= 32; ++t) {
    fill(t);
    EXPECT_EQ(
        core::EncodeReportBatch(restored.AdvanceTick(states).ValueOrDie())
            .ValueOrDie(),
        core::EncodeReportBatch(fleet.AdvanceTick(states).ValueOrDie())
            .ValueOrDie())
        << "tick " << t;
  }
}

}  // namespace
}  // namespace futurerand::rand
