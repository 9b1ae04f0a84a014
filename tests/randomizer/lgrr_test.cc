// L-GRR memoization-correctness suite: the permanent first round is sampled
// exactly once per true value and reused for every subsequent report, the
// derived second round spends exactly the eps_1 = alpha * eps_perm budget,
// and the memoized state round-trips bit-identically through ImportState
// and the FRW kind-9 fleet snapshot (EncodeLongitudinalState).

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

constexpr RandomizerKind kKind = RandomizerKind::kLGrr;

std::unique_ptr<LongitudinalRandomizer> Make(int64_t length, double eps,
                                             double alpha, uint64_t seed) {
  return LongitudinalRandomizer::Create(kKind, length, eps, alpha, seed)
      .ValueOrDie();
}

TEST(LGrrTest, RejectsInvalidParameters) {
  EXPECT_FALSE(LongitudinalRandomizer::Create(kKind, 0, 1.0, 0.5, 1).ok());
  EXPECT_FALSE(LongitudinalRandomizer::Create(kKind, 8, 0.0, 0.5, 1).ok());
  EXPECT_FALSE(LongitudinalRandomizer::Create(kKind, 8, 1.5, 0.5, 1).ok());
  EXPECT_FALSE(LongitudinalRandomizer::Create(kKind, 8, 1.0, 0.0, 1).ok());
  EXPECT_FALSE(LongitudinalRandomizer::Create(kKind, 8, 1.0, 1.0, 1).ok());
  EXPECT_FALSE(
      MakeLongitudinalSpec(RandomizerKind::kFutureRand, 1.0, 0.5).ok());
}

TEST(LGrrTest, SpecSpendsExactlyTheTwoBudgets) {
  const LongitudinalSpec spec =
      MakeLongitudinalSpec(kKind, 0.8, 0.4).ValueOrDie();
  EXPECT_EQ(spec.g, 2);
  EXPECT_DOUBLE_EQ(spec.eps_1, 0.4 * 0.8);
  // Whole-sequence budget: the memoized round is GRR at eps_perm, so
  // ln(p1/q1) is the sequence certificate.
  EXPECT_NEAR(std::log(spec.p1 / spec.q1), spec.eps_perm, 1e-12);
  // Single-report budget: the composed two-round channel's worst output
  // ratio is e^{eps_1} by construction of p2 (for g = 2 that ratio is
  // p_stay / (1 - p_stay)).
  EXPECT_NEAR(std::log(spec.p_stay / (1.0 - spec.p_stay)), spec.eps_1,
              1e-12);
  // Support-bit means: u1 = 2*p_stay - 1 and u0 = -u1 for the Boolean
  // domain, so the estimator gap is 4*p_stay - 2 > 0.
  EXPECT_DOUBLE_EQ(spec.u1, 2.0 * spec.p_stay - 1.0);
  EXPECT_DOUBLE_EQ(spec.u0, 1.0 - 2.0 * spec.p_stay);
  EXPECT_GT(spec.gap(), 0.0);
}

TEST(LGrrTest, FirstRoundSampledOnceAndReusedAllTicks) {
  const int64_t kTicks = 40;
  auto randomizer = Make(kTicks, 1.0, 0.5, 11);
  // Move to state 1; the first report memoizes value 1.
  (void)randomizer->Randomize(int8_t{1});
  const auto after_first = randomizer->ExportState();
  ASSERT_GE(after_first.memo[1], 0);
  ASSERT_LT(after_first.memo[1], 2);
  EXPECT_EQ(after_first.memo[0], -1) << "state 0 was never reported";
  // Every further tick at the same value must reuse the memo verbatim.
  for (int64_t t = 1; t < kTicks; ++t) {
    (void)randomizer->Randomize(int8_t{0});
    EXPECT_EQ(randomizer->ExportState().memo[1], after_first.memo[1])
        << "memo resampled at tick " << t;
    EXPECT_EQ(randomizer->ExportState().memo[0], -1);
  }
}

TEST(LGrrTest, EachValueMemoizedOnFirstVisitThenFrozen) {
  auto randomizer = Make(64, 1.0, 0.5, 12);
  (void)randomizer->Randomize(int8_t{1});   // state 1 -> memo[1]
  (void)randomizer->Randomize(int8_t{-1});  // state 0 -> memo[0]
  const auto snapshot = randomizer->ExportState();
  ASSERT_GE(snapshot.memo[0], 0);
  ASSERT_GE(snapshot.memo[1], 0);
  for (int64_t t = 0; t < 30; ++t) {
    (void)randomizer->Randomize(t % 2 == 0 ? int8_t{1} : int8_t{-1});
    const auto current = randomizer->ExportState();
    EXPECT_EQ(current.memo[0], snapshot.memo[0]);
    EXPECT_EQ(current.memo[1], snapshot.memo[1]);
  }
}

TEST(LGrrTest, SecondRoundDrawsFreshNoiseOverTheFrozenMemo) {
  // With p2 < 1, a constant-state client must emit BOTH symbols across
  // enough ticks — a degenerate always-memo output would mean the fresh
  // round is not running (an eps_1 = 0 privacy bug, not a utility win).
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

TEST(LGrrTest, DeterministicForSameSeed) {
  auto a = Make(32, 0.5, 0.3, 77);
  auto b = Make(32, 0.5, 0.3, 77);
  for (int64_t t = 0; t < 32; ++t) {
    const auto derivative = static_cast<int8_t>(t % 8 == 0   ? 1
                                                : t % 8 == 4 ? -1
                                                             : 0);
    EXPECT_EQ(a->Randomize(derivative), b->Randomize(derivative));
  }
}

TEST(LGrrTest, EmpiricalReportMeansMatchU1AndU0) {
  // Fresh length-1 clients make reports independent, so the sample means
  // converge to the spec's u1/u0 — the quantities the server's direct
  // estimator debiases with. 20k samples put 0.05 at ~7 sigma.
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

TEST(LGrrTest, ImportStateRoundTripsBitIdentically) {
  auto original = Make(64, 1.0, 0.5, 21);
  for (const int8_t derivative : {1, 0, -1, 0, 1, 0, 0, 0, -1, 1}) {
    (void)original->Randomize(derivative);
  }
  // A twin with a DIFFERENT creation seed: ImportState must replace every
  // bit of mutable state, leaving nothing of the twin's own chain behind.
  auto restored = Make(64, 1.0, 0.5, 99999);
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

TEST(LGrrTest, ImportRejectsForgedState) {
  auto randomizer = Make(16, 1.0, 0.5, 31);
  const auto valid = randomizer->ExportState();

  auto state = valid;
  state.position = 17;  // > length
  EXPECT_FALSE(randomizer->ImportState(state).ok());

  state = valid;
  state.tracked_state = 2;
  EXPECT_FALSE(randomizer->ImportState(state).ok());

  state = valid;
  state.changes = 1;  // > position = 0
  EXPECT_FALSE(randomizer->ImportState(state).ok());

  state = valid;
  state.memo[1] = 2;  // >= g
  EXPECT_FALSE(randomizer->ImportState(state).ok());

  state = valid;
  state.hash_seed[0] = 7;  // pure GRR never draws hash seeds
  EXPECT_FALSE(randomizer->ImportState(state).ok());

  // The failed imports above must not have perturbed the randomizer.
  EXPECT_TRUE(randomizer->ImportState(valid).ok());
}

// ---------------------------------------------------------------------------
// FRW kind-9 fleet snapshots: the memoization state must survive a full
// encode -> restore cycle bit-identically, because re-randomizing the
// permanent round after a restart breaks the eps_perm guarantee.

core::ProtocolConfig FleetConfig() {
  core::ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 4;
  config.epsilon = 1.0;
  config.longitudinal_alpha = 0.5;
  config.randomizer = kKind;
  return config;
}

std::vector<int8_t> TickStates(int64_t n, int64_t t) {
  std::vector<int8_t> states(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    states[static_cast<size_t>(u)] = static_cast<int8_t>((u + t / 4) % 2);
  }
  return states;
}

TEST(LGrrFleetSnapshotTest, RestoreTicksBitIdenticallyToTheCaptured) {
  const int64_t n = 50;
  auto fleet = core::ClientFleet::Create(FleetConfig(), n, 41).ValueOrDie();
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(fleet.AdvanceTick(TickStates(n, t)).ok());
  }
  const std::string blob = fleet.EncodeLongitudinalState().ValueOrDie();

  // A cold fleet with a different base seed: everything that matters must
  // come from the blob, not from the twin's own creation draws.
  auto restored =
      core::ClientFleet::Create(FleetConfig(), n, 777777).ValueOrDie();
  ASSERT_TRUE(restored.RestoreLongitudinalState(blob).ok());
  EXPECT_EQ(restored.current_time(), fleet.current_time());
  EXPECT_EQ(restored.reports_emitted(), fleet.reports_emitted());
  EXPECT_EQ(restored.changes_seen(), fleet.changes_seen());
  for (int64_t t = 13; t <= 32; ++t) {
    const auto states = TickStates(n, t);
    EXPECT_EQ(
        core::EncodeReportBatch(restored.AdvanceTick(states).ValueOrDie())
            .ValueOrDie(),
        core::EncodeReportBatch(fleet.AdvanceTick(states).ValueOrDie())
            .ValueOrDie())
        << "tick " << t;
  }
  // Encoding is stable: capturing the same instant twice gives equal bytes.
  EXPECT_EQ(fleet.EncodeLongitudinalState().ValueOrDie(),
            restored.EncodeLongitudinalState().ValueOrDie());
}

TEST(LGrrFleetSnapshotTest, CorruptedOrMismatchedBlobsAreRejected) {
  const int64_t n = 20;
  auto fleet = core::ClientFleet::Create(FleetConfig(), n, 43).ValueOrDie();
  ASSERT_TRUE(fleet.AdvanceTick(TickStates(n, 1)).ok());
  const std::string blob = fleet.EncodeLongitudinalState().ValueOrDie();

  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_FALSE(fleet.RestoreLongitudinalState(flipped).ok());

  // Shape mismatch: a fleet of a different size must refuse the blob.
  auto smaller =
      core::ClientFleet::Create(FleetConfig(), n - 1, 43).ValueOrDie();
  EXPECT_FALSE(smaller.RestoreLongitudinalState(blob).ok());

  // Dyadic fleets have no longitudinal state to capture or restore.
  core::ProtocolConfig dyadic = FleetConfig();
  dyadic.randomizer = RandomizerKind::kFutureRand;
  auto dyadic_fleet = core::ClientFleet::Create(dyadic, n, 43).ValueOrDie();
  EXPECT_FALSE(dyadic_fleet.EncodeLongitudinalState().ok());
  EXPECT_FALSE(dyadic_fleet.RestoreLongitudinalState(blob).ok());

  // The rejected restores left the original fleet usable and unchanged.
  EXPECT_EQ(fleet.EncodeLongitudinalState().ValueOrDie(), blob);
}

}  // namespace
}  // namespace futurerand::rand
