// The paper's headline claim, asserted exactly: FutureRand's c_gap is
// Theta(eps / sqrt(k)) (Theorem 4.4), so it overtakes the independent
// per-coordinate randomizer's Theta(eps / k) once k is large enough. Every
// number here comes from ExactCGap's closed-form distributions — no
// sampling, so the test is deterministic.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

constexpr double kEpsilon = 1.0;

double CGap(RandomizerKind kind, int64_t k) {
  return ExactCGap(kind, k, kEpsilon).ValueOrDie();
}

double FutureRandOverIndependent(int64_t k) {
  return CGap(RandomizerKind::kFutureRand, k) /
         CGap(RandomizerKind::kIndependent, k);
}

TEST(CGapScalingTest, IndependentWinsUpToK32) {
  // Measured: 0.199 at k=2 rising to 0.901 at k=32.
  for (int64_t k = 1; k <= 32; ++k) {
    EXPECT_LT(FutureRandOverIndependent(k), 1.0) << "k=" << k;
  }
}

TEST(CGapScalingTest, FutureRandWinsFromK64) {
  // Measured: 1.293 at k=64, 10.57 at k=4096.
  for (int64_t k = 64; k <= 4096; k *= 2) {
    EXPECT_GT(FutureRandOverIndependent(k), 1.0) << "k=" << k;
  }
}

TEST(CGapScalingTest, FutureRandGapIsThetaEpsOverSqrtK) {
  // Measured range of c_gap * sqrt(k) / eps: 0.069 (k=2) to 0.083.
  for (int64_t k = 2; k <= 4096; k *= 2) {
    const double normalized = CGap(RandomizerKind::kFutureRand, k) *
                              std::sqrt(static_cast<double>(k)) / kEpsilon;
    EXPECT_GE(normalized, 0.06) << "k=" << k;
    EXPECT_LE(normalized, 0.09) << "k=" << k;
  }
}

}  // namespace
}  // namespace futurerand::rand
