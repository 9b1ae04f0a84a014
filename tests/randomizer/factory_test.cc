#include "futurerand/randomizer/randomizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "futurerand/randomizer/annulus.h"

namespace futurerand::rand {
namespace {

TEST(FactoryTest, KindNamesAreStable) {
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kFutureRand),
               "future_rand");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kIndependent),
               "independent");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kBun), "bun");
  EXPECT_STREQ(RandomizerKindToString(RandomizerKind::kAdaptive), "adaptive");
}

TEST(FactoryTest, AllRandomizerKindsCoversTheEnum) {
  // kLoloha is the last enumerator; appending a kind forces the shared
  // kAllRandomizerKinds array (randomizer.h) to be extended.
  EXPECT_EQ(static_cast<size_t>(RandomizerKind::kLoloha) + 1,
            AllRandomizerKinds().size());
}

TEST(FactoryTest, CreatesEveryKind) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    auto randomizer = MakeSequenceRandomizer(kind, 16, 4, 1.0, 123);
    ASSERT_TRUE(randomizer.ok()) << RandomizerKindToString(kind);
    EXPECT_EQ((*randomizer)->length(), 16);
    const int8_t out = (*randomizer)->Randomize(1);
    EXPECT_TRUE(out == 1 || out == -1);
  }
}

TEST(FactoryTest, PropagatesInvalidParameters) {
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kFutureRand, 0, 1, 1.0, 1).ok());
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kBun, 4, 1, 0.0, 1).ok());
}

TEST(FactoryTest, ExactCGapMatchesInstances) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    const double exact = ExactCGap(kind, 32, 1.0).ValueOrDie();
    auto randomizer =
        MakeSequenceRandomizer(kind, 64, 32, 1.0, 9).ValueOrDie();
    EXPECT_DOUBLE_EQ(randomizer->c_gap(), exact)
        << RandomizerKindToString(kind);
  }
}

TEST(FactoryTest, ExactCGapIndependentFormula) {
  const double gap = ExactCGap(RandomizerKind::kIndependent, 10, 1.0)
                         .ValueOrDie();
  EXPECT_NEAR(gap, (std::exp(0.1) - 1.0) / (std::exp(0.1) + 1.0), 1e-12);
}

TEST(FactoryTest, ExactCGapAdaptiveIsMax) {
  for (int64_t k : {1, 4, 64, 1024}) {
    const double adaptive =
        ExactCGap(RandomizerKind::kAdaptive, k, 1.0).ValueOrDie();
    const double future =
        ExactCGap(RandomizerKind::kFutureRand, k, 1.0).ValueOrDie();
    const double independent =
        ExactCGap(RandomizerKind::kIndependent, k, 1.0).ValueOrDie();
    EXPECT_DOUBLE_EQ(adaptive, std::max(future, independent));
  }
}

TEST(FactoryTest, AdaptiveIsItsChoiceBitForBit) {
  // Adaptive builds the chosen kind's factory, so an instance draws the
  // same Rng stream in the same order as that kind at the same seed.
  constexpr int64_t kLength = 64;
  for (int64_t k : {1, 4, 64, 1024}) {
    for (double eps : {0.5, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " eps=" << eps);
      const RandomizerKind choice = ChooseAdaptiveKind(k, eps).ValueOrDie();
      const uint64_t seed = 1000 + static_cast<uint64_t>(k);
      auto adaptive = MakeSequenceRandomizer(RandomizerKind::kAdaptive,
                                             kLength, k, eps, seed)
                          .ValueOrDie();
      auto chosen =
          MakeSequenceRandomizer(choice, kLength, k, eps, seed).ValueOrDie();
      EXPECT_EQ(adaptive->c_gap(), chosen->c_gap());
      EXPECT_EQ(adaptive->name(), chosen->name());
      for (int64_t j = 0; j < kLength; ++j) {
        const auto v = static_cast<int8_t>(j % 3 - 1);  // -1, 0, +1, ...
        ASSERT_EQ(adaptive->Randomize(v), chosen->Randomize(v)) << "j=" << j;
      }
    }
  }
}

TEST(FactoryTest, SqrtKAdvantageMaterializesAtLargeK) {
  // The paper's central quantitative claim at the randomizer level: the
  // FutureRand gap beats the naive eps/k composition by a growing factor.
  const double future =
      ExactCGap(RandomizerKind::kFutureRand, 1024, 1.0).ValueOrDie();
  const double independent =
      ExactCGap(RandomizerKind::kIndependent, 1024, 1.0).ValueOrDie();
  EXPECT_GT(future / independent, 2.0);
}

TEST(FactoryTest, CGapScalesLikeOneOverSqrtK) {
  // Quadrupling k should roughly halve the FutureRand gap (up to the
  // annulus correction), not quarter it.
  const double at_256 =
      ExactCGap(RandomizerKind::kFutureRand, 256, 1.0).ValueOrDie();
  const double at_1024 =
      ExactCGap(RandomizerKind::kFutureRand, 1024, 1.0).ValueOrDie();
  const double ratio = at_256 / at_1024;
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.5);
}

}  // namespace
}  // namespace futurerand::rand
