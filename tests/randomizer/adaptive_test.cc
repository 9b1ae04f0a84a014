// kAdaptive is a factory choice: its instances are plain FutureRand or
// Independent randomizers, whichever has the larger exact c_gap.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

std::unique_ptr<SequenceRandomizer> Make(int64_t length, int64_t k,
                                         double eps, uint64_t seed) {
  return RandomizerFactory::Create(RandomizerKind::kAdaptive, k, eps)
      .ValueOrDie()
      .Make(length, seed);
}

TEST(AdaptiveRandomizerTest, PicksIndependentForSmallK) {
  // At k=1 the independent construction spends the whole budget on one
  // coordinate (gap ~ eps/2) while FutureRand burns a constant factor 5.
  EXPECT_EQ(Make(8, 1, 1.0, 1)->name(), "independent");
}

TEST(AdaptiveRandomizerTest, PicksFutureRandForLargeK) {
  EXPECT_EQ(Make(2048, 1024, 1.0, 1)->name(), "future_rand");
}

TEST(AdaptiveRandomizerTest, CGapIsMaxOfBoth) {
  for (int64_t k : {1, 8, 64, 512}) {
    auto randomizer = Make(1024, k, 1.0, 2);
    const double future =
        ExactCGap(RandomizerKind::kFutureRand, k, 1.0).ValueOrDie();
    const double independent =
        ExactCGap(RandomizerKind::kIndependent, k, 1.0).ValueOrDie();
    EXPECT_DOUBLE_EQ(randomizer->c_gap(), std::max(future, independent));
  }
}

TEST(AdaptiveRandomizerTest, DelegatesRandomization) {
  auto randomizer =
      MakeSequenceRandomizer(RandomizerKind::kAdaptive, 4, 2, 1.0, 3)
          .ValueOrDie();
  const int8_t out = randomizer->Randomize(1);
  EXPECT_TRUE(out == 1 || out == -1);
  EXPECT_EQ(randomizer->position(), 1);
  EXPECT_EQ(randomizer->support_used(), 1);
  EXPECT_EQ(randomizer->name(),
            RandomizerKindToString(ChooseAdaptiveKind(2, 1.0).ValueOrDie()));
}

TEST(AdaptiveRandomizerTest, PropagatesCreationErrors) {
  EXPECT_FALSE(
      MakeSequenceRandomizer(RandomizerKind::kAdaptive, 4, 2, 0.0, 1).ok());
  EXPECT_FALSE(
      RandomizerFactory::Create(RandomizerKind::kAdaptive, 2, 0.0).ok());
}

}  // namespace
}  // namespace futurerand::rand
