#include "futurerand/randomizer/adaptive.h"

#include <utility>

#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/future_rand.h"
#include "futurerand/randomizer/independent.h"

namespace futurerand::rand {

Result<std::unique_ptr<AdaptiveRandomizer>> AdaptiveRandomizer::Create(
    int64_t length, int64_t max_support, double epsilon, uint64_t seed) {
  FR_ASSIGN_OR_RETURN(const RandomizerKind choice,
                      Choose(max_support, epsilon));
  std::unique_ptr<SequenceRandomizer> inner;
  if (choice == RandomizerKind::kFutureRand) {
    FR_ASSIGN_OR_RETURN(inner, FutureRandRandomizer::Create(
                                   length, max_support, epsilon, seed));
  } else {
    FR_ASSIGN_OR_RETURN(inner, IndependentRandomizer::Create(
                                   length, max_support, epsilon, seed));
  }
  return Make(std::move(inner));
}

Result<RandomizerKind> AdaptiveRandomizer::Choose(int64_t max_support,
                                                  double epsilon) {
  FR_ASSIGN_OR_RETURN(const AnnulusSpec future,
                      MakeFutureRandSpec(max_support, epsilon));
  FR_ASSIGN_OR_RETURN(const BasicRandomizer independent,
                      IndependentRandomizer::Resolve(max_support, epsilon));
  return future.c_gap >= independent.c_gap() ? RandomizerKind::kFutureRand
                                              : RandomizerKind::kIndependent;
}

std::unique_ptr<AdaptiveRandomizer> AdaptiveRandomizer::Make(
    std::unique_ptr<SequenceRandomizer> inner) {
  return std::unique_ptr<AdaptiveRandomizer>(
      new AdaptiveRandomizer(std::move(inner)));
}

}  // namespace futurerand::rand
