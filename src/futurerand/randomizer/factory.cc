#include <memory>
#include <utility>

#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/basic.h"
#include "futurerand/randomizer/composed.h"
#include "futurerand/randomizer/future_rand.h"
#include "futurerand/randomizer/independent.h"
#include "futurerand/randomizer/longitudinal.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

const char* RandomizerKindToString(RandomizerKind kind) {
  switch (kind) {
    case RandomizerKind::kFutureRand:
      return "future_rand";
    case RandomizerKind::kIndependent:
      return "independent";
    case RandomizerKind::kBun:
      return "bun";
    case RandomizerKind::kAdaptive:
      return "adaptive";
    case RandomizerKind::kLGrr:
      return "lgrr";
    case RandomizerKind::kLOlh:
      return "lolh";
    case RandomizerKind::kLoloha:
      return "loloha";
  }
  return "unknown";
}

Result<RandomizerKind> ParseRandomizerKind(const std::string& name) {
  for (RandomizerKind kind : AllRandomizerKinds()) {
    if (name == RandomizerKindToString(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown randomizer kind: " + name);
}

RandomizerFactory::RandomizerFactory(int64_t max_support, double c_gap,
                                     MakeFn make)
    : max_support_(max_support), c_gap_(c_gap), make_(std::move(make)) {}

Result<RandomizerFactory> RandomizerFactory::Create(RandomizerKind kind,
                                                    int64_t max_support,
                                                    double epsilon,
                                                    double alpha) {
  switch (kind) {
    case RandomizerKind::kFutureRand:
    case RandomizerKind::kBun: {
      FR_ASSIGN_OR_RETURN(const AnnulusSpec spec,
                          MakeAnnulusSpec(kind, max_support, epsilon));
      FR_ASSIGN_OR_RETURN(ComposedRandomizer composed,
                          ComposedRandomizer::Create(spec));
      auto sampler =
          std::make_shared<const ComposedRandomizer>(std::move(composed));
      return RandomizerFactory(
          max_support, spec.c_gap, [sampler](int64_t length, uint64_t seed) {
            return FutureRandRandomizer::Make(sampler, length, seed);
          });
    }
    case RandomizerKind::kIndependent: {
      FR_ASSIGN_OR_RETURN(const BasicRandomizer basic,
                          IndependentRandomizer::Resolve(max_support, epsilon));
      return RandomizerFactory(
          max_support, basic.c_gap(),
          [basic, max_support, epsilon](int64_t length, uint64_t seed) {
            return IndependentRandomizer::Make(basic, length, max_support,
                                               epsilon, seed);
          });
    }
    case RandomizerKind::kAdaptive: {
      FR_ASSIGN_OR_RETURN(const RandomizerKind choice,
                          ChooseAdaptiveKind(max_support, epsilon));
      return Create(choice, max_support, epsilon);
    }
    case RandomizerKind::kLGrr:
    case RandomizerKind::kLOlh:
    case RandomizerKind::kLoloha: {
      FR_ASSIGN_OR_RETURN(const LongitudinalSpec resolved,
                          MakeLongitudinalSpec(kind, epsilon, alpha));
      auto spec = std::make_shared<const LongitudinalSpec>(resolved);
      // The direct estimator's sensitivity gap u1 - u0.
      return RandomizerFactory(
          max_support, spec->gap(), [spec](int64_t length, uint64_t seed) {
            return LongitudinalRandomizer::Make(spec, length, seed);
          });
    }
  }
  return Status::InvalidArgument("unknown randomizer kind");
}

Result<RandomizerKind> ChooseAdaptiveKind(int64_t max_support,
                                          double epsilon) {
  FR_ASSIGN_OR_RETURN(const AnnulusSpec future,
                      MakeFutureRandSpec(max_support, epsilon));
  FR_ASSIGN_OR_RETURN(const BasicRandomizer independent,
                      IndependentRandomizer::Resolve(max_support, epsilon));
  return future.c_gap >= independent.c_gap() ? RandomizerKind::kFutureRand
                                              : RandomizerKind::kIndependent;
}

std::unique_ptr<SequenceRandomizer> RandomizerFactory::Make(
    int64_t length, uint64_t seed) const {
  return make_(length, seed);
}

Result<std::unique_ptr<SequenceRandomizer>> MakeSequenceRandomizer(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    uint64_t seed, double alpha) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  FR_ASSIGN_OR_RETURN(
      const RandomizerFactory factory,
      RandomizerFactory::Create(kind, max_support, epsilon, alpha));
  return factory.Make(length, seed);
}

Result<double> ExactCGap(RandomizerKind kind, int64_t max_support,
                         double epsilon, double alpha) {
  FR_ASSIGN_OR_RETURN(
      const RandomizerFactory factory,
      RandomizerFactory::Create(kind, max_support, epsilon, alpha));
  return factory.c_gap();
}

}  // namespace futurerand::rand
