#include "futurerand/analysis/cgap_estimator.h"

#include <cmath>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/basic.h"
#include "futurerand/randomizer/composed.h"
#include "futurerand/randomizer/longitudinal.h"

namespace futurerand::analysis {

Result<CGapEstimate> EstimateCGapMonteCarlo(rand::RandomizerKind kind,
                                            int64_t max_support,
                                            double epsilon, int64_t samples,
                                            uint64_t seed, double confidence,
                                            double alpha) {
  if (samples < 1) {
    return Status::InvalidArgument("samples must be >= 1");
  }
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0,1)");
  }

  Rng rng(seed);
  const SignVector all_ones(max_support);
  double sum = 0.0;
  double sample_range = 1.0;  // per-sample values live in +/- this

  switch (kind) {
    case rand::RandomizerKind::kFutureRand:
    case rand::RandomizerKind::kBun: {
      FR_ASSIGN_OR_RETURN(const rand::AnnulusSpec spec,
                          rand::MakeAnnulusSpec(kind, max_support, epsilon));
      FR_ASSIGN_OR_RETURN(rand::ComposedRandomizer composed,
                          rand::ComposedRandomizer::Create(spec));
      for (int64_t s = 0; s < samples; ++s) {
        const SignVector b_tilde = composed.Apply(all_ones, &rng);
        // Per-sample agreement average: (k - 2*dist)/k, expectation c_gap.
        const int64_t negatives = b_tilde.CountNegative();
        sum += static_cast<double>(max_support - 2 * negatives) /
               static_cast<double>(max_support);
      }
      break;
    }
    case rand::RandomizerKind::kIndependent: {
      FR_ASSIGN_OR_RETURN(
          rand::BasicRandomizer basic,
          rand::BasicRandomizer::Create(
              epsilon / static_cast<double>(max_support)));
      for (int64_t s = 0; s < samples; ++s) {
        int64_t agreement = 0;
        for (int64_t i = 0; i < max_support; ++i) {
          agreement += basic.Apply(1, &rng);
        }
        sum += static_cast<double>(agreement) /
               static_cast<double>(max_support);
      }
      break;
    }
    case rand::RandomizerKind::kAdaptive:
      return Status::InvalidArgument(
          "estimate the adaptive choice's underlying construction instead");
    case rand::RandomizerKind::kLGrr:
    case rand::RandomizerKind::kLOlh:
    case rand::RandomizerKind::kLoloha: {
      // The longitudinal gap is u1 - u0 = E[report | v=1] - E[report | v=0]:
      // sample a fresh client pair per draw (memoization makes repeated
      // reports of one client correlated, so each sample needs new clients).
      sample_range = 2.0;
      for (int64_t s = 0; s < samples; ++s) {
        FR_ASSIGN_OR_RETURN(
            std::unique_ptr<rand::LongitudinalRandomizer> one,
            rand::LongitudinalRandomizer::Create(kind, 1, epsilon, alpha,
                                                 rng.NextUint64()));
        FR_ASSIGN_OR_RETURN(
            std::unique_ptr<rand::LongitudinalRandomizer> zero,
            rand::LongitudinalRandomizer::Create(kind, 1, epsilon, alpha,
                                                 rng.NextUint64()));
        sum += static_cast<double>(one->Randomize(int8_t{1}) -
                                   zero->Randomize(int8_t{0}));
      }
      break;
    }
  }

  CGapEstimate estimate;
  estimate.samples = samples;
  estimate.estimate = sum / static_cast<double>(samples);
  // Hoeffding for means of [-1,1]-valued variables:
  // half-width = sqrt(2 ln(2/(1-confidence)) / samples), scaled linearly
  // to the actual per-sample range.
  estimate.half_width = sample_range *
                        std::sqrt(2.0 * std::log(2.0 / (1.0 - confidence)) /
                                  static_cast<double>(samples));
  return estimate;
}

}  // namespace futurerand::analysis
