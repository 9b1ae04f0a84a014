// The Bun-Nelson-Stemmer composed randomizer (Appendix A.2), wrapped in the
// same online pre-computation shell as FutureRand so the two constructions
// are compared apples-to-apples in experiment E6. Its annulus is the
// symmetric kp -+ sqrt((k/2) ln(2/lambda)) band of Equation 43, with the
// (lambda, eps~) constraint system of Fact A.6; Theorem A.8 shows its gap is
// c_gap in O(eps/sqrt(k ln(k/eps)) + (eps/(k ln(k/eps)))^{2/3}).

#ifndef FUTURERAND_RANDOMIZER_BUN_H_
#define FUTURERAND_RANDOMIZER_BUN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/composed.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Appendix A.2's composed randomizer, made online via pre-computation.
class BunRandomizer final : public SequenceRandomizer {
 public:
  /// `length` is L, `max_support` is k (1 <= k <= L); 0 < epsilon <= 1.
  static Result<std::unique_ptr<BunRandomizer>> Create(int64_t length,
                                                       int64_t max_support,
                                                       double epsilon,
                                                       uint64_t seed);

  /// The Bun et al. annulus spec for (k, eps) and its sampler R~, resolved
  /// once and shared by every instance with the same (k, eps).
  static Result<std::shared_ptr<const ComposedRandomizer>> Resolve(
      int64_t max_support, double epsilon);

  /// Pre-computes b~ = R~(1^k) with a resolved sampler. Cannot fail;
  /// requires length >= 1.
  static std::unique_ptr<BunRandomizer> Make(
      std::shared_ptr<const ComposedRandomizer> sampler, int64_t length,
      uint64_t seed);

  int8_t Randomize(int8_t value) override;
  double c_gap() const override { return spec().c_gap; }
  int64_t length() const override { return length_; }
  int64_t max_support() const override { return b_tilde_.size(); }
  double epsilon() const override { return spec().epsilon; }
  int64_t position() const override { return position_; }
  int64_t support_used() const override { return support_used_; }
  int64_t support_overflow_count() const override {
    return support_overflow_count_;
  }
  std::string name() const override { return "bun"; }

  /// Parameterization details, including the solved lambda.
  const AnnulusSpec& spec() const { return sampler_->spec(); }

 private:
  BunRandomizer(std::shared_ptr<const ComposedRandomizer> sampler,
                int64_t length, SignVector b_tilde, Rng rng);

  std::shared_ptr<const ComposedRandomizer> sampler_;  // shared, read-only
  int64_t length_;
  SignVector b_tilde_;
  Rng rng_;
  int64_t position_ = 0;
  int64_t support_used_ = 0;
  int64_t support_overflow_count_ = 0;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_BUN_H_
