// FutureRand (Theorem 4.4, Algorithm 3): the paper's online sequence
// randomizer with c_gap in Omega(eps / sqrt k).
//
// At init time it draws b~ = R~(1^k) once ("randomize the future"); online,
// the j-th non-zero input v is answered with v * b~_nnz and zero inputs with
// a uniform sign. Sections 5.3-5.4 show this preserves Properties I-III for
// any support size up to k.

#ifndef FUTURERAND_RANDOMIZER_FUTURE_RAND_H_
#define FUTURERAND_RANDOMIZER_FUTURE_RAND_H_

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

/// The paper's randomizer M (Algorithm 3). See SequenceRandomizer for the
/// contract; this construction achieves c_gap in Omega(eps / sqrt k).
class FutureRandRandomizer final : public SequenceRandomizer {
 public:
  /// Pre-computes b~ = R~(1^k). `length` is L, `max_support` is k (both
  /// >= 1, k <= L); 0 < epsilon <= 1. All randomness derives from `seed`.
  static Result<std::unique_ptr<FutureRandRandomizer>> Create(
      int64_t length, int64_t max_support, double epsilon, uint64_t seed);

  /// Everything b~'s draw depends on except the seed: the annulus spec for
  /// (k, eps) and its sampler R~. Resolved once and shared by every
  /// instance with the same (k, eps) (see RandomizerFactory).
  static Result<std::shared_ptr<const ComposedRandomizer>> Resolve(
      int64_t max_support, double epsilon);

  /// Pre-computes b~ = R~(1^k) with a resolved sampler. Cannot fail;
  /// requires length >= 1.
  static std::unique_ptr<FutureRandRandomizer> Make(
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
  std::string name() const override { return "future_rand"; }

  /// The exact privacy ratio ln(p'_max/p'_min) this instance certifies
  /// (always <= epsilon; Lemma 5.2).
  double certified_epsilon() const { return spec().certified_epsilon; }

  /// Parameterization details (annulus bounds, P*_out, ...).
  const AnnulusSpec& spec() const { return sampler_->spec(); }

  /// The pre-computed noise vector b~ (exposed for tests: the online output
  /// on non-zero inputs must equal v * b~_nnz exactly).
  const SignVector& precomputed_noise() const { return b_tilde_; }

 private:
  FutureRandRandomizer(std::shared_ptr<const ComposedRandomizer> sampler,
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

#endif  // FUTURERAND_RANDOMIZER_FUTURE_RAND_H_
