// FutureRand (Theorem 4.4, Algorithm 3): the paper's online sequence
// randomizer with c_gap in Omega(eps / sqrt k).
//
// At init time it draws b~ = R~(1^k) once ("randomize the future"); online,
// the j-th non-zero input v is answered with v * b~_nnz and zero inputs with
// a uniform sign. Sections 5.3-5.4 show this preserves Properties I-III for
// any support size up to k.
//
// The shell holds for any composed randomizer R~, so it is also how Bun et
// al.'s construction runs online (Appendix A.2): kBun is this class over
// MakeBunSpec's annulus, with c_gap in O(eps/sqrt(k ln(k/eps)) +
// (eps/(k ln(k/eps)))^{2/3}) (Theorem A.8). The spec names the construction.

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
/// contract; over FutureRand's annulus it achieves c_gap in
/// Omega(eps / sqrt k).
class FutureRandRandomizer final : public SequenceRandomizer {
 public:
  /// Pre-computes b~ = R~(1^k) over FutureRand's annulus. `length` is L,
  /// `max_support` is k (both >= 1, k <= L); 0 < epsilon <= 1. All
  /// randomness derives from `seed`.
  static Result<std::unique_ptr<FutureRandRandomizer>> Create(
      int64_t length, int64_t max_support, double epsilon, uint64_t seed);

  /// Pre-computes b~ = R~(1^k) with a resolved sampler, which every
  /// instance with the same (kind, k, eps) shares (see RandomizerFactory).
  /// Cannot fail; requires length >= 1.
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
  std::string name() const override { return spec().name; }

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
