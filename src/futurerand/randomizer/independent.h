// The naive independent sequence randomizer of Example 4.2: each non-zero
// coordinate is perturbed by independent randomized response with budget
// eps/k, zeros map to uniform signs. Satisfies Properties I-III with
// c_gap = (e^{eps/k} - 1)/(e^{eps/k} + 1) in Theta(eps/k) — the baseline
// FutureRand improves on by a sqrt(k) factor.

#ifndef FUTURERAND_RANDOMIZER_INDEPENDENT_H_
#define FUTURERAND_RANDOMIZER_INDEPENDENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/randomizer/basic.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Example 4.2's randomizer. See SequenceRandomizer for the contract.
class IndependentRandomizer final : public SequenceRandomizer {
 public:
  /// `length` is L, `max_support` is k (1 <= k <= L); 0 < epsilon <= 1.
  static Result<std::unique_ptr<IndependentRandomizer>> Create(
      int64_t length, int64_t max_support, double epsilon, uint64_t seed);

  /// The per-coordinate randomized response RR(eps/k), resolved once for
  /// every instance with the same (k, eps).
  static Result<BasicRandomizer> Resolve(int64_t max_support, double epsilon);

  /// Builds an instance around a resolved RR(eps/k). Cannot fail; requires
  /// length >= 1 and `basic` == Resolve(max_support, epsilon).
  static std::unique_ptr<IndependentRandomizer> Make(
      const BasicRandomizer& basic, int64_t length, int64_t max_support,
      double epsilon, uint64_t seed);

  int8_t Randomize(int8_t value) override;
  double c_gap() const override { return basic_.c_gap(); }
  int64_t length() const override { return length_; }
  int64_t max_support() const override { return max_support_; }
  double epsilon() const override { return epsilon_; }
  int64_t position() const override { return position_; }
  int64_t support_used() const override { return support_used_; }
  int64_t support_overflow_count() const override {
    return support_overflow_count_;
  }
  std::string name() const override { return "independent"; }

 private:
  IndependentRandomizer(int64_t length, int64_t max_support, double epsilon,
                        BasicRandomizer basic, Rng rng);

  int64_t length_;
  int64_t max_support_;
  double epsilon_;
  BasicRandomizer basic_;
  Rng rng_;
  int64_t position_ = 0;
  int64_t support_used_ = 0;
  int64_t support_overflow_count_ = 0;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_INDEPENDENT_H_
