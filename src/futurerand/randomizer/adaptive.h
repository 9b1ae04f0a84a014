// AdaptiveRandomizer: an extension beyond the paper. FutureRand's
// c_gap in Omega(eps/sqrt k) only beats Example 4.2's Theta(eps/k) once k is
// moderately large (the constant 5 in eps~ = eps/(5 sqrt k) costs a factor
// ~10 at small k). Both constructions certify eps-LDP, so a client may pick
// whichever has the larger exact c_gap for its (k, eps) — strictly better
// utility with an unchanged privacy guarantee.

#ifndef FUTURERAND_RANDOMIZER_ADAPTIVE_H_
#define FUTURERAND_RANDOMIZER_ADAPTIVE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Delegates to the certified construction with the larger exact c_gap.
class AdaptiveRandomizer final : public SequenceRandomizer {
 public:
  static Result<std::unique_ptr<AdaptiveRandomizer>> Create(
      int64_t length, int64_t max_support, double epsilon, uint64_t seed);

  /// The c_gap comparison for (k, eps): kFutureRand when its exact gap is
  /// at least Example 4.2's, else kIndependent.
  static Result<RandomizerKind> Choose(int64_t max_support, double epsilon);

  /// Wraps an instance of the construction Choose picked.
  static std::unique_ptr<AdaptiveRandomizer> Make(
      std::unique_ptr<SequenceRandomizer> inner);

  int8_t Randomize(int8_t value) override { return inner_->Randomize(value); }
  double c_gap() const override { return inner_->c_gap(); }
  int64_t length() const override { return inner_->length(); }
  int64_t max_support() const override { return inner_->max_support(); }
  double epsilon() const override { return inner_->epsilon(); }
  int64_t position() const override { return inner_->position(); }
  int64_t support_used() const override { return inner_->support_used(); }
  int64_t support_overflow_count() const override {
    return inner_->support_overflow_count();
  }
  std::string name() const override {
    return "adaptive(" + inner_->name() + ")";
  }

  /// The construction that won the c_gap comparison.
  const SequenceRandomizer& chosen() const { return *inner_; }

 private:
  explicit AdaptiveRandomizer(std::unique_ptr<SequenceRandomizer> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<SequenceRandomizer> inner_;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_ADAPTIVE_H_
