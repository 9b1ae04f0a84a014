#include "futurerand/randomizer/independent.h"

#include "futurerand/common/macros.h"

namespace futurerand::rand {

IndependentRandomizer::IndependentRandomizer(int64_t length,
                                             int64_t max_support,
                                             double epsilon,
                                             BasicRandomizer basic, Rng rng)
    : length_(length),
      max_support_(max_support),
      epsilon_(epsilon),
      basic_(basic),
      rng_(rng) {}

Result<std::unique_ptr<IndependentRandomizer>> IndependentRandomizer::Create(
    int64_t length, int64_t max_support, double epsilon, uint64_t seed) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  FR_ASSIGN_OR_RETURN(const BasicRandomizer basic,
                      Resolve(max_support, epsilon));
  return Make(basic, length, max_support, epsilon, seed);
}

Result<BasicRandomizer> IndependentRandomizer::Resolve(int64_t max_support,
                                                       double epsilon) {
  if (max_support < 1) {
    return Status::InvalidArgument("require k >= 1");
  }
  if (!(epsilon > 0.0) || !(epsilon <= 1.0)) {
    return Status::InvalidArgument(
        "the construction is analyzed for 0 < epsilon <= 1");
  }
  // Budget split: each of the at-most-k non-zero coordinates consumes
  // eps/k; zeros are data-independent.
  return BasicRandomizer::Create(epsilon / static_cast<double>(max_support));
}

std::unique_ptr<IndependentRandomizer> IndependentRandomizer::Make(
    const BasicRandomizer& basic, int64_t length, int64_t max_support,
    double epsilon, uint64_t seed) {
  FR_CHECK_MSG(length >= 1, "sequence length must be >= 1");
  return std::unique_ptr<IndependentRandomizer>(new IndependentRandomizer(
      length, max_support, epsilon, basic, Rng(seed)));
}

int8_t IndependentRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < length_, "more inputs than the configured length");
  ++position_;
  if (value == 0) {
    return rng_.NextSign();
  }
  if (support_used_ >= max_support_) {
    // Same over-budget clamp as FutureRand: uniform output keeps the
    // composition argument (k randomized responses at eps/k each) intact.
    ++support_overflow_count_;
    return rng_.NextSign();
  }
  ++support_used_;
  return basic_.Apply(value, &rng_);
}

}  // namespace futurerand::rand
