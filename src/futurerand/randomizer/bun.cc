#include "futurerand/randomizer/bun.h"

#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::rand {

BunRandomizer::BunRandomizer(std::shared_ptr<const ComposedRandomizer> sampler,
                             int64_t length, SignVector b_tilde, Rng rng)
    : sampler_(std::move(sampler)),
      length_(length),
      b_tilde_(std::move(b_tilde)),
      rng_(rng) {}

Result<std::unique_ptr<BunRandomizer>> BunRandomizer::Create(
    int64_t length, int64_t max_support, double epsilon, uint64_t seed) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  FR_ASSIGN_OR_RETURN(std::shared_ptr<const ComposedRandomizer> sampler,
                      Resolve(max_support, epsilon));
  return Make(std::move(sampler), length, seed);
}

Result<std::shared_ptr<const ComposedRandomizer>> BunRandomizer::Resolve(
    int64_t max_support, double epsilon) {
  if (max_support < 1) {
    return Status::InvalidArgument("require k >= 1");
  }
  FR_ASSIGN_OR_RETURN(AnnulusSpec spec, MakeBunSpec(max_support, epsilon));
  FR_ASSIGN_OR_RETURN(ComposedRandomizer sampler,
                      ComposedRandomizer::Create(spec));
  return std::make_shared<const ComposedRandomizer>(std::move(sampler));
}

std::unique_ptr<BunRandomizer> BunRandomizer::Make(
    std::shared_ptr<const ComposedRandomizer> sampler, int64_t length,
    uint64_t seed) {
  FR_CHECK_MSG(length >= 1, "sequence length must be >= 1");
  Rng rng(seed);
  const SignVector all_ones(sampler->spec().k);
  SignVector b_tilde = sampler->Apply(all_ones, &rng);
  return std::unique_ptr<BunRandomizer>(new BunRandomizer(
      std::move(sampler), length, std::move(b_tilde), rng));
}

int8_t BunRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < length_, "more inputs than the configured length");
  ++position_;
  if (value == 0) {
    return rng_.NextSign();
  }
  if (support_used_ >= b_tilde_.size()) {
    ++support_overflow_count_;
    return rng_.NextSign();
  }
  const int8_t noise = b_tilde_.Get(support_used_);
  ++support_used_;
  return static_cast<int8_t>(value * noise);
}

}  // namespace futurerand::rand
