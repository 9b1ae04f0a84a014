#include "futurerand/randomizer/future_rand.h"

#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::rand {

FutureRandRandomizer::FutureRandRandomizer(
    std::shared_ptr<const ComposedRandomizer> sampler, int64_t length,
    SignVector b_tilde, Rng rng)
    : sampler_(std::move(sampler)),
      length_(length),
      b_tilde_(std::move(b_tilde)),
      rng_(rng) {}

Result<std::unique_ptr<FutureRandRandomizer>> FutureRandRandomizer::Create(
    int64_t length, int64_t max_support, double epsilon, uint64_t seed) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  // k may exceed L (a client whose level gives it few reports still runs the
  // randomizer parameterized by the global sparsity budget; Section 5.4's
  // bounded-support analysis covers any support up to min(k, L)).
  FR_ASSIGN_OR_RETURN(const AnnulusSpec spec,
                      MakeFutureRandSpec(max_support, epsilon));
  FR_ASSIGN_OR_RETURN(ComposedRandomizer sampler,
                      ComposedRandomizer::Create(spec));
  return Make(std::make_shared<const ComposedRandomizer>(std::move(sampler)),
              length, seed);
}

std::unique_ptr<FutureRandRandomizer> FutureRandRandomizer::Make(
    std::shared_ptr<const ComposedRandomizer> sampler, int64_t length,
    uint64_t seed) {
  FR_CHECK_MSG(length >= 1, "sequence length must be >= 1");
  // M.init (Algorithm 3 lines 8-11): draw the correlated noise for all
  // future non-zero inputs now, exploiting the symmetry of the input space.
  Rng rng(seed);
  const SignVector all_ones(sampler->spec().k);  // 1^k
  SignVector b_tilde = sampler->Apply(all_ones, &rng);
  return std::unique_ptr<FutureRandRandomizer>(new FutureRandRandomizer(
      std::move(sampler), length, std::move(b_tilde), rng));
}

int8_t FutureRandRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(position_ < length_, "more inputs than the configured length");
  ++position_;
  if (value == 0) {
    return rng_.NextSign();
  }
  if (support_used_ >= b_tilde_.size()) {
    // Over-budget non-zero input: fall back to the zero-coordinate law so
    // the output distribution (and thus the privacy certificate) is
    // unchanged; the report merely carries no signal.
    ++support_overflow_count_;
    return rng_.NextSign();
  }
  // Algorithm 3 lines 13-15: v_j * b~_nnz.
  const int8_t noise = b_tilde_.Get(support_used_);
  ++support_used_;
  return static_cast<int8_t>(value * noise);
}

}  // namespace futurerand::rand
