#include "futurerand/randomizer/composed.h"

#include <numeric>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/math.h"

namespace futurerand::rand {

ComposedRandomizer::ComposedRandomizer(const AnnulusSpec& spec,
                                       BasicRandomizer basic)
    : spec_(spec), basic_(basic) {}

Result<ComposedRandomizer> ComposedRandomizer::Create(const AnnulusSpec& spec) {
  if (spec.k < 1) {
    return Status::InvalidArgument("spec not finalized: k < 1");
  }
  FR_ASSIGN_OR_RETURN(BasicRandomizer basic,
                      BasicRandomizer::Create(spec.eps_tilde));
  ComposedRandomizer randomizer(spec, basic);

  if (!spec.complement_empty) {
    // The uniform law over {-1,+1}^k \ Ann(b) induces distance weights
    // C(k, i) for i outside [i_low..i_high]; build the sampler once.
    std::vector<double> log_weights;
    for (int64_t i = 0; i <= spec.k; ++i) {
      if (!spec.InAnnulus(i)) {
        randomizer.complement_values_.push_back(i);
        log_weights.push_back(LogBinomial(spec.k, i));
      }
    }
    FR_ASSIGN_OR_RETURN(AliasTable table,
                        AliasTable::FromLogWeights(log_weights));
    randomizer.complement_distances_.emplace(std::move(table));
  }
  return randomizer;
}

SignVector ComposedRandomizer::Apply(const SignVector& b, Rng* rng) const {
  FR_CHECK(b.size() == spec_.k);
  // Step 1 (Algorithm 3 line 4): b' <- (R(b_1), ..., R(b_k)).
  SignVector perturbed = b;
  const double flip_p = basic_.flip_probability();
  for (int64_t i = 0; i < spec_.k; ++i) {
    if (rng->NextBernoulli(flip_p)) {
      perturbed.Flip(i);
    }
  }
  // Step 2 (lines 5-6): resample uniformly outside the annulus if b' landed
  // outside it.
  const int64_t distance = perturbed.HammingDistance(b);
  if (spec_.InAnnulus(distance)) {
    return perturbed;
  }
  FR_CHECK_MSG(complement_distances_.has_value(),
               "landed outside an all-covering annulus");
  const int64_t slot = complement_distances_->Sample(rng);
  const int64_t new_distance =
      complement_values_[static_cast<size_t>(slot)];
  SignVector replacement = b;
  FlipRandomSubset(&replacement, new_distance, rng);
  return replacement;
}

void ComposedRandomizer::FlipRandomSubset(SignVector* v, int64_t count,
                                          Rng* rng) const {
  FR_DCHECK(count >= 0 && count <= spec_.k);
  // Partial Fisher-Yates over a per-call index buffer that starts from the
  // identity permutation of [0..k).
  const int64_t k = spec_.k;
  std::vector<int64_t> indices(static_cast<size_t>(k));
  std::iota(indices.begin(), indices.end(), int64_t{0});
  for (int64_t i = 0; i < count; ++i) {
    const auto j = static_cast<int64_t>(
        rng->NextInt(static_cast<uint64_t>(k - i))) + i;
    std::swap(indices[static_cast<size_t>(i)],
              indices[static_cast<size_t>(j)]);
    v->Flip(indices[static_cast<size_t>(i)]);
  }
}

}  // namespace futurerand::rand
