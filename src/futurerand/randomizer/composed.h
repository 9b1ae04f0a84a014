// The composed randomizer R~ of Algorithm 3: coordinate-wise randomized
// response followed by the annulus correction. Used offline by FutureRand's
// and Bun's pre-computation step (R~(1^k)) and directly testable on
// arbitrary inputs.

#ifndef FUTURERAND_RANDOMIZER_COMPOSED_H_
#define FUTURERAND_RANDOMIZER_COMPOSED_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "futurerand/common/alias_table.h"
#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/common/sign_vector.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/basic.h"

namespace futurerand::rand {

/// R~ : {-1,+1}^k -> {-1,+1}^k with correlated noise (Algorithm 3 lines 3-7).
///
/// Out-of-annulus replacement is implemented exactly: a Hamming distance is
/// drawn from the complement distribution (proportional to C(k, i)) through a
/// precomputed alias table, then a uniform random subset of that many
/// coordinates is flipped — a uniform sample from {-1,+1}^k \ Ann(b).
///
/// Immutable once built: Apply keeps no state between calls, so one instance
/// is shared read-only by every randomizer built for the same (k, eps) —
/// across threads too (rand::RandomizerFactory resolves it once per fleet).
class ComposedRandomizer {
 public:
  /// Builds R~ from a finalized annulus spec.
  static Result<ComposedRandomizer> Create(const AnnulusSpec& spec);

  /// Applies R~ to `b` using `rng` for all randomness. The output depends
  /// only on `b` and the draws from `rng`, never on earlier calls.
  SignVector Apply(const SignVector& b, Rng* rng) const;

  const AnnulusSpec& spec() const { return spec_; }

 private:
  ComposedRandomizer(const AnnulusSpec& spec, BasicRandomizer basic);

  /// Flips a uniformly chosen subset of `count` coordinates of `v`.
  void FlipRandomSubset(SignVector* v, int64_t count, Rng* rng) const;

  AnnulusSpec spec_;
  BasicRandomizer basic_;
  // Distance sampler over the annulus complement; empty when the annulus
  // covers all of [0..k].
  std::optional<AliasTable> complement_distances_;
  std::vector<int64_t> complement_values_;  // table slot -> distance
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_COMPOSED_H_
