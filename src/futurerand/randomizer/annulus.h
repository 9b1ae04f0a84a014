// The annulus parameter engine behind the composed randomizer R~
// (Section 5.2 and Appendix A.2).
//
// Given (k, epsilon) this computes, exactly and in log space:
//   - the per-coordinate flip probability p = 1/(e^{eps~}+1),
//   - the annulus [LB..UB] in Hamming distance from the input,
//   - the out-of-annulus uniform probability P*_out (Equation 24),
//   - the exact coordinate gap c_gap (proof of Lemma 5.3),
//   - the exact extreme output probabilities p'_min/p'_max and the privacy
//     ratio they certify (Lemma 5.2).
//
// Two parameterizations are provided: the paper's (FutureRand, Lemma 5.2:
// eps~ = eps/(5 sqrt k), LB = kp - 2 sqrt k, UB = (k/eps~) ln(2e^{eps~}/
// (e^{eps~}+1))) and Bun et al.'s (Appendix A.2: symmetric annulus
// kp -+ sqrt((k/2) ln(2/lambda)) with the (lambda, eps~) constraint system of
// Fact A.6 / Theorem A.7).

#ifndef FUTURERAND_RANDOMIZER_ANNULUS_H_
#define FUTURERAND_RANDOMIZER_ANNULUS_H_

#include <cstdint>
#include <string>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// Fully resolved parameters of one composed-randomizer instance.
struct AnnulusSpec {
  // Inputs.
  const char* name = "";  // the construction: "future_rand" or "bun"
  int64_t k = 0;          // number of composed coordinates
  double epsilon = 0;     // total privacy budget the construction certifies

  // Basic-randomizer parameters.
  double eps_tilde = 0;  // per-coordinate RR parameter
  double p = 0;          // flip probability 1/(e^{eps_tilde}+1)
  double log_p = 0;      // ln p
  double log_1mp = 0;    // ln (1-p)

  // Annulus, before and after integer clamping to [0..k].
  double lb_real = 0;
  double ub_real = 0;
  int64_t i_low = 0;   // ceil(lb_real) clamped to >= 0
  int64_t i_high = 0;  // floor(ub_real) clamped to <= k

  // Derived exact quantities.
  double log_p_out = 0;     // ln P*_out; -inf if the complement is empty
  bool complement_empty = false;
  double c_gap = 0;         // exact Pr[keep] - Pr[flip] per coordinate
  double log_p_min = 0;     // ln of the smallest output probability
  double log_p_max = 0;     // ln of the largest output probability
  double certified_epsilon = 0;  // log_p_max - log_p_min

  // Bun et al. only: the lambda parameter of Fact A.6 (0 when unused).
  double lambda = 0;

  /// ln g(i) = i ln p + (k-i) ln(1-p): the probability that coordinate-wise
  /// randomized response moves the input to one *specific* sequence at
  /// Hamming distance i.
  double LogG(int64_t i) const;

  /// ln Pr[R~(b) = s] for any s at Hamming distance `i` from the input b
  /// (by symmetry the output law depends on s only through the distance).
  double LogProbabilityAtDistance(int64_t i) const;

  /// True iff distance i lies inside the annulus.
  bool InAnnulus(int64_t i) const { return i >= i_low && i <= i_high; }

  /// Human-readable parameter dump for logs and harness output.
  std::string ToString() const;
};

/// Builds the FutureRand parameterization (Lemma 5.2). Requires k >= 1 and
/// 0 < epsilon <= 1 (the theorem's regime).
Result<AnnulusSpec> MakeFutureRandSpec(int64_t k, double epsilon);

/// Builds the Bun et al. parameterization (Appendix A.2), solving the
/// (lambda, eps~) constraint system of Fact A.6 by fixed-point iteration.
/// Requires k >= 1 and 0 < epsilon <= 1.
Result<AnnulusSpec> MakeBunSpec(int64_t k, double epsilon);

/// The annulus spec of a composed construction: MakeFutureRandSpec for
/// kFutureRand, MakeBunSpec for kBun. Every other kind has no annulus and
/// is an InvalidArgument error.
Result<AnnulusSpec> MakeAnnulusSpec(RandomizerKind kind, int64_t k,
                                    double epsilon);

namespace internal {

/// Completes a spec whose inputs, basic-randomizer parameters and real
/// annulus bounds are set: clamps the annulus, computes P*_out, c_gap and
/// the exact privacy extremes. Exposed for tests.
Status FinalizeSpec(AnnulusSpec* spec);

}  // namespace internal
}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_ANNULUS_H_
