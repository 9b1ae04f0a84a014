// The sequence-randomizer interface M of Section 4.2.
//
// A SequenceRandomizer perturbs a length-L sequence v_1..v_L over {-1,0,+1}
// with at most k non-zero entries, emitting one output in {-1,+1} per input
// as it arrives (online). Implementations must satisfy the paper's three
// properties:
//
//   Property I   (privacy): every output sequence w in {-1,+1}^L has
//                probability in [p_min, p_max] with p_max <= e^eps * p_min,
//                for every k-sparse input.
//   Property II  (signal):  Pr[out = v_j] - Pr[out = -v_j] = c_gap for every
//                non-zero v_j, with a common gap c_gap.
//   Property III (zeros):   zero inputs map to uniform +/-1.
//
// c_gap() must return the exact gap so the server's debiasing
// (1+log d) * c_gap^{-1} * omega is exactly unbiased (Observation 4.3).

#ifndef FUTURERAND_RANDOMIZER_RANDOMIZER_H_
#define FUTURERAND_RANDOMIZER_RANDOMIZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"

namespace futurerand::rand {

/// Online randomizer for one user's report sequence. Not thread-safe; each
/// client owns one instance per tracked sequence. Instances built by one
/// RandomizerFactory share its resolved parameters read-only.
class SequenceRandomizer {
 public:
  virtual ~SequenceRandomizer() = default;

  /// Perturbs the j-th input (j advances by one per call; at most length()
  /// calls). `value` must be -1, 0 or +1; the result is -1 or +1.
  ///
  /// Implementations clamp over-budget inputs: once max_support() non-zero
  /// values have been randomized, further non-zero values are treated as
  /// zeros (uniform output) so the privacy certificate never degrades;
  /// support_overflow_count() reports how many inputs were clamped.
  virtual int8_t Randomize(int8_t value) = 0;

  /// Exact common gap Pr[keep] - Pr[flip] for non-zero inputs (Property II).
  virtual double c_gap() const = 0;

  /// Sequence length L this randomizer was initialized for.
  virtual int64_t length() const = 0;

  /// Sparsity budget k.
  virtual int64_t max_support() const = 0;

  /// Privacy budget epsilon the construction certifies.
  virtual double epsilon() const = 0;

  /// Number of inputs consumed so far.
  virtual int64_t position() const = 0;

  /// Non-zero inputs randomized so far (capped at max_support()).
  virtual int64_t support_used() const = 0;

  /// Non-zero inputs that arrived after the support budget was exhausted and
  /// were clamped to uniform output.
  virtual int64_t support_overflow_count() const = 0;

  /// Short identifier, e.g. "future_rand".
  virtual std::string name() const = 0;
};

/// Which sequence-randomizer construction to instantiate.
enum class RandomizerKind {
  kFutureRand,   // Section 5 (Algorithm 3): composed + pre-computation
  kIndependent,  // Example 4.2: per-coordinate RR(eps/k)
  kBun,          // Appendix A.2: Bun et al.'s annulus in FutureRand's shell
  kAdaptive,     // kFutureRand or kIndependent, whichever has the larger c_gap
  // The Arcolezi-line memoized longitudinal constructions (see
  // randomizer/longitudinal.h): level-0 clients, every-tick reports, and a
  // direct (non-dyadic) server estimator with offset u0 and gap u1 - u0.
  kLGrr,    // chained GRR with permanent memoization (eps_perm/eps_1 split)
  kLOlh,    // L-LH with the optimal-g L-OLH parameterization
  kLoloha,  // OLOLOHA: one permanent hash seed, optimal g, alpha knob
};

/// Every RandomizerKind, in enum order — the single source of truth for
/// code that enumerates constructions (flag parsing, sweeps, tests).
inline constexpr RandomizerKind kAllRandomizerKinds[] = {
    RandomizerKind::kFutureRand,
    RandomizerKind::kIndependent,
    RandomizerKind::kBun,
    RandomizerKind::kAdaptive,
    RandomizerKind::kLGrr,
    RandomizerKind::kLOlh,
    RandomizerKind::kLoloha,
};

constexpr std::span<const RandomizerKind> AllRandomizerKinds() {
  return kAllRandomizerKinds;
}

/// True iff `kind` is one of the memoized longitudinal constructions
/// (randomizer/longitudinal.h): all clients at level 0, every-tick reports,
/// and a direct (non-dyadic) server estimator.
constexpr bool IsLongitudinalKind(RandomizerKind kind) {
  return kind == RandomizerKind::kLGrr || kind == RandomizerKind::kLOlh ||
         kind == RandomizerKind::kLoloha;
}

/// Stable display name for a RandomizerKind.
const char* RandomizerKindToString(RandomizerKind kind);

/// Parses a display name (as produced by RandomizerKindToString) back to
/// its kind by scanning AllRandomizerKinds() — the one parser every flag
/// surface shares.
Result<RandomizerKind> ParseRandomizerKind(const std::string& name);

/// One randomizer construction resolved for (kind, k, epsilon, alpha).
///
/// Everything an instance depends on except its length and seed is a
/// function of these parameters alone: the annulus spec and sampler of
/// FutureRand and Bun, Example 4.2's RR(eps/k), the longitudinal kinds'
/// LongitudinalSpec. Create does all of that work — and every fallible
/// check — once; Make then only draws the seeded per-instance state
/// (FutureRand's b~, for instance), and the instances share the resolved
/// parameters read-only. Copyable; Make is const and safe to call from
/// many threads at once.
class RandomizerFactory {
 public:
  /// Same parameter contract and errors as MakeSequenceRandomizer, minus
  /// the length: 0 < epsilon <= 1; `alpha` only matters for the
  /// longitudinal kinds, which ignore max_support. kAdaptive returns the
  /// factory of ChooseAdaptiveKind's pick, so its instances are plain
  /// FutureRand or Independent randomizers.
  static Result<RandomizerFactory> Create(RandomizerKind kind,
                                          int64_t max_support, double epsilon,
                                          double alpha = 0.5);

  /// A fresh randomizer for a length-L sequence whose randomness derives
  /// from `seed`; bit-identical to MakeSequenceRandomizer with the same
  /// arguments. Cannot fail; requires length >= 1.
  std::unique_ptr<SequenceRandomizer> Make(int64_t length,
                                           uint64_t seed) const;

  int64_t max_support() const { return max_support_; }

  /// Exact c_gap of every instance Make builds. Read from the same resolved
  /// parameters the instances read, so it is bit-identical to their
  /// c_gap(); the server's debiasing relies on that (see ExactCGap).
  double c_gap() const { return c_gap_; }

 private:
  using MakeFn = std::function<std::unique_ptr<SequenceRandomizer>(
      int64_t length, uint64_t seed)>;

  RandomizerFactory(int64_t max_support, double c_gap, MakeFn make);

  int64_t max_support_;
  double c_gap_;
  MakeFn make_;  // captures the resolved parameters by shared value
};

/// The kind kAdaptive builds for (k, epsilon): kFutureRand when its exact
/// c_gap is at least Example 4.2's, else kIndependent. An extension beyond
/// the paper: FutureRand's c_gap in Omega(eps/sqrt k) only beats the
/// independent Theta(eps/k) once k is moderately large (the constant 5 in
/// eps~ = eps/(5 sqrt k) costs a factor ~10 at small k). Both certify
/// eps-LDP, so the larger gap costs no privacy.
Result<RandomizerKind> ChooseAdaptiveKind(int64_t max_support,
                                          double epsilon);

/// Creates a randomizer of the given kind for a length-L sequence with at
/// most k non-zero entries under budget epsilon (0 < epsilon <= 1, the
/// paper's regime). `seed` determines all of the instance's randomness.
/// `alpha` only matters for the longitudinal kinds (the eps_1/eps_perm
/// split, in (0, 1)); the dyadic constructions ignore it, and the
/// longitudinal ones ignore max_support (they report every tick).
///
/// RandomizerFactory::Create followed by Make: it resolves the
/// construction for one instance. Callers building many instances with the
/// same (kind, k, epsilon, alpha) — a fleet — should hold one factory.
Result<std::unique_ptr<SequenceRandomizer>> MakeSequenceRandomizer(
    RandomizerKind kind, int64_t length, int64_t max_support, double epsilon,
    uint64_t seed, double alpha = 0.5);

/// Exact c_gap the given construction achieves for (k, epsilon), without
/// instantiating a randomizer (RandomizerFactory::Create(...).c_gap()).
/// Used by the server for debiasing and by the c_gap comparison experiment
/// (E6). For the longitudinal kinds this is the direct estimator's
/// sensitivity gap u1 - u0 at the given `alpha` (max_support is ignored
/// there).
Result<double> ExactCGap(RandomizerKind kind, int64_t max_support,
                         double epsilon, double alpha = 0.5);

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_RANDOMIZER_H_
