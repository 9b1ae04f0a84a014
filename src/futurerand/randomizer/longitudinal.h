// Arcolezi-line memoized longitudinal randomizers (L-GRR, L-OLH, LOLOHA).
//
// These constructions protect a user's value sequence with a two-round
// chained GRR: a permanent first round at eps_perm memoizes one sanitized
// value per true value (sampled once, reused for every subsequent report of
// that value), and a fresh second round at the derived eps_1 = alpha *
// eps_perm perturbs the memoized value every tick. The memoization shield
// bounds any number of reports of one *unchanged* value by eps_perm, while
// each individual report is only eps_1-DP — the eps_perm/eps_1 split the
// longitudinal literature calls "privacy over time". It does not bound a
// sequence whose value changes: which memo is replayed after a change
// leaks through the fresh per-tick noise, and that loss grows with the
// domain (README, docs/ARCHITECTURE.md §9).
//
//   kLGrr    L-GRR: chained GRR directly on the Boolean domain (g = 2).
//   kLOlh    L-OLH: hash into [0, g) with a per-value seed, then L-GRR over
//            g; g is the optimal-g parameterization of the L-LH family.
//   kLoloha  OLOLOHA: one permanent per-client hash seed shared by every
//            value, the same optimal g, parameterized by alpha.
//
// Fit into the SequenceRandomizer interface: unlike the dyadic
// constructions, a longitudinal client sits at level 0 and reports every
// tick. The randomizer ingests the level-0 partial sum — which at level 0
// is exactly the derivative st[t] - st[t-1] — and integrates it back into
// the Boolean state internally, so the fleet/client tick paths feed it
// exactly like any other kind. The +/-1 output is the support bit of the
// sanitized report against the hash of value 1 (or the report itself for
// kLGrr), keeping the existing one-bit wire format:
//
//   E[report | st = 1] = u1 = 2*p_stay - 1
//   E[report | st = 0] = u0   (kLGrr: 1 - 2*p_stay; hashing kinds: 2/g - 1)
//
// so the server's direct estimator n1_hat(t) = (S_t - n*u0) / (u1 - u0) is
// unbiased (see core::EstimatorSpec). c_gap() returns u1 - u0, the
// estimator's sensitivity gap.
//
// All randomness is drawn from a serializable SplitMix64 chain, so the
// memoized state round-trips bit-identically through FRW fleet snapshots
// (core::ClientFleet::EncodeLongitudinalState, FORMATS.md kind 9).

#ifndef FUTURERAND_RANDOMIZER_LONGITUDINAL_H_
#define FUTURERAND_RANDOMIZER_LONGITUDINAL_H_

#include <cstdint>
#include <memory>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {

/// The exact two-round GRR parameterization of one longitudinal kind for
/// (eps_perm, alpha). Pure arithmetic — shared by the randomizer, the
/// server's estimator plumbing and the statistical gate.
struct LongitudinalSpec {
  RandomizerKind kind = RandomizerKind::kLGrr;
  double eps_perm = 0.0;  // bound for reports of one unchanged value (the
                          // config epsilon); not a full-sequence bound
  double eps_1 = 0.0;     // single-report lower bound, alpha * eps_perm
  double alpha = 0.0;     // eps_1 / eps_perm, in (0, 1)
  int64_t g = 2;          // GRR domain size (2 for kLGrr; optimal-g else)
  double p1 = 0.0;        // round-1 keep probability e^eps_perm/(e^eps_perm+g-1)
  double q1 = 0.0;        // (1 - p1) / (g - 1)
  double p2 = 0.0;        // round-2 keep probability (derived, see .cc)
  double q2 = 0.0;        // (1 - p2) / (g - 1)
  double p_stay = 0.0;    // Pr[sanitized == memoized input] = p1*p2+(g-1)*q1*q2
  double u1 = 0.0;        // E[+/-1 report | true value 1]
  double u0 = 0.0;        // E[+/-1 report | true value 0]

  /// The estimator's sensitivity gap u1 - u0 (> 0 for every valid spec).
  double gap() const { return u1 - u0; }
};

/// Computes the exact spec for the kind. Errors unless 0 < epsilon <= 1
/// (the repo's regime), 0 < alpha < 1, and the derived round-2
/// probabilities are non-negative (alpha too close to 1 makes p2 negative
/// for some g — the SNIPPETS reference rejects those too).
Result<LongitudinalSpec> MakeLongitudinalSpec(RandomizerKind kind,
                                              double epsilon, double alpha);

/// The optimal GRR domain size g for the hashing kinds (L-OLH / OLOLOHA)
/// at (eps_perm, alpha), floored at 2. kLGrr always uses g = 2.
int64_t OptimalLongitudinalG(double eps_perm, double alpha);

/// One client's memoized longitudinal randomizer.
class LongitudinalRandomizer : public SequenceRandomizer {
 public:
  /// Serializable snapshot of every bit of mutable state plus the
  /// creation-time hash seeds. Plain struct (no wire dependency — the
  /// randomizer layer sits below core); core/fleet.cc owns the FRW framing.
  struct State {
    uint64_t rng_state = 0;    // SplitMix64 chain position
    int64_t position = 0;      // inputs consumed so far
    int8_t tracked_state = 0;  // integrated Boolean value st[t]
    int64_t changes = 0;       // non-zero derivatives seen (support_used)
    // Per true value v in {0, 1}: the permanent hash seed (hashing kinds;
    // kLoloha shares one seed across both slots, kLGrr leaves them 0) and
    // the memoized first-round value in [0, g), -1 until first sampled.
    uint64_t hash_seed[2] = {0, 0};
    int32_t memo[2] = {-1, -1};
  };

  /// Creates a length-L randomizer. `max_support` is accepted for factory
  /// signature uniformity but ignored: a longitudinal client reports every
  /// tick and never clamps (max_support() == length()). All randomness —
  /// the kLoloha permanent seed included — derives from `seed`.
  static Result<std::unique_ptr<LongitudinalRandomizer>> Create(
      RandomizerKind kind, int64_t length, double epsilon, double alpha,
      uint64_t seed);

  /// Builds an instance around a resolved spec, shared read-only by every
  /// instance with the same (kind, epsilon, alpha). Cannot fail; requires
  /// length >= 1.
  static std::unique_ptr<LongitudinalRandomizer> Make(
      std::shared_ptr<const LongitudinalSpec> spec, int64_t length,
      uint64_t seed);

  /// `value` is the level-0 partial sum, i.e. the derivative in {-1,0,+1};
  /// the implied state must stay in {0,1} (the fleet validates this).
  int8_t Randomize(int8_t value) override;

  double c_gap() const override { return spec_->gap(); }
  int64_t length() const override { return length_; }
  int64_t max_support() const override { return length_; }
  double epsilon() const override { return spec_->eps_perm; }
  int64_t position() const override { return state_.position; }
  int64_t support_used() const override { return state_.changes; }
  int64_t support_overflow_count() const override { return 0; }
  std::string name() const override;

  const LongitudinalSpec& spec() const { return *spec_; }

  /// The full mutable state, for FRW fleet snapshots.
  State ExportState() const { return state_; }

  /// Replaces the state wholesale. Validates every field against the spec
  /// (memo range, position vs length, Boolean state) so a forged snapshot
  /// cannot put the randomizer into an impossible configuration.
  Status ImportState(const State& state);

  /// The validation half of ImportState, without the mutation — callers
  /// restoring many randomizers at once (core/fleet.cc) validate everything
  /// first so a bad blob leaves every instance untouched.
  Status ValidateState(const State& state) const;

 private:
  LongitudinalRandomizer(std::shared_ptr<const LongitudinalSpec> spec,
                         int64_t length, const State& state);

  // Two-round GRR over [0, g), consuming draws from the SplitMix64 chain.
  int32_t GrrSample(int32_t input, double keep_probability);

  // The permanent hash seed used for value `v` (sampling it lazily for
  // kLOlh) and the memoized first-round value, sampling it on first use.
  int32_t MemoizedFirstRound(int v);

  std::shared_ptr<const LongitudinalSpec> spec_;  // shared, read-only
  int64_t length_ = 0;
  State state_;
};

}  // namespace futurerand::rand

#endif  // FUTURERAND_RANDOMIZER_LONGITUDINAL_H_
