// Machine-checked privacy: exact audits of the randomizer constructions.
//
// Because every output law in this library has a closed form (annulus
// distances for the composed constructions, products of randomized-response
// factors for the independent one), the worst-case probability ratio over
// all input pairs and outputs — i.e. the *actual* epsilon — is computable
// exactly. AuditRandomizer certifies a single randomizer; AuditOnlineClient
// exhaustively audits the full online report sequence of a client running
// Algorithm 3's shell over one annulus (FutureRand's or Bun's), over every
// pair of k-sparse inputs of a given length.

#ifndef FUTURERAND_ANALYSIS_PRIVACY_AUDIT_H_
#define FUTURERAND_ANALYSIS_PRIVACY_AUDIT_H_

#include <cstdint>
#include <string>

#include "futurerand/common/result.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::analysis {

/// Outcome of a privacy audit.
struct AuditResult {
  /// ln of the worst-case output-probability ratio over all admissible
  /// input pairs: the epsilon the mechanism actually provides.
  double certified_epsilon = 0.0;

  /// The budget the construction claims.
  double nominal_epsilon = 0.0;

  /// certified <= nominal (with a tiny float tolerance).
  bool satisfied = false;

  /// Deviation of the total output probability mass from 1 (sanity check on
  /// the closed-form law); only set by audits that verify normalization.
  double normalization_error = 0.0;

  std::string ToString() const;
};

/// Exact audit of one sequence-randomizer construction for (k, epsilon)
/// using its closed-form law. Supports kFutureRand, kBun and kIndependent;
/// kAdaptive audits as rand::ChooseAdaptiveKind's pick, the construction
/// its instances are. The longitudinal kinds audit their eps_perm
/// certificate at the given `alpha` split, which covers any number of
/// reports of one *unchanged* value: each such report is fresh-noise
/// post-processing of the memoized first round, so the ratio is exactly
/// the first round's ln(p1/q1). It does not cover the paper's k-change
/// neighbour relation: after a change the replayed memo leaks through
/// per-tick noise, so the sequence-level loss grows with d. The dyadic
/// kinds ignore `alpha`.
Result<AuditResult> AuditRandomizer(rand::RandomizerKind kind,
                                    int64_t max_support, double epsilon,
                                    double alpha = 0.5);

/// Exhaustive audit of a full online client sequence over `spec` (any
/// rand::MakeAnnulusSpec result, run in Algorithm 3's shell): for every
/// pair of {-1,0,+1}^length inputs with at most spec.k non-zero entries and
/// every output in {-1,+1}^length, forms the exact probability ratio.
/// Exponential in `length` (cost ~ 6^length); intended for length <= 10.
/// Also verifies that each input's output law sums to 1.
Result<AuditResult> AuditOnlineClient(const rand::AnnulusSpec& spec,
                                      int64_t length);

}  // namespace futurerand::analysis

#endif  // FUTURERAND_ANALYSIS_PRIVACY_AUDIT_H_
