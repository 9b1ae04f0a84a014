// fraudit: command-line privacy auditor.
//
//   fraudit --k=64 --eps=1.0 [--kind=future_rand] [--online_length=6]
//
// Prints the randomizer's resolved parameters (annulus, P*_out, exact
// c_gap) and the exact certified epsilon; optionally runs the exhaustive
// online-client audit, for any construction with an annulus (future_rand,
// bun, and adaptive when it picks future_rand). Exit code 0 iff every audit
// passes — usable as a deployment pre-flight check.

#include <cstdio>

#include "futurerand/analysis/privacy_audit.h"
#include "futurerand/common/flags.h"
#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/randomizer.h"

namespace {

using namespace futurerand;

int Run(int argc, char** argv) {
  int64_t k = 8;
  double eps = 1.0;
  std::string kind_name = "future_rand";
  int64_t online_length = 0;
  bool help = false;

  FlagParser parser;
  parser.AddInt64("k", &k, "sparsity budget (non-zero report positions)");
  parser.AddDouble("eps", &eps, "privacy budget (0 < eps <= 1)");
  parser.AddString("kind", &kind_name,
                   "future_rand | independent | bun | adaptive");
  parser.AddInt64("online_length", &online_length,
                  "if > 0, also run the exhaustive online-client audit for "
                  "this sequence length (cost ~ 6^L; keep <= 10)");
  parser.AddBool("help", &help, "print usage");

  const Status parse_status = parser.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n%s", parse_status.ToString().c_str(),
                 parser.Usage("fraudit").c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.Usage("fraudit").c_str(), stdout);
    return 0;
  }

  const auto kind = rand::ParseRandomizerKind(kind_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }

  const auto audit = analysis::AuditRandomizer(*kind, k, eps);
  if (!audit.ok()) {
    std::fprintf(stderr, "%s\n", audit.status().ToString().c_str());
    return 2;
  }
  // The audit has validated (k, eps), so a missing spec means the audited
  // construction has no annulus: independent, a longitudinal kind, or
  // adaptive when it picks independent.
  rand::RandomizerKind audited = *kind;
  if (audited == rand::RandomizerKind::kAdaptive) {
    audited = rand::ChooseAdaptiveKind(k, eps).ValueOrDie();
    std::printf("adaptive picks %s\n", rand::RandomizerKindToString(audited));
  }
  const auto spec = rand::MakeAnnulusSpec(audited, k, eps);
  if (spec.ok()) {
    std::printf("%s\n", spec->ToString().c_str());
  }
  std::printf("randomizer audit: %s\n", audit->ToString().c_str());
  bool all_passed = audit->satisfied;

  if (online_length > 0) {
    if (!spec.ok()) {
      std::fprintf(stderr,
                   "online audit needs an annulus construction "
                   "(future_rand, bun, or adaptive picking future_rand): "
                   "%s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    const auto online = analysis::AuditOnlineClient(*spec, online_length);
    if (!online.ok()) {
      std::fprintf(stderr, "%s\n", online.status().ToString().c_str());
      return 2;
    }
    std::printf("online client audit (L=%lld): %s\n",
                static_cast<long long>(online_length),
                online->ToString().c_str());
    all_passed = all_passed && online->satisfied;
  }

  std::printf(all_passed ? "ALL AUDITS PASSED\n" : "AUDIT FAILED\n");
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
