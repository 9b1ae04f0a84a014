#include "futurerand/randomizer/annulus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "futurerand/common/macros.h"
#include "futurerand/common/math.h"

namespace futurerand::rand {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

Status ValidateInputs(int64_t k, double epsilon) {
  if (k < 1) {
    return Status::InvalidArgument("composed randomizer requires k >= 1");
  }
  if (!(epsilon > 0.0) || !(epsilon <= 1.0)) {
    return Status::InvalidArgument(
        "the construction is analyzed for 0 < epsilon <= 1");
  }
  return Status::OK();
}

void SetBasicParams(AnnulusSpec* spec, double eps_tilde) {
  spec->eps_tilde = eps_tilde;
  // p = 1/(e^t + 1); compute 1-p = e^t/(e^t+1) via the stable sigmoid forms.
  spec->p = 1.0 / (std::exp(eps_tilde) + 1.0);
  spec->log_p = -std::log1p(std::exp(eps_tilde));
  spec->log_1mp = eps_tilde + spec->log_p;
}

}  // namespace

double AnnulusSpec::LogG(int64_t i) const {
  FR_DCHECK(i >= 0 && i <= k);
  return static_cast<double>(i) * log_p +
         static_cast<double>(k - i) * log_1mp;
}

double AnnulusSpec::LogProbabilityAtDistance(int64_t i) const {
  FR_CHECK(i >= 0 && i <= k);
  return InAnnulus(i) ? LogG(i) : log_p_out;
}

std::string AnnulusSpec::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "AnnulusSpec{k=%lld eps=%.4g eps~=%.4g p=%.6g "
                "ann=[%lld..%lld] ln(P*out)=%.6g c_gap=%.6g cert_eps=%.6g}",
                static_cast<long long>(k), epsilon, eps_tilde, p,
                static_cast<long long>(i_low), static_cast<long long>(i_high),
                log_p_out, c_gap, certified_epsilon);
  return buffer;
}

namespace internal {

Status FinalizeSpec(AnnulusSpec* spec) {
  const int64_t k = spec->k;

  spec->i_low = std::max<int64_t>(
      0, static_cast<int64_t>(std::ceil(spec->lb_real)));
  spec->i_high = std::min<int64_t>(
      k, static_cast<int64_t>(std::floor(spec->ub_real)));
  if (spec->i_low > spec->i_high) {
    return Status::Internal("empty integer annulus: " + spec->ToString());
  }
  spec->complement_empty = (spec->i_low == 0 && spec->i_high == k);

  // P*_out (Equation 24): the common probability assigned to every sequence
  // outside the annulus. Numerator and denominator are binomial tails,
  // combined in log space.
  if (spec->complement_empty) {
    spec->log_p_out = kNegInf;
  } else {
    std::vector<double> log_numerator;
    std::vector<double> log_denominator;
    for (int64_t i = 0; i <= k; ++i) {
      if (spec->InAnnulus(i)) {
        continue;
      }
      const double log_count = LogBinomial(k, i);
      log_numerator.push_back(log_count + spec->LogG(i));
      log_denominator.push_back(log_count);
    }
    spec->log_p_out = LogSumExp(log_numerator) - LogSumExp(log_denominator);
  }

  // Exact c_gap (proof of Lemma 5.3, final form):
  //   c_gap = sum_{i in Ann} C(k,i) * (g(i) - P*_out) * (k-2i)/k.
  // Every product C(k,i)*g(i) and C(k,i)*P*_out is a probability mass <= 1,
  // so exponentiating the log-sums is safe. Kahan summation keeps the
  // accumulation exact enough for k in the millions.
  double gap = 0.0;
  double compensation = 0.0;
  for (int64_t i = spec->i_low; i <= spec->i_high; ++i) {
    const double log_count = LogBinomial(k, i);
    const double mass_in = std::exp(log_count + spec->LogG(i));
    const double mass_out =
        spec->complement_empty ? 0.0 : std::exp(log_count + spec->log_p_out);
    const double weight =
        static_cast<double>(k - 2 * i) / static_cast<double>(k);
    const double term = (mass_in - mass_out) * weight - compensation;
    const double next = gap + term;
    compensation = (next - gap) - term;
    gap = next;
  }
  spec->c_gap = gap;
  if (!(spec->c_gap > 0.0)) {
    return Status::Internal("non-positive c_gap: " + spec->ToString());
  }

  // Exact privacy extremes (Lemma 5.2). Output probabilities take only the
  // values {g(i) : i in [i_low..i_high]} plus P*_out when the complement is
  // non-empty; g is strictly decreasing in i.
  spec->log_p_max = spec->LogG(spec->i_low);
  spec->log_p_min = spec->LogG(spec->i_high);
  if (!spec->complement_empty) {
    spec->log_p_max = std::max(spec->log_p_max, spec->log_p_out);
    spec->log_p_min = std::min(spec->log_p_min, spec->log_p_out);
  }
  spec->certified_epsilon = spec->log_p_max - spec->log_p_min;
  return Status::OK();
}

}  // namespace internal

Result<AnnulusSpec> MakeFutureRandSpec(int64_t k, double epsilon) {
  FR_RETURN_NOT_OK(ValidateInputs(k, epsilon));
  AnnulusSpec spec;
  spec.name = "future_rand";
  spec.k = k;
  spec.epsilon = epsilon;
  const double sqrt_k = std::sqrt(static_cast<double>(k));
  SetBasicParams(&spec, epsilon / (5.0 * sqrt_k));

  // LB = kp - 2 sqrt(k); UB = (k/eps~) ln(2 e^{eps~} / (e^{eps~} + 1))
  // (Equation 15). UB is chosen so that g(UB) = 2^{-k}.
  const double kd = static_cast<double>(k);
  spec.lb_real = kd * spec.p - 2.0 * sqrt_k;
  spec.ub_real = kd / spec.eps_tilde *
                 (std::log(2.0) + spec.eps_tilde + spec.log_p);
  FR_RETURN_NOT_OK(internal::FinalizeSpec(&spec));
  return spec;
}

Result<AnnulusSpec> MakeBunSpec(int64_t k, double epsilon) {
  FR_RETURN_NOT_OK(ValidateInputs(k, epsilon));
  AnnulusSpec spec;
  spec.name = "bun";
  spec.k = k;
  spec.epsilon = epsilon;

  // Fact A.6 requires
  //   epsilon = 6 eps~ sqrt(k ln(1/lambda))          (Equation 46)
  //   0 < lambda < (eps~ sqrt(k) / (2(k+1)))^{2/3}   (Equation 45)
  // Given (k, epsilon) we take lambda at half its admissible bound and solve
  // the coupled system by fixed-point iteration; it contracts rapidly since
  // lambda enters eps~ only through sqrt(ln(1/lambda)).
  const double kd = static_cast<double>(k);
  double lambda = 1e-3;
  double eps_tilde = 0.0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    eps_tilde = epsilon / (6.0 * std::sqrt(kd * std::log(1.0 / lambda)));
    const double bound =
        std::pow(eps_tilde * std::sqrt(kd) / (2.0 * (kd + 1.0)), 2.0 / 3.0);
    const double next_lambda = 0.5 * bound;
    if (std::abs(next_lambda - lambda) <= 1e-15 * lambda) {
      lambda = next_lambda;
      break;
    }
    lambda = next_lambda;
  }
  if (!(lambda > 0.0) || !(lambda < 1.0)) {
    return Status::Internal("Bun et al. lambda solver failed to converge");
  }
  spec.lambda = lambda;
  SetBasicParams(&spec, epsilon / (6.0 * std::sqrt(kd * std::log(1.0 / lambda))));

  // LB/UB = kp -+ sqrt((k/2) ln(2/lambda)) (Equation 43).
  const double radius = std::sqrt(kd / 2.0 * std::log(2.0 / lambda));
  spec.lb_real = kd * spec.p - radius;
  spec.ub_real = kd * spec.p + radius;
  FR_RETURN_NOT_OK(internal::FinalizeSpec(&spec));
  return spec;
}

Result<AnnulusSpec> MakeAnnulusSpec(RandomizerKind kind, int64_t k,
                                    double epsilon) {
  switch (kind) {
    case RandomizerKind::kFutureRand:
      return MakeFutureRandSpec(k, epsilon);
    case RandomizerKind::kBun:
      return MakeBunSpec(k, epsilon);
    default: {
      std::string message = "randomizer kind ";
      message += RandomizerKindToString(kind);
      message += " has no annulus spec";
      return Status::InvalidArgument(message);
    }
  }
}

}  // namespace futurerand::rand
