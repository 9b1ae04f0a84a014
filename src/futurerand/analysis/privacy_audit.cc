#include "futurerand/analysis/privacy_audit.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "futurerand/common/macros.h"
#include "futurerand/randomizer/exact_dist.h"
#include "futurerand/randomizer/longitudinal.h"

namespace futurerand::analysis {

namespace {

constexpr double kRatioTolerance = 1e-9;

// Enumerates all {-1,0,+1}^length vectors with at most max_support non-zero
// entries, in base-3 counting order.
std::vector<std::vector<int8_t>> EnumerateSparseInputs(int64_t length,
                                                       int64_t max_support) {
  std::vector<std::vector<int8_t>> inputs;
  std::vector<int8_t> current(static_cast<size_t>(length), -1);
  while (true) {
    int64_t support = 0;
    for (int8_t v : current) {
      support += (v != 0) ? 1 : 0;
    }
    if (support <= max_support) {
      inputs.push_back(current);
    }
    // Increment in base 3 over {-1,0,1}.
    size_t position = 0;
    while (position < current.size()) {
      if (current[position] < 1) {
        ++current[position];
        break;
      }
      current[position] = -1;
      ++position;
    }
    if (position == current.size()) {
      break;
    }
  }
  return inputs;
}

}  // namespace

std::string AuditResult::ToString() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "AuditResult{certified=%.6g nominal=%.6g %s norm_err=%.3g}",
                certified_epsilon, nominal_epsilon,
                satisfied ? "PASS" : "FAIL", normalization_error);
  return buffer;
}

Result<AuditResult> AuditRandomizer(rand::RandomizerKind kind,
                                    int64_t max_support, double epsilon,
                                    double alpha) {
  AuditResult audit;
  audit.nominal_epsilon = epsilon;
  switch (kind) {
    case rand::RandomizerKind::kFutureRand:
    case rand::RandomizerKind::kBun: {
      FR_ASSIGN_OR_RETURN(const rand::AnnulusSpec spec,
                          rand::MakeAnnulusSpec(kind, max_support, epsilon));
      audit.certified_epsilon = spec.certified_epsilon;
      audit.normalization_error = std::abs(rand::TotalMass(spec) - 1.0);
      break;
    }
    case rand::RandomizerKind::kIndependent: {
      // Example 4.2: p_max/p_min = e^{eps} exactly — k coordinates, each
      // contributing a factor e^{eps/k} between the extreme laws.
      if (max_support < 1) {
        return Status::InvalidArgument("require k >= 1");
      }
      if (!(epsilon > 0.0) || !(epsilon <= 1.0)) {
        return Status::InvalidArgument("require 0 < epsilon <= 1");
      }
      audit.certified_epsilon = epsilon;
      break;
    }
    case rand::RandomizerKind::kAdaptive: {
      FR_ASSIGN_OR_RETURN(const rand::RandomizerKind choice,
                          rand::ChooseAdaptiveKind(max_support, epsilon));
      return AuditRandomizer(choice, max_support, epsilon);
    }
    case rand::RandomizerKind::kLGrr:
    case rand::RandomizerKind::kLOlh:
    case rand::RandomizerKind::kLoloha: {
      FR_ASSIGN_OR_RETURN(const rand::LongitudinalSpec spec,
                          rand::MakeLongitudinalSpec(kind, epsilon, alpha));
      // The memoized first round is plain GRR at eps_perm and every report
      // is fresh-noise post-processing of its output, so the whole-sequence
      // ratio is exactly p1/q1 (hash collisions in the L-OLH/LOLOHA input
      // only shrink it).
      audit.certified_epsilon = std::log(spec.p1 / spec.q1);
      const auto g = static_cast<double>(spec.g);
      audit.normalization_error =
          std::abs(spec.p1 + (g - 1.0) * spec.q1 - 1.0) +
          std::abs(spec.p2 + (g - 1.0) * spec.q2 - 1.0);
      break;
    }
  }
  audit.satisfied =
      audit.certified_epsilon <= audit.nominal_epsilon + kRatioTolerance;
  return audit;
}

Result<AuditResult> AuditOnlineClient(const rand::AnnulusSpec& spec,
                                      int64_t length) {
  if (length < 1 || length > 12) {
    return Status::InvalidArgument(
        "exhaustive audit supports 1 <= length <= 12");
  }
  const std::vector<std::vector<int8_t>> inputs =
      EnumerateSparseInputs(length, spec.k);
  const auto num_outputs = uint64_t{1} << length;

  AuditResult audit;
  audit.nominal_epsilon = spec.epsilon;

  // For every output w, the certified epsilon contribution is
  // max_v ln P_v(w) - min_v ln P_v(w); track the global worst case and each
  // input's total mass.
  std::vector<double> total_mass(inputs.size(), 0.0);
  double worst_gap = 0.0;
  std::vector<int8_t> output(static_cast<size_t>(length));
  for (uint64_t bits = 0; bits < num_outputs; ++bits) {
    for (int64_t j = 0; j < length; ++j) {
      output[static_cast<size_t>(j)] =
          (bits >> j) & 1 ? int8_t{1} : int8_t{-1};
    }
    double log_max = -std::numeric_limits<double>::infinity();
    double log_min = std::numeric_limits<double>::infinity();
    for (size_t v = 0; v < inputs.size(); ++v) {
      FR_ASSIGN_OR_RETURN(
          double log_probability,
          rand::LogOnlineOutputProbability(spec, inputs[v], output));
      log_max = std::max(log_max, log_probability);
      log_min = std::min(log_min, log_probability);
      total_mass[v] += std::exp(log_probability);
    }
    worst_gap = std::max(worst_gap, log_max - log_min);
  }

  audit.certified_epsilon = worst_gap;
  for (double mass : total_mass) {
    audit.normalization_error =
        std::max(audit.normalization_error, std::abs(mass - 1.0));
  }
  audit.satisfied =
      audit.certified_epsilon <= audit.nominal_epsilon + kRatioTolerance;
  return audit;
}

}  // namespace futurerand::analysis
