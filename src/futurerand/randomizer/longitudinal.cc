#include "futurerand/randomizer/longitudinal.h"

#include <cmath>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"

namespace futurerand::rand {

namespace {

// A SplitMix64 output mapped to [0, 1) with the full 53-bit mantissa.
double ToUnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Deterministic "hash function family": the permanent seed selects the
// member, the value indexes it. One SplitMix64 scramble gives the uniform
// [0, g) bucket the LH analysis needs (the 2^-64-scale modulo bias is far
// below double precision, so the 1/g collision marginal is exact for every
// practical purpose).
int32_t HashValueToG(uint64_t seed, int value, int64_t g) {
  uint64_t state =
      seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(value + 1));
  return static_cast<int32_t>(SplitMix64Next(&state) %
                              static_cast<uint64_t>(g));
}

}  // namespace

int64_t OptimalLongitudinalG(double eps_perm, double alpha) {
  // The closed-form utility-optimal g of the OLOLOHA / L-OLH analysis
  // (Arcolezi et al.), floored at the binary-hashing minimum g = 2.
  const double e1 = std::exp(eps_perm);
  const double e2 = std::exp(2.0 * eps_perm);
  const double e4 = std::exp(4.0 * eps_perm);
  const double ea = std::exp(eps_perm * alpha);
  const double root =
      std::sqrt(e4 - 14.0 * e2 - 12.0 * std::exp(2.0 * eps_perm * (alpha + 1.0)) +
                12.0 * std::exp(eps_perm * (alpha + 1.0)) +
                12.0 * std::exp(eps_perm * (alpha + 3.0)) + 1.0);
  const double numerator = root - e2 + 6.0 * e1 - 6.0 * ea + 1.0;
  const double denominator = 6.0 * (e1 - ea);
  const double g = std::nearbyint(numerator / denominator);
  if (!std::isfinite(g) || g < 2.0) {
    return 2;
  }
  return static_cast<int64_t>(g);
}

Result<LongitudinalSpec> MakeLongitudinalSpec(RandomizerKind kind,
                                              double epsilon, double alpha) {
  if (!IsLongitudinalKind(kind)) {
    return Status::InvalidArgument("not a longitudinal randomizer kind");
  }
  if (!(epsilon > 0.0) || !(epsilon <= 1.0)) {
    return Status::InvalidArgument(
        "the construction is analyzed for 0 < epsilon <= 1");
  }
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::InvalidArgument(
        "longitudinal alpha = eps_1/eps_perm must be in (0, 1)");
  }
  LongitudinalSpec spec;
  spec.kind = kind;
  spec.eps_perm = epsilon;
  spec.alpha = alpha;
  spec.eps_1 = alpha * epsilon;
  spec.g = kind == RandomizerKind::kLGrr
               ? 2
               : OptimalLongitudinalG(epsilon, alpha);
  const auto g = static_cast<double>(spec.g);
  const double e_perm = std::exp(spec.eps_perm);
  const double e_1 = std::exp(spec.eps_1);
  spec.p1 = e_perm / (e_perm + g - 1.0);
  spec.q1 = (1.0 - spec.p1) / (g - 1.0);
  // Round-2 keep probability solving e^{eps_1} = Pr[report | v] / Pr[report
  // | v'] for the composed two-round channel (the ALLOMFREE analysis).
  spec.p2 = (spec.q1 - e_1 * spec.p1) /
            (-spec.p1 * e_1 + g * spec.q1 * e_1 - spec.q1 * e_1 -
             spec.p1 * (g - 1.0) + spec.q1);
  spec.q2 = (1.0 - spec.p2) / (g - 1.0);
  for (const double p : {spec.p1, spec.q1, spec.p2, spec.q2}) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(
          "longitudinal probabilities leave [0, 1]; lower alpha "
          "(eps_1 must sit well below eps_perm)");
    }
  }
  spec.p_stay = spec.p1 * spec.p2 + (g - 1.0) * spec.q1 * spec.q2;
  spec.u1 = 2.0 * spec.p_stay - 1.0;
  // A value-0 client reports +1 when the sanitized report matches the
  // support candidate: for kLGrr that is the other Boolean value
  // (probability 1 - p_stay); for the hashing kinds the candidate's hash
  // collides with the client's own bucket with marginal probability 1/g.
  spec.u0 = kind == RandomizerKind::kLGrr ? 1.0 - 2.0 * spec.p_stay
                                          : 2.0 / g - 1.0;
  if (!(spec.gap() > 0.0)) {
    return Status::InvalidArgument(
        "longitudinal estimator gap u1 - u0 must be positive");
  }
  return spec;
}

LongitudinalRandomizer::LongitudinalRandomizer(
    std::shared_ptr<const LongitudinalSpec> spec, int64_t length,
    const State& state)
    : spec_(std::move(spec)), length_(length), state_(state) {}

Result<std::unique_ptr<LongitudinalRandomizer>> LongitudinalRandomizer::Create(
    RandomizerKind kind, int64_t length, double epsilon, double alpha,
    uint64_t seed) {
  if (length < 1) {
    return Status::InvalidArgument("sequence length must be >= 1");
  }
  FR_ASSIGN_OR_RETURN(LongitudinalSpec spec,
                      MakeLongitudinalSpec(kind, epsilon, alpha));
  return Make(std::make_shared<const LongitudinalSpec>(spec), length, seed);
}

std::unique_ptr<LongitudinalRandomizer> LongitudinalRandomizer::Make(
    std::shared_ptr<const LongitudinalSpec> spec, int64_t length,
    uint64_t seed) {
  FR_CHECK_MSG(length >= 1, "sequence length must be >= 1");
  State state;
  state.rng_state = seed;
  if (spec->kind == RandomizerKind::kLoloha) {
    // One permanent hash seed shared by every value — the LOLOHA
    // domain-reduction trick. Both slots alias it so the per-value lookup
    // below is kind-agnostic.
    const uint64_t shared = SplitMix64Next(&state.rng_state);
    state.hash_seed[0] = shared;
    state.hash_seed[1] = shared;
  }
  return std::unique_ptr<LongitudinalRandomizer>(
      new LongitudinalRandomizer(std::move(spec), length, state));
}

int32_t LongitudinalRandomizer::GrrSample(int32_t input,
                                          double keep_probability) {
  if (ToUnitDouble(SplitMix64Next(&state_.rng_state)) < keep_probability) {
    return input;
  }
  // Uniform among the other g - 1 values.
  const auto j = static_cast<int32_t>(
      SplitMix64Next(&state_.rng_state) % static_cast<uint64_t>(spec_->g - 1));
  return j >= input ? j + 1 : j;
}

int32_t LongitudinalRandomizer::MemoizedFirstRound(int v) {
  int32_t& memo = state_.memo[v];
  if (memo >= 0) {
    return memo;
  }
  if (spec_->kind == RandomizerKind::kLOlh) {
    // L-LH draws a fresh hash seed alongside each value's permanent
    // sanitization (the reference implementation memoizes the pair).
    state_.hash_seed[v] = SplitMix64Next(&state_.rng_state);
  }
  const int32_t input = spec_->kind == RandomizerKind::kLGrr
                            ? v
                            : HashValueToG(state_.hash_seed[v], v, spec_->g);
  memo = GrrSample(input, spec_->p1);
  return memo;
}

int8_t LongitudinalRandomizer::Randomize(int8_t value) {
  FR_CHECK_MSG(value == -1 || value == 0 || value == 1,
               "inputs must be in {-1, 0, +1}");
  FR_CHECK_MSG(state_.position < length_,
               "more inputs than the configured length");
  const int next = state_.tracked_state + value;
  FR_CHECK_MSG(next == 0 || next == 1,
               "derivative would move the Boolean state outside {0,1}");
  ++state_.position;
  if (value != 0) {
    ++state_.changes;
  }
  state_.tracked_state = static_cast<int8_t>(next);
  const int32_t second = GrrSample(MemoizedFirstRound(next), spec_->p2);
  if (spec_->kind == RandomizerKind::kLGrr) {
    return second == 1 ? int8_t{1} : int8_t{-1};
  }
  // Support bit against the hash of candidate value 1 under the seed that
  // produced this report's memoized round (the estimator's u1/u0 are
  // derived for exactly this comparison).
  const int32_t candidate = HashValueToG(state_.hash_seed[next], 1, spec_->g);
  return second == candidate ? int8_t{1} : int8_t{-1};
}

std::string LongitudinalRandomizer::name() const {
  return RandomizerKindToString(spec_->kind);
}

Status LongitudinalRandomizer::ImportState(const State& state) {
  FR_RETURN_NOT_OK(ValidateState(state));
  state_ = state;
  return Status::OK();
}

Status LongitudinalRandomizer::ValidateState(const State& state) const {
  if (state.position < 0 || state.position > length_) {
    return Status::InvalidArgument("imported position outside [0, length]");
  }
  if (state.tracked_state != 0 && state.tracked_state != 1) {
    return Status::InvalidArgument("imported Boolean state outside {0,1}");
  }
  if (state.changes < 0 || state.changes > state.position) {
    return Status::InvalidArgument("imported change count exceeds position");
  }
  for (int v = 0; v < 2; ++v) {
    if (state.memo[v] < -1 ||
        state.memo[v] >= static_cast<int32_t>(spec_->g)) {
      return Status::InvalidArgument("imported memo value outside [-1, g)");
    }
  }
  switch (spec_->kind) {
    case RandomizerKind::kLGrr:
      // Pure GRR never draws hash seeds; non-zero ones mean a forged or
      // cross-kind blob.
      if (state.hash_seed[0] != 0 || state.hash_seed[1] != 0) {
        return Status::InvalidArgument("kLGrr state carries hash seeds");
      }
      break;
    case RandomizerKind::kLOlh:
      // The seed is drawn in the same step that samples the memo, so an
      // unset memo must come with the unset-seed marker.
      for (int v = 0; v < 2; ++v) {
        if (state.memo[v] == -1 && state.hash_seed[v] != 0) {
          return Status::InvalidArgument(
              "kLOlh seed without a memoized value");
        }
      }
      break;
    case RandomizerKind::kLoloha:
      if (state.hash_seed[0] != state.hash_seed[1]) {
        return Status::InvalidArgument(
            "kLoloha state must share one permanent seed");
      }
      break;
    default:
      return Status::Internal("non-longitudinal spec in ValidateState");
  }
  return Status::OK();
}

}  // namespace futurerand::rand
