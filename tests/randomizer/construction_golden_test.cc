// Golden values for randomizer construction: every kind's online output on a
// fixed input sequence, and FutureRand's / Bun's pre-computed noise vector
// b~ = R~(1^k) over several seeds, pinned as literals.
//
// The fleet and the per-client path share one construction route, so the
// bit-identity tests between them cannot see a drift common to both (a
// change to the annulus parameters, the sampler's alias table or the
// Fisher-Yates resample order). These literals can.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/randomizer/annulus.h"
#include "futurerand/randomizer/future_rand.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::rand {
namespace {

// Derivatives of a Boolean state that starts at 0, so the longitudinal kinds
// accept it too. Five non-zero entries: one more than the dyadic cases'
// k = 4, so the over-budget clamp runs as well.
const std::vector<int8_t> kInputs = {1, 0, 0, -1, 0, 1, 0, 0,
                                     0, -1, 0, 0, 1, 0, 0, 0};

std::string Signs(const std::vector<int8_t>& values) {
  std::string out;
  for (const int8_t v : values) {
    out.push_back(v == 1 ? '+' : '-');
  }
  return out;
}

struct OutputCase {
  RandomizerKind kind;
  int64_t max_support;
  double epsilon;
  double alpha;
  uint64_t seed;
  const char* name;     // name() of the built instance
  const char* outputs;  // one sign per kInputs entry
};

TEST(ConstructionGoldenTest, EveryKindsOutputsArePinned) {
  const OutputCase cases[] = {
      {RandomizerKind::kFutureRand, 4, 1.0, 0.5, 101, "future_rand",
       "++-+-+--+---+-+-"},
      {RandomizerKind::kIndependent, 4, 1.0, 0.5, 102, "independent",
       "--+++++--+++-+-+"},
      {RandomizerKind::kBun, 4, 1.0, 0.5, 103, "bun", "------+++-++--+-"},
      {RandomizerKind::kAdaptive, 4, 1.0, 0.5, 104, "independent",
       "-+-+++--+-+++++-"},
      {RandomizerKind::kAdaptive, 64, 1.0, 0.5, 105, "future_rand",
       "+--++-+++++---+-"},
      {RandomizerKind::kLGrr, 4, 1.0, 0.5, 106, "lgrr", "++--+++-+---++++"},
      {RandomizerKind::kLOlh, 4, 1.0, 0.4, 107, "lolh", "++-+-++++-++-+++"},
      {RandomizerKind::kLoloha, 4, 0.8, 0.5, 108, "loloha",
       "+--++-+--+++----"},
  };
  const auto length = static_cast<int64_t>(kInputs.size());
  for (const OutputCase& c : cases) {
    SCOPED_TRACE(RandomizerKindToString(c.kind));
    std::unique_ptr<SequenceRandomizer> randomizer =
        MakeSequenceRandomizer(c.kind, length, c.max_support, c.epsilon,
                               c.seed, c.alpha)
            .ValueOrDie();
    EXPECT_EQ(randomizer->name(), c.name);
    std::vector<int8_t> outputs(kInputs.size());
    for (size_t j = 0; j < kInputs.size(); ++j) {
      outputs[j] = randomizer->Randomize(kInputs[j]);
    }
    EXPECT_EQ(Signs(outputs), c.outputs);
  }
}

// k = 64, eps = 1: both annuli leave distances on either side uncovered.
// About half of FutureRand's draws of R~(1^k) land outside and are
// resampled.
constexpr int64_t kNoiseK = 64;
constexpr double kNoiseEps = 1.0;

struct NoiseCase {
  uint64_t seed;
  const char* b_tilde;
};

// Returns how many pinned vectors lie outside the annulus, i.e. came from
// the resample (FlipRandomSubset) path.
int64_t CountResampled(const AnnulusSpec& spec,
                       const std::vector<std::string>& vectors) {
  int64_t outside = 0;
  for (const std::string& v : vectors) {
    int64_t negatives = 0;
    for (const char c : v) {
      negatives += c == '-' ? 1 : 0;
    }
    outside += spec.InAnnulus(negatives) ? 0 : 1;
  }
  return outside;
}

TEST(ConstructionGoldenTest, FutureRandPrecomputedNoiseIsPinned) {
  const NoiseCase cases[] = {
      {1, "+-++--+-+--+-++-+-++--++--+----+-++--+---++-+-+----++++-+----+-+"},
      {2, "+++--+-+-++++++-+---++++-----+++--++-++-+-+--+-+--+-+---+-++-+-+"},
      {3, "-+++-+-+-+-+-+----++----+----+++++-+---+++-+-+-+----+----+--++++"},
      {4, "++-+-+++---+++-+-+++---++-+++++++-+-+--++-+-++----+-+++-+++-+---"},
      {5, "-+--++--+++++-++++-+--+--+-+-+-+-+---++++---+--++++--++-+-+-+-+-"},
      {6, "-+-+-+--+-+-+-+++-+----++-+++-----+++-+--++-+-----+--++-------+-"},
  };
  const AnnulusSpec spec =
      MakeFutureRandSpec(kNoiseK, kNoiseEps).ValueOrDie();
  ASSERT_FALSE(spec.complement_empty);
  std::vector<std::string> pinned;
  for (const NoiseCase& c : cases) {
    std::unique_ptr<FutureRandRandomizer> randomizer =
        FutureRandRandomizer::Create(kNoiseK, kNoiseK, kNoiseEps, c.seed)
            .ValueOrDie();
    EXPECT_EQ(randomizer->precomputed_noise().ToString(), c.b_tilde)
        << "seed " << c.seed;
    pinned.emplace_back(c.b_tilde);
  }
  // Both paths are pinned: some draws resampled, some kept.
  const int64_t resampled = CountResampled(spec, pinned);
  EXPECT_GE(resampled, 1);
  EXPECT_LT(resampled, static_cast<int64_t>(pinned.size()));
}

TEST(ConstructionGoldenTest, BunPrecomputedNoiseIsPinned) {
  // Bun's b~ is read back through the online path: the j-th +1 input is
  // answered with b~_j exactly. Bun's annulus is wide ([18..46] here), so
  // only about one draw in 5000 is resampled; seeds 422, 1124 and 16657
  // are such draws.
  const NoiseCase cases[] = {
      {1, "++-+-+++--+-----+-++-+---+-++++++++--+++-+-++++---++----------+-"},
      {2, "+++--+-+-++++++-+---++++-----+++--++-++-+-+--+-+--+-+---+-++-+-+"},
      {3, "-++++--++-+------+++----++++--+-+-+----++---+++++-++-----+-+----"},
      {422,
       "-----+--------+-+-+-+---++-----------+-+--+-+--+---+-+--+-----+-"},
      {1124,
       "-++-+--+-++--++------++-------+---+-+----+----------------++-+--"},
      {16657,
       "-+++-+++--+++++++--++--+++-+++++-++++++-++++-+-+-+++-+++++++-++-"},
  };
  const AnnulusSpec spec = MakeBunSpec(kNoiseK, kNoiseEps).ValueOrDie();
  ASSERT_FALSE(spec.complement_empty);
  std::vector<std::string> pinned;
  for (const NoiseCase& c : cases) {
    std::unique_ptr<SequenceRandomizer> randomizer =
        MakeSequenceRandomizer(RandomizerKind::kBun, kNoiseK, kNoiseK,
                               kNoiseEps, c.seed)
            .ValueOrDie();
    std::vector<int8_t> noise;
    for (int64_t j = 0; j < kNoiseK; ++j) {
      noise.push_back(randomizer->Randomize(int8_t{1}));
    }
    EXPECT_EQ(Signs(noise), c.b_tilde) << "seed " << c.seed;
    pinned.emplace_back(c.b_tilde);
  }
  EXPECT_GE(CountResampled(spec, pinned), 1);
}

}  // namespace
}  // namespace futurerand::rand
