#include "futurerand/analysis/privacy_audit.h"

#include <tuple>

#include <gtest/gtest.h>

#include "futurerand/randomizer/annulus.h"

namespace futurerand::analysis {
namespace {

using GridParam = std::tuple<int64_t, double>;

class RandomizerAuditGridTest : public ::testing::TestWithParam<GridParam> {
 protected:
  int64_t k() const { return std::get<0>(GetParam()); }
  double epsilon() const { return std::get<1>(GetParam()); }
};

TEST_P(RandomizerAuditGridTest, FutureRandPassesExactAudit) {
  // Machine-checked Lemma 5.2 across the grid.
  const AuditResult audit =
      AuditRandomizer(rand::RandomizerKind::kFutureRand, k(), epsilon())
          .ValueOrDie();
  EXPECT_TRUE(audit.satisfied) << audit.ToString();
  EXPECT_GT(audit.certified_epsilon, 0.0);
  EXPECT_LT(audit.normalization_error, 1e-9);
}

TEST_P(RandomizerAuditGridTest, IndependentCertifiesExactlyEpsilon) {
  const AuditResult audit =
      AuditRandomizer(rand::RandomizerKind::kIndependent, k(), epsilon())
          .ValueOrDie();
  EXPECT_TRUE(audit.satisfied);
  EXPECT_DOUBLE_EQ(audit.certified_epsilon, epsilon());
}

TEST_P(RandomizerAuditGridTest, AdaptivePassesAudit) {
  const AuditResult audit =
      AuditRandomizer(rand::RandomizerKind::kAdaptive, k(), epsilon())
          .ValueOrDie();
  EXPECT_TRUE(audit.satisfied) << audit.ToString();
  // Adaptive audits exactly as the construction its instances are.
  const rand::RandomizerKind choice =
      rand::ChooseAdaptiveKind(k(), epsilon()).ValueOrDie();
  const AuditResult expected =
      AuditRandomizer(choice, k(), epsilon()).ValueOrDie();
  EXPECT_EQ(audit.certified_epsilon, expected.certified_epsilon);
  EXPECT_EQ(audit.nominal_epsilon, expected.nominal_epsilon);
  EXPECT_EQ(audit.satisfied, expected.satisfied);
  EXPECT_EQ(audit.normalization_error, expected.normalization_error);
}

INSTANTIATE_TEST_SUITE_P(
    KEpsGrid, RandomizerAuditGridTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 5, 16, 64, 257, 1024),
                       ::testing::Values(0.1, 0.5, 1.0)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_eps";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      return name;
    });

TEST(RandomizerAuditTest, BunAuditReportsConservativeCertificate) {
  // Fact A.6 claims eps-DP; the exact ratio is in fact far below eps for
  // their parameterization (the cost of the smaller c_gap).
  const AuditResult audit =
      AuditRandomizer(rand::RandomizerKind::kBun, 64, 1.0).ValueOrDie();
  EXPECT_TRUE(audit.satisfied);
  EXPECT_LT(audit.certified_epsilon, 0.5);
}

TEST(RandomizerAuditTest, PropagatesInvalidParameters) {
  EXPECT_FALSE(
      AuditRandomizer(rand::RandomizerKind::kFutureRand, 0, 1.0).ok());
  EXPECT_FALSE(
      AuditRandomizer(rand::RandomizerKind::kIndependent, 4, 0.0).ok());
}

TEST(OnlineClientAuditTest, RejectsUnreasonableLength) {
  const rand::AnnulusSpec spec =
      rand::MakeFutureRandSpec(2, 1.0).ValueOrDie();
  EXPECT_FALSE(AuditOnlineClient(spec, 0).ok());
  EXPECT_FALSE(AuditOnlineClient(spec, 13).ok());
}

TEST(OnlineClientAuditTest, FullSequenceLawIsPrivateAndNormalized) {
  // Exhaustive Section 5.4 audit: every pair of (<= k)-sparse inputs of
  // length 5, every output sequence.
  for (int64_t k : {1, 2, 3}) {
    const rand::AnnulusSpec spec =
        rand::MakeFutureRandSpec(k, 1.0).ValueOrDie();
    const AuditResult audit = AuditOnlineClient(spec, 5).ValueOrDie();
    EXPECT_TRUE(audit.satisfied) << "k=" << k << " " << audit.ToString();
    EXPECT_LT(audit.normalization_error, 1e-9) << "k=" << k;
    EXPECT_GT(audit.certified_epsilon, 0.0);
  }
}

TEST(OnlineClientAuditTest, SmallerEpsilonYieldsSmallerCertificate) {
  const rand::AnnulusSpec tight =
      rand::MakeFutureRandSpec(2, 0.2).ValueOrDie();
  const rand::AnnulusSpec loose =
      rand::MakeFutureRandSpec(2, 1.0).ValueOrDie();
  const AuditResult tight_audit = AuditOnlineClient(tight, 4).ValueOrDie();
  const AuditResult loose_audit = AuditOnlineClient(loose, 4).ValueOrDie();
  EXPECT_LT(tight_audit.certified_epsilon, loose_audit.certified_epsilon);
  EXPECT_TRUE(tight_audit.satisfied);
}

TEST(OnlineClientAuditTest, LengthOneDegenerateCase) {
  const rand::AnnulusSpec spec =
      rand::MakeFutureRandSpec(1, 0.5).ValueOrDie();
  const AuditResult audit = AuditOnlineClient(spec, 1).ValueOrDie();
  EXPECT_TRUE(audit.satisfied);
}

TEST(AuditResultTest, ToStringShowsVerdict) {
  AuditResult audit;
  audit.certified_epsilon = 0.4;
  audit.nominal_epsilon = 0.5;
  audit.satisfied = true;
  EXPECT_NE(audit.ToString().find("PASS"), std::string::npos);
  audit.satisfied = false;
  EXPECT_NE(audit.ToString().find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace futurerand::analysis
