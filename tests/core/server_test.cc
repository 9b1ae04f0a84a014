#include "futurerand/core/server.h"

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::core {
namespace {

ProtocolConfig TestConfig(int64_t d = 8, int64_t k = 2, double eps = 1.0) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

// A server whose scale is 1 at every level turns report sums into plain
// (unscaled) interval sums — convenient for exact aggregation checks.
Server UnitServer(int64_t d) {
  const auto orders = static_cast<size_t>(Log2Exact(
                          static_cast<uint64_t>(d))) + 1;
  return Server::WithScales(d, std::vector<double>(orders, 1.0)).ValueOrDie();
}

TEST(ServerTest, ForProtocolComputesScaleFromCGap) {
  const ProtocolConfig config = TestConfig(8, 2, 1.0);
  Server server = Server::ForProtocol(config).ValueOrDie();
  const double c_gap =
      rand::ExactCGap(config.randomizer, 2, 1.0).ValueOrDie();
  for (int h = 0; h < config.num_orders(); ++h) {
    EXPECT_NEAR(server.ScaleAtLevel(h), 4.0 / c_gap, 1e-12);  // (1+log2 8)=4
  }
}

TEST(ServerTest, PerLevelScalesDifferWithAdaptiveSupport) {
  ProtocolConfig config = TestConfig(16, 8, 1.0);
  config.adapt_support_per_level = true;
  Server server = Server::ForProtocol(config).ValueOrDie();
  // At h=4 (L=1) support shrinks to 1 -> larger c_gap -> smaller scale.
  EXPECT_LT(server.ScaleAtLevel(4), server.ScaleAtLevel(0));
}

TEST(ServerTest, WithScalesValidatesShape) {
  EXPECT_FALSE(Server::WithScales(6, {1.0, 1.0}).ok());
  EXPECT_FALSE(Server::WithScales(8, {1.0, 1.0}).ok());  // needs 4 scales
  EXPECT_TRUE(Server::WithScales(8, {1.0, 1.0, 1.0, 1.0}).ok());
}

TEST(ServerTest, RegisterRejectsDuplicatesAndBadLevels) {
  Server server = UnitServer(8);
  EXPECT_TRUE(server.RegisterClient(1, 0).ok());
  EXPECT_EQ(server.RegisterClient(1, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(server.RegisterClient(2, -1).ok());
  EXPECT_FALSE(server.RegisterClient(2, 4).ok());
  EXPECT_EQ(server.num_clients(), 1);
  EXPECT_EQ(server.ClientCountAtLevel(0), 1);
}

TEST(ServerTest, SubmitValidation) {
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 1).ok());
  EXPECT_EQ(server.SubmitReport(99, 2, 1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(server.SubmitReport(1, 2, 0).ok());   // bad report value
  EXPECT_FALSE(server.SubmitReport(1, 3, 1).ok());   // 2 does not divide 3
  EXPECT_FALSE(server.SubmitReport(1, 0, 1).ok());   // out of range
  EXPECT_FALSE(server.SubmitReport(1, 10, 1).ok());  // out of range
  EXPECT_TRUE(server.SubmitReport(1, 2, 1).ok());
  // Duplicate / out-of-order for the same client.
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());
  EXPECT_TRUE(server.SubmitReport(1, 4, -1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());
}

TEST(ServerTest, EstimateUsesDyadicDecomposition) {
  // Unit scales: estimate at t is the plain sum of reports over C(t).
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());  // reports every period
  ASSERT_TRUE(server.RegisterClient(2, 1).ok());  // reports at 2,4,6,8
  ASSERT_TRUE(server.SubmitReport(1, 1, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 3, -1).ok());
  ASSERT_TRUE(server.SubmitReport(2, 2, 1).ok());
  // C(1) = {I(0,1)} -> 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(1).ValueOrDie(), 1.0);
  // C(2) = {I(1,1)} -> only the level-1 client's report at t=2 -> 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(2).ValueOrDie(), 1.0);
  // C(3) = {I(1,1), I(0,3)} -> 1 + (-1) = 0.
  EXPECT_DOUBLE_EQ(server.EstimateAt(3).ValueOrDie(), 0.0);
}

TEST(ServerTest, EstimateAtValidatesRange) {
  Server server = UnitServer(4);
  EXPECT_FALSE(server.EstimateAt(0).ok());
  EXPECT_FALSE(server.EstimateAt(5).ok());
  EXPECT_TRUE(server.EstimateAt(4).ok());
}

TEST(ServerTest, EstimateAllMatchesPointQueries) {
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(server.SubmitReport(1, t, (t % 2 == 0) ? 1 : -1).ok());
  }
  const std::vector<double> all = server.EstimateAll().ValueOrDie();
  ASSERT_EQ(all.size(), 8u);
  for (int64_t t = 1; t <= 8; ++t) {
    EXPECT_DOUBLE_EQ(all[static_cast<size_t>(t - 1)],
                     server.EstimateAt(t).ValueOrDie());
  }
}

TEST(ServerTest, MergeCombinesSumsAndClients) {
  Server a = UnitServer(4);
  Server b = UnitServer(4);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(2, 0).ok());
  ASSERT_TRUE(a.SubmitReport(1, 1, 1).ok());
  ASSERT_TRUE(b.SubmitReport(2, 1, 1).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.num_clients(), 2);
  EXPECT_DOUBLE_EQ(a.EstimateAt(1).ValueOrDie(), 2.0);
}

TEST(ServerTest, MergeRejectsDifferentShapes) {
  Server a = UnitServer(4);
  Server b = UnitServer(8);
  EXPECT_FALSE(a.Merge(b).ok());
  Server c = Server::WithScales(4, {2.0, 2.0, 2.0}).ValueOrDie();
  EXPECT_FALSE(a.Merge(c).ok());
}

TEST(ServerTest, MergeAggregatesOnlyMatchesFullMergeEstimates) {
  Server full = UnitServer(8);
  Server aggregates = UnitServer(8);
  Server shard = UnitServer(8);
  ASSERT_TRUE(shard.RegisterClient(1, 0).ok());
  ASSERT_TRUE(shard.RegisterClient(2, 1).ok());
  for (int64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(shard.SubmitReport(1, t, (t % 2 == 0) ? 1 : -1).ok());
  }
  ASSERT_TRUE(shard.SubmitReport(2, 4, 1).ok());
  ASSERT_TRUE(full.Merge(shard).ok());
  ASSERT_TRUE(aggregates.MergeAggregatesOnly(shard).ok());
  // Identical across the whole query surface, including the level counts
  // that feed consistency weighting — only the per-client registration
  // bookkeeping is skipped.
  EXPECT_EQ(aggregates.EstimateAll().ValueOrDie(),
            full.EstimateAll().ValueOrDie());
  EXPECT_EQ(aggregates.EstimateAllConsistent().ValueOrDie(),
            full.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(aggregates.ClientCountAtLevel(0), full.ClientCountAtLevel(0));
  EXPECT_EQ(aggregates.ClientCountAtLevel(1), full.ClientCountAtLevel(1));
  // And it enforces the same compatibility rules.
  Server different = Server::WithScales(8, {2.0, 1.0, 1.0, 1.0}).ValueOrDie();
  EXPECT_FALSE(aggregates.MergeAggregatesOnly(different).ok());
}

TEST(ServerTest, MergeRejectsMismatchedLevelScales) {
  // Same shape, different debiasing scales: merging would silently mix two
  // different estimators, so it must fail loudly with InvalidArgument.
  Server a = Server::WithScales(4, {1.0, 1.0, 1.0}).ValueOrDie();
  Server b = Server::WithScales(4, {1.0, 2.0, 1.0}).ValueOrDie();
  ASSERT_TRUE(b.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.SubmitReport(1, 1, 1).ok());
  const Status status = a.Merge(b);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("level scales"), std::string::npos);
  // The refused merge must not have absorbed anything.
  EXPECT_EQ(a.num_clients(), 0);
  EXPECT_DOUBLE_EQ(a.EstimateAt(1).ValueOrDie(), 0.0);
}

TEST(ServerTest, MergeRejectsDuplicateClientIds) {
  Server a = UnitServer(4);
  Server b = UnitServer(4);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(1, 0).ok());
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(ServerTest, WindowDeltaValidatesRange) {
  Server server = UnitServer(8);
  EXPECT_FALSE(server.EstimateWindowDelta(0, 4).ok());
  EXPECT_FALSE(server.EstimateWindowDelta(5, 4).ok());
  EXPECT_FALSE(server.EstimateWindowDelta(1, 9).ok());
  EXPECT_TRUE(server.EstimateWindowDelta(1, 8).ok());
  EXPECT_TRUE(server.EstimateWindowDelta(3, 3).ok());
}

TEST(ServerTest, WindowDeltaSumsDecompositionTerms) {
  // Unit scales: the window estimate is the plain sum of raw report sums
  // over DecomposeRange(l, r). [2..3] = {I(0,2), I(0,3)}.
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 4, -1).ok());
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(2, 3).ValueOrDie(), 2.0);
  // [2..4] = {I(0,2), I(0,3), I(0,4)} -> 1 + 1 - 1.
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(2, 4).ValueOrDie(), 1.0);
  // An aligned window collapses to one higher-order node, which only a
  // level-1 client would feed; none did, so the estimate is 0.
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(3, 4).ValueOrDie(), 0.0);
}

TEST(ServerTest, WindowDeltaOfFullDomainEqualsPrefixEstimate) {
  // DecomposeRange(1, d) == DecomposePrefix(d), so the two query paths
  // agree exactly.
  Server server = UnitServer(8);
  ASSERT_TRUE(server.RegisterClient(1, 3).ok());
  ASSERT_TRUE(server.SubmitReport(1, 8, 1).ok());
  EXPECT_DOUBLE_EQ(server.EstimateWindowDelta(1, 8).ValueOrDie(),
                   server.EstimateAt(8).ValueOrDie());
}

TEST(ServerTest, UnbiasedUnderFakeUniformReports) {
  // With scale (1+log d) and truthful "randomizer" c_gap = 1 (reports equal
  // true partial sums in sign form), a population whose partial sums are
  // all +1 yields E[estimate] = true count when levels are uniform. Here we
  // check the deterministic part: a level-h client's report at time t=2^h
  // contributes scale * report to the top-level estimate.
  const auto orders = 3;  // d = 4
  Server server =
      Server::WithScales(4, std::vector<double>(orders, 3.0)).ValueOrDie();
  ASSERT_TRUE(server.RegisterClient(7, 2).ok());
  ASSERT_TRUE(server.SubmitReport(7, 4, 1).ok());
  // C(4) = {I(2,1)}: estimate = 3 * 1.
  EXPECT_DOUBLE_EQ(server.EstimateAt(4).ValueOrDie(), 3.0);
  // C(2) = {I(1,1)}: untouched by the level-2 report.
  EXPECT_DOUBLE_EQ(server.EstimateAt(2).ValueOrDie(), 0.0);
}

TEST(ServerStoreTest, InvalidSketchParamsFailAtConstruction) {
  // Store problems surface from WithScales/ForProtocol, before any state
  // exists — never from a later decode or submit.
  const std::vector<double> scales(4, 1.0);
  EXPECT_EQ(Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                              StoreConfig::Sketch(0, 64, 7))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                              StoreConfig::Sketch(3, 48, 7))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // width not a power of two
  EXPECT_EQ(Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                              StoreConfig::Sketch(65, 64, 7))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                               StoreConfig::Sketch(3, 64, 7))
                  .ok());

  ProtocolConfig config = TestConfig(8, 2, 1.0);
  config.store = StoreConfig::Sketch(3, 6, 7);  // width below kMinWidth
  EXPECT_EQ(Server::ForProtocol(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerStoreTest, StoreConfigIsCanonicalAndDefaultsDense) {
  Server dense = UnitServer(8);
  EXPECT_EQ(dense.store_config(), StoreConfig::Dense());
  const StoreConfig sketch = StoreConfig::Sketch(3, 64, 7);
  Server sketched =
      Server::WithScales(8, std::vector<double>(4, 1.0),
                         DedupPolicy::kStrict, {}, sketch)
          .ValueOrDie();
  EXPECT_EQ(sketched.store_config(), sketch);
}

TEST(ServerStoreTest, MergeRejectsMismatchedStoreConfigs) {
  const std::vector<double> scales(4, 1.0);
  Server dense = Server::WithScales(8, scales).ValueOrDie();
  Server sketched =
      Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                         StoreConfig::Sketch(3, 64, 7))
          .ValueOrDie();
  Server other_seed =
      Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                         StoreConfig::Sketch(3, 64, 8))
          .ValueOrDie();
  EXPECT_FALSE(dense.Merge(sketched).ok());
  EXPECT_FALSE(sketched.Merge(other_seed).ok());
  EXPECT_FALSE(sketched.MergeAggregatesOnly(dense).ok());
}

TEST(ServerStoreTest, SketchServerEstimatesExactlyInTheWideRegime) {
  // W >= d: no level sketches, so the estimate pipeline is identical to
  // the dense server report-for-report.
  const std::vector<double> scales(4, 1.0);
  Server dense = Server::WithScales(8, scales).ValueOrDie();
  Server sketched =
      Server::WithScales(8, scales, DedupPolicy::kStrict, {},
                         StoreConfig::Sketch(2, 8, 7))
          .ValueOrDie();
  for (Server* server : {&dense, &sketched}) {
    ASSERT_TRUE(server->RegisterClient(1, 0).ok());
    ASSERT_TRUE(server->RegisterClient(2, 1).ok());
    for (int64_t t = 1; t <= 8; ++t) {
      ASSERT_TRUE(server->SubmitReport(1, t, t % 2 == 0 ? 1 : -1).ok());
      if (t % 2 == 0) {
        ASSERT_TRUE(server->SubmitReport(2, t, 1).ok());
      }
    }
  }
  for (int64_t t = 1; t <= 8; ++t) {
    EXPECT_DOUBLE_EQ(sketched.EstimateAt(t).ValueOrDie(),
                     dense.EstimateAt(t).ValueOrDie())
        << "t=" << t;
  }
}

// The batch-ingest error contract: a batch whose record j is invalid
// rejects with exactly the Status a single SubmitReport of that record
// gives, accepts exactly the first j records, and leaves the estimates of
// ingesting just that j-record prefix. Every per-record rejection is
// injected at every index, through both SubmitReports overloads and the
// aggregator's IngestReports.
class BatchErrorContractTest : public ::testing::TestWithParam<DedupPolicy> {
 protected:
  static constexpr int64_t kPeriods = 16;

  struct BadRecord {
    const char* name;
    ReportMessage record;
    StatusCode code;
    bool strict_only;  // a stale time is a counted duplicate under kIdempotent
  };

  static std::vector<BadRecord> BadRecords() {
    return {
        {"value not +-1", ReportMessage{1, 8, 0}, StatusCode::kInvalidArgument,
         false},
        {"unregistered client", ReportMessage{99, 8, 1}, StatusCode::kNotFound,
         false},
        {"time beyond d", ReportMessage{1, kPeriods + 1, 1},
         StatusCode::kOutOfRange, false},
        {"time zero", ReportMessage{1, 0, 1}, StatusCode::kOutOfRange, false},
        {"time not aligned to the level", ReportMessage{3, 6, 1},
         StatusCode::kInvalidArgument, false},
        {"stale time", ReportMessage{1, 2, 1}, StatusCode::kInvalidArgument,
         true},
    };
  }

  // Six clients at levels 0, 1, 2, 0, 1, 2; client 1 already reported at
  // t=2, so a second report at t=2 is stale under kStrict.
  Server PreparedServer() const {
    Server server =
        Server::WithScales(kPeriods, {1.0, 2.0, 3.0, 4.0, 5.0}, GetParam())
            .ValueOrDie();
    for (int64_t id = 1; id <= 6; ++id) {
      FR_CHECK(server.RegisterClient(id, static_cast<int>((id - 1) % 3)).ok());
    }
    FR_CHECK(server.SubmitReport(1, 2, 1).ok());
    return server;
  }

  ShardedAggregator PreparedAggregator() const {
    ShardedAggregator aggregator =
        ShardedAggregator::WithScales(kPeriods, {1.0, 2.0, 3.0, 4.0, 5.0},
                                      /*num_shards=*/1, GetParam())
            .ValueOrDie();
    std::vector<RegistrationMessage> registrations;
    for (int64_t id = 1; id <= 6; ++id) {
      registrations.push_back({id, static_cast<int>((id - 1) % 3)});
    }
    FR_CHECK(aggregator.IngestRegistrations(registrations).ok());
    const std::vector<ReportMessage> warmup = {ReportMessage{1, 2, 1}};
    FR_CHECK(aggregator.IngestReports(warmup).ok());
    return aggregator;
  }

  // Twelve valid records: every client at t=4, then every client at t=8.
  static std::vector<ReportMessage> ValidRecords() {
    std::vector<ReportMessage> records;
    for (int64_t t : {int64_t{4}, int64_t{8}}) {
      for (int64_t id = 1; id <= 6; ++id) {
        records.push_back({id, t, static_cast<int8_t>(id % 2 == 0 ? 1 : -1)});
      }
    }
    return records;
  }
};

TEST_P(BatchErrorContractTest, RejectsAtTheFailingRecordLikeSubmitReport) {
  const std::vector<ReportMessage> valid = ValidRecords();
  for (const BadRecord& bad : BadRecords()) {
    if (bad.strict_only && GetParam() != DedupPolicy::kStrict) {
      continue;
    }
    for (size_t j = 0; j <= valid.size(); ++j) {
      SCOPED_TRACE(std::string(bad.name) + " at index " + std::to_string(j));
      const std::span<const ReportMessage> prefix(valid.data(), j);
      std::vector<ReportMessage> batch(prefix.begin(), prefix.end());
      batch.push_back(bad.record);
      batch.insert(batch.end(), valid.begin() + static_cast<int64_t>(j),
                   valid.end());

      // Reference: the prefix alone, then the bad record on its own.
      Server reference = PreparedServer();
      int64_t reference_accepted = 0;
      ASSERT_TRUE(reference.SubmitReports(prefix, &reference_accepted).ok());
      ASSERT_EQ(reference_accepted, static_cast<int64_t>(j));
      const std::vector<double> expected = reference.EstimateAll().ValueOrDie();
      const Status single = reference.SubmitReport(
          bad.record.client_id, bad.record.time, bad.record.value);
      ASSERT_EQ(single.code(), bad.code) << single.ToString();

      Server contiguous = PreparedServer();
      int64_t accepted = -1;
      const Status status = contiguous.SubmitReports(batch, &accepted);
      EXPECT_EQ(status, single);
      EXPECT_EQ(accepted, static_cast<int64_t>(j));
      EXPECT_EQ(contiguous.EstimateAll().ValueOrDie(), expected);
      EXPECT_EQ(contiguous.duplicates_dropped(),
                reference.duplicates_dropped());

      Server indexed = PreparedServer();
      std::vector<size_t> indices(batch.size());
      std::iota(indices.begin(), indices.end(), size_t{0});
      accepted = -1;
      EXPECT_EQ(indexed.SubmitReports(batch, indices, &accepted), single);
      EXPECT_EQ(accepted, static_cast<int64_t>(j));
      EXPECT_EQ(indexed.EstimateAll().ValueOrDie(), expected);

      ShardedAggregator aggregator = PreparedAggregator();
      IngestOutcome outcome;
      EXPECT_EQ(aggregator.IngestReports(batch, nullptr, &outcome), single);
      EXPECT_EQ(outcome.applied + outcome.deduped + outcome.out_of_window,
                static_cast<int64_t>(j));
      EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, BatchErrorContractTest,
                         ::testing::Values(DedupPolicy::kStrict,
                                           DedupPolicy::kIdempotent),
                         [](const auto& info) {
                           return std::string(DedupPolicyToString(info.param));
                         });

// Server::SubmitPacked on one server that holds every id: the shard
// filter keeps the ids congruent to `shard` mod K (K up to and past the
// 64 ids of a presence word) and must match SubmitReports over exactly
// those records, in verdict, `accepted` and state.
TEST(SubmitPackedTest, KeepsTheShardsIdsLikeSubmitReports) {
  constexpr int64_t kPeriods = 16;
  Rng rng(2027);
  for (const DedupPolicy policy :
       {DedupPolicy::kStrict, DedupPolicy::kIdempotent}) {
    for (const int shards : {1, 2, 3, 5, 40, 64, 65, 200}) {
      for (int round = 0; round < 12; ++round) {
        const int shard = static_cast<int>(
            rng.NextInt(static_cast<uint64_t>(shards)));
        SCOPED_TRACE(std::string(DedupPolicyToString(policy)) + ", shard " +
                     std::to_string(shard) + " of " + std::to_string(shards) +
                     ", round " + std::to_string(round));
        // Ids -100..199, every level; a tick that most of them are due at.
        Server packed =
            Server::WithScales(kPeriods, {1.0, 2.0, 3.0, 4.0, 5.0}, policy)
                .ValueOrDie();
        Server reference =
            Server::WithScales(kPeriods, {1.0, 2.0, 3.0, 4.0, 5.0}, policy)
                .ValueOrDie();
        std::vector<int> levels;
        for (int64_t id = -100; id < 200; ++id) {
          levels.push_back(static_cast<int>(rng.NextInt(3)));
          ASSERT_TRUE(packed.RegisterClient(id, levels.back()).ok());
          ASSERT_TRUE(reference.RegisterClient(id, levels.back()).ok());
        }
        const int64_t time = 4 * (1 + static_cast<int64_t>(rng.NextInt(4)));
        // Mostly registered, due clients; now and then an id past the
        // population or a client not due at `time`.
        std::vector<ReportMessage> batch;
        for (int64_t id = -104; id < 204; ++id) {
          const bool registered = id >= -100 && id < 200;
          const bool due =
              registered &&
              (time & ((int64_t{1} << levels[static_cast<size_t>(id + 100)]) -
                       1)) == 0;
          if (due ? rng.NextBernoulli(0.8) : rng.NextBernoulli(0.02)) {
            batch.push_back({id, time, rng.NextSign()});
          }
        }
        const std::string bytes = EncodeReportBatch(batch).ValueOrDie();
        ASSERT_EQ(PeekBatchKind(bytes).ValueOrDie(),
                  WireBatchKind::kReportPackedV2);
        std::vector<ReportMessage> mine;
        for (const ReportMessage& report : batch) {
          const int64_t residue =
              (report.client_id % shards + shards) % shards;
          if (residue == shard) {
            mine.push_back(report);
          }
        }
        int64_t packed_accepted = -1;
        const Status packed_status =
            packed.SubmitPacked(OpenPackedReports(bytes).ValueOrDie(), shard,
                                shards, &packed_accepted);
        int64_t reference_accepted = -1;
        const Status reference_status =
            reference.SubmitReports(mine, &reference_accepted);
        EXPECT_EQ(packed_status.code(), reference_status.code())
            << packed_status.ToString();
        EXPECT_EQ(packed_status.message(), reference_status.message());
        EXPECT_EQ(packed_accepted, reference_accepted);
        EXPECT_EQ(EncodeServerState(packed), EncodeServerState(reference));
      }
    }
  }
}

}  // namespace
}  // namespace futurerand::core
