// ShardedAggregator equivalence: for 1, 2 and 7 shards, pooled and
// single-threaded, batch ingestion (decoded or raw wire bytes) must produce
// bit-identical estimates to the per-report Client/Server path. Also covers
// the lazy snapshot (queries after later ingests see the new data) and the
// façade's validation behavior.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/client.h"
#include "futurerand/core/erlingsson.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {
namespace {

constexpr int64_t kPeriods = 32;
constexpr int64_t kUsers = 60;

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.num_periods = kPeriods;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

int8_t PatternState(int64_t u, int64_t t) {
  const int64_t on = (u % kPeriods) + 1;
  return (t >= on && t < on + kPeriods / 2) ? int8_t{1} : int8_t{0};
}

// One fleet pass worth of traffic: registrations plus per-tick batches.
struct Traffic {
  std::vector<RegistrationMessage> registrations;
  std::vector<ReportBatch> batches;  // one per tick
};

Traffic GenerateTraffic(uint64_t seed) {
  const ProtocolConfig config = TestConfig();
  ClientFleet fleet =
      ClientFleet::Create(config, kUsers, seed).ValueOrDie();
  Traffic traffic;
  traffic.registrations = fleet.registrations();
  std::vector<int8_t> states(static_cast<size_t>(kUsers));
  for (int64_t t = 1; t <= kPeriods; ++t) {
    for (int64_t u = 0; u < kUsers; ++u) {
      states[static_cast<size_t>(u)] = PatternState(u, t);
    }
    traffic.batches.push_back(fleet.AdvanceTick(states).ValueOrDie());
  }
  return traffic;
}

// The per-report reference: one Server fed by SubmitReport calls.
Server ReferenceServer(const Traffic& traffic) {
  Server server = Server::ForProtocol(TestConfig()).ValueOrDie();
  for (const RegistrationMessage& reg : traffic.registrations) {
    EXPECT_TRUE(server.RegisterClient(reg.client_id, reg.level).ok());
  }
  for (const ReportBatch& batch : traffic.batches) {
    for (const ReportMessage& report : batch) {
      EXPECT_TRUE(
          server.SubmitReport(report.client_id, report.time, report.value)
              .ok());
    }
  }
  return server;
}

void ExpectMatchesReference(const ShardedAggregator& aggregator,
                            const Server& reference) {
  // Bit-identical across the full query surface.
  EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(),
            reference.EstimateAll().ValueOrDie());
  EXPECT_EQ(aggregator.EstimateAllConsistent().ValueOrDie(),
            reference.EstimateAllConsistent().ValueOrDie());
  for (const int64_t t : {int64_t{1}, kPeriods / 2, kPeriods}) {
    EXPECT_EQ(aggregator.EstimateAt(t).ValueOrDie(),
              reference.EstimateAt(t).ValueOrDie());
  }
  EXPECT_EQ(aggregator.EstimateWindowDelta(3, 19).ValueOrDie(),
            reference.EstimateWindowDelta(3, 19).ValueOrDie());
  EXPECT_EQ(aggregator.num_clients(), reference.num_clients());
}

struct ShardParam {
  int shards;
  bool pooled;
};

class AggregatorShardTest : public ::testing::TestWithParam<ShardParam> {};

TEST_P(AggregatorShardTest, BatchIngestMatchesPerReportServer) {
  const Traffic traffic = GenerateTraffic(42);
  const Server reference = ReferenceServer(traffic);

  ThreadPool pool(4);
  ThreadPool* maybe_pool = GetParam().pooled ? &pool : nullptr;
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), GetParam().shards)
          .ValueOrDie();
  ASSERT_TRUE(
      aggregator.IngestRegistrations(traffic.registrations, maybe_pool)
          .ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(aggregator.IngestReports(batch, maybe_pool).ok());
  }
  EXPECT_EQ(aggregator.num_shards(), GetParam().shards);
  ExpectMatchesReference(aggregator, reference);
}

TEST_P(AggregatorShardTest, IngestEncodedMatchesDecodedIngest) {
  const Traffic traffic = GenerateTraffic(43);
  const Server reference = ReferenceServer(traffic);

  ThreadPool pool(4);
  ThreadPool* maybe_pool = GetParam().pooled ? &pool : nullptr;
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), GetParam().shards)
          .ValueOrDie();
  // Wire bytes straight in: the aggregator routes on the header kind.
  ASSERT_TRUE(aggregator
                  .IngestEncoded(
                      EncodeRegistrationBatch(traffic.registrations),
                      maybe_pool)
                  .ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(
        aggregator
            .IngestEncoded(EncodeReportBatch(batch).ValueOrDie(), maybe_pool)
            .ok());
  }
  ExpectMatchesReference(aggregator, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, AggregatorShardTest,
    ::testing::Values(ShardParam{1, false}, ShardParam{2, false},
                      ShardParam{7, false}, ShardParam{1, true},
                      ShardParam{2, true}, ShardParam{7, true}),
    [](const ::testing::TestParamInfo<ShardParam>& info) {
      return std::string(info.param.pooled ? "pooled" : "serial") +
             std::to_string(info.param.shards) + "shards";
    });

TEST(AggregatorTest, SnapshotRefreshesAfterLaterIngest) {
  const Traffic traffic = GenerateTraffic(44);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 3).ValueOrDie();
  ASSERT_TRUE(aggregator.IngestRegistrations(traffic.registrations).ok());
  ASSERT_TRUE(aggregator.IngestReports(traffic.batches[0]).ok());
  const double before = aggregator.EstimateAt(1).ValueOrDie();
  // Query again without new data: lazily cached snapshot, same answer.
  EXPECT_EQ(aggregator.EstimateAt(1).ValueOrDie(), before);

  // More traffic for later periods must show up in later queries.
  for (size_t i = 1; i < traffic.batches.size(); ++i) {
    ASSERT_TRUE(aggregator.IngestReports(traffic.batches[i]).ok());
  }
  const Server reference = ReferenceServer(traffic);
  EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(),
            reference.EstimateAll().ValueOrDie());
}

TEST(AggregatorTest, WithScalesMatchesErlingssonServer) {
  const ProtocolConfig config = TestConfig();
  const std::vector<double> scales =
      ErlingssonLevelScales(config).ValueOrDie();
  Server reference = MakeErlingssonServer(config).ValueOrDie();
  ShardedAggregator aggregator =
      ShardedAggregator::WithScales(config.num_periods, scales, 5)
          .ValueOrDie();

  std::vector<RegistrationMessage> registrations;
  std::vector<ReportMessage> reports;
  Rng rng(7);
  for (int64_t u = 0; u < 40; ++u) {
    const int level = static_cast<int>(rng.NextInt(3));
    registrations.push_back(RegistrationMessage{u, level});
    ASSERT_TRUE(reference.RegisterClient(u, level).ok());
    for (int64_t t = int64_t{1} << level; t <= kPeriods;
         t += int64_t{1} << level) {
      const int8_t value = rng.NextSign();
      reports.push_back(ReportMessage{u, t, value});
      ASSERT_TRUE(reference.SubmitReport(u, t, value).ok());
    }
  }
  ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  ASSERT_TRUE(aggregator.IngestReports(reports).ok());
  EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(),
            reference.EstimateAll().ValueOrDie());
}

TEST(AggregatorTest, RejectsInvalidConstruction) {
  EXPECT_FALSE(ShardedAggregator::ForProtocol(TestConfig(), 0).ok());
  EXPECT_FALSE(ShardedAggregator::ForProtocol(TestConfig(), -2).ok());
  EXPECT_FALSE(
      ShardedAggregator::WithScales(7, {1.0, 1.0, 1.0}, 2).ok());
}

TEST(AggregatorTest, PropagatesServerValidation) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 3).ValueOrDie();
  // Reports from unregistered clients are rejected.
  const std::vector<ReportMessage> orphan = {ReportMessage{5, 1, 1}};
  EXPECT_FALSE(aggregator.IngestReports(orphan).ok());
  // Duplicate registration — also across two batches.
  const std::vector<RegistrationMessage> regs = {
      RegistrationMessage{5, 0}};
  ASSERT_TRUE(aggregator.IngestRegistrations(regs).ok());
  EXPECT_FALSE(aggregator.IngestRegistrations(regs).ok());
  // Wrong report cadence for the level.
  ASSERT_TRUE(aggregator
                  .IngestRegistrations(std::vector<RegistrationMessage>{
                      RegistrationMessage{6, 2}})
                  .ok());
  EXPECT_FALSE(aggregator
                   .IngestReports(std::vector<ReportMessage>{
                       ReportMessage{6, 3, 1}})
                   .ok());
  // The failing records were dropped, valid ones beforehand were kept.
  EXPECT_EQ(aggregator.num_clients(), 2);
}

TEST(AggregatorTest, IngestEncodedRejectsMalformedBytes) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  EXPECT_FALSE(aggregator.IngestEncoded("").ok());
  EXPECT_FALSE(aggregator.IngestEncoded("XXXXX").ok());
  std::string bytes =
      EncodeRegistrationBatch({RegistrationMessage{1, 0}});
  bytes[4] = 9;  // unknown kind byte
  EXPECT_FALSE(aggregator.IngestEncoded(bytes).ok());
  // Truncated report batch.
  std::string reports =
      EncodeReportBatch({ReportMessage{1, 1, 1}, ReportMessage{2, 2, -1}})
          .ValueOrDie();
  reports.pop_back();
  EXPECT_FALSE(aggregator.IngestEncoded(reports).ok());
}

TEST(AggregatorTest, PeekBatchKindDistinguishesPayloads) {
  EXPECT_EQ(PeekBatchKind(EncodeRegistrationBatch({})).ValueOrDie(),
            WireBatchKind::kRegistrationV2);
  EXPECT_EQ(PeekBatchKind(EncodeReportBatch({}).ValueOrDie()).ValueOrDie(),
            WireBatchKind::kReportV2);
  EXPECT_FALSE(PeekBatchKind("FR").ok());
}

TEST(AggregatorTest, CorruptedV2IngestIsDataLossAndAppliesNothing) {
  // The distinct checksum-mismatch outcome: a flipped v2 batch NACKs with
  // kDataLoss, no record of it reaches any shard, and the pristine resend
  // then applies cleanly — even under the default kStrict policy.
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  const std::string registrations = EncodeRegistrationBatch(
      {RegistrationMessage{0, 0}, RegistrationMessage{1, 1}});
  ASSERT_TRUE(aggregator.IngestEncoded(registrations).ok());
  const std::string reports =
      EncodeReportBatch({ReportMessage{0, 1, 1}, ReportMessage{1, 2, -1}},
                        WireVersion::kV2)
          .ValueOrDie();
  for (size_t byte = 0; byte < reports.size(); ++byte) {
    std::string corrupted = reports;
    corrupted[byte] ^= 0x10;
    IngestOutcome outcome;
    const Status status = aggregator.IngestEncoded(corrupted, nullptr,
                                                   &outcome);
    ASSERT_FALSE(status.ok()) << "byte " << byte;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "byte " << byte;
    EXPECT_EQ(outcome.applied, 0);
  }
  // Under kStrict a partial apply would make this resend an error; its
  // success proves the rejected deliveries left no trace.
  IngestOutcome outcome;
  ASSERT_TRUE(aggregator.IngestEncoded(reports, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 2);
}

TEST(AggregatorStoreTest, InvalidSketchParamsFailAtConstruction) {
  ProtocolConfig config = TestConfig();
  config.store = StoreConfig::Sketch(0, 64, 7);
  EXPECT_EQ(ShardedAggregator::ForProtocol(config, 2).status().code(),
            StatusCode::kInvalidArgument);
  config.store = StoreConfig::Sketch(3, 100, 7);  // not a power of two
  EXPECT_EQ(ShardedAggregator::ForProtocol(config, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AggregatorStoreTest, StoreConfigThreadsThroughToEveryShard) {
  ProtocolConfig config = TestConfig();
  config.store = StoreConfig::Sketch(3, 64, 7);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(config, 3).ValueOrDie();
  EXPECT_EQ(aggregator.store_config(), config.store);
  ShardedAggregator dense =
      ShardedAggregator::ForProtocol(TestConfig(), 3).ValueOrDie();
  EXPECT_EQ(dense.store_config(), StoreConfig::Dense());
}

TEST(AggregatorStoreTest, SketchEstimatesInvariantUnderShardCount) {
  // Sketch cells commute under addition and the hash family depends only
  // on the StoreConfig, so any sharding of the same traffic must yield
  // bit-identical estimates — including in the sketched-level regime.
  const Traffic traffic = GenerateTraffic(45);
  ProtocolConfig config = TestConfig();
  config.store = StoreConfig::Sketch(3, 8, 7);  // kPeriods=32 > R*W=24
  std::optional<std::vector<double>> reference;
  for (const int shards : {1, 2, 7}) {
    ShardedAggregator aggregator =
        ShardedAggregator::ForProtocol(config, shards).ValueOrDie();
    ASSERT_TRUE(
        aggregator.IngestRegistrations(traffic.registrations).ok());
    for (const ReportBatch& batch : traffic.batches) {
      ASSERT_TRUE(aggregator.IngestReports(batch).ok());
    }
    const std::vector<double> estimates =
        aggregator.EstimateAll().ValueOrDie();
    if (!reference.has_value()) {
      reference = estimates;
    } else {
      EXPECT_EQ(estimates, *reference) << shards << " shards";
    }
  }
}

TEST(CheckpointChainTest, ParseCheckpointModeSpellings) {
  EXPECT_EQ(ParseCheckpointMode("full").ValueOrDie(), CheckpointMode::kFull);
  EXPECT_EQ(ParseCheckpointMode("delta").ValueOrDie(), CheckpointMode::kDelta);
  EXPECT_EQ(ParseCheckpointMode("Delta").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointChainTest, CompactionCadenceMustBePositiveUnderDelta) {
  EXPECT_TRUE(ValidateCheckpointChain(CheckpointMode::kDelta, 1).ok());
  EXPECT_EQ(ValidateCheckpointChain(CheckpointMode::kDelta, 0).code(),
            StatusCode::kInvalidArgument);
  // kFull never reads the cadence.
  EXPECT_TRUE(ValidateCheckpointChain(CheckpointMode::kFull, 0).ok());
}

TEST(CheckpointChainTest, NextCheckpointModeFollowsTheChainRule) {
  // Under kDelta with a cadence of 3: full first (no base), then two
  // deltas, then a compaction on every third checkpoint.
  std::vector<CheckpointMode> chain;
  for (int64_t taken = 0; taken < 7; ++taken) {
    chain.push_back(NextCheckpointMode(CheckpointMode::kDelta, 3,
                                       /*has_base=*/taken > 0, taken));
  }
  const CheckpointMode full = CheckpointMode::kFull;
  const CheckpointMode delta = CheckpointMode::kDelta;
  EXPECT_EQ(chain, (std::vector<CheckpointMode>{full, delta, delta, full,
                                                delta, delta, full}));
  // No base yet always means full; kFull mode is always full.
  EXPECT_EQ(NextCheckpointMode(CheckpointMode::kDelta, 3, false, 5), full);
  EXPECT_EQ(NextCheckpointMode(CheckpointMode::kFull, 3, true, 5), full);
}


// ---------------------------------------------------------------------------
// Per-client memory. ApproxMemoryBytes charges each column its capacity
// times its element size and the client index its own heap, so a
// fleet-shaped population (ids 1..n in one registration batch, as
// ClientFleet::EncodeRegistrations ships them) pins the per-client cost
// exactly: the index of an id progression costs nothing — in every mod-K
// shard too — and the batch sizes each column exactly.

std::vector<RegistrationMessage> FleetRegistrations(int64_t n,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < n; ++u) {
    registrations.push_back(
        {1 + u, static_cast<int>(rng.NextInt(
                    static_cast<uint64_t>(TestConfig().num_orders())))});
  }
  return registrations;
}

// A level byte and the last report time.
constexpr int64_t kStrictBytesPerClient = 1 + 8;
// A level byte and the boundary bitmap's base word, frontier and word
// vector (8 + 8 + 24 bytes with a three-pointer std::vector); its words
// are charged separately as reports set them.
constexpr int64_t kIdempotentBytesPerClient = 1 + 40;

TEST(AggregatorMemoryTest, FleetShapedPopulationCostsItsColumnsExactly) {
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 5);
  for (const int shards : {1, 4}) {
    for (const DedupPolicy policy :
         {DedupPolicy::kStrict, DedupPolicy::kIdempotent}) {
      SCOPED_TRACE(testing::Message()
                   << DedupPolicyToString(policy) << " " << shards
                   << " shards");
      const int64_t per_client = policy == DedupPolicy::kStrict
                                     ? kStrictBytesPerClient
                                     : kIdempotentBytesPerClient;
      ShardedAggregator aggregator =
          ShardedAggregator::ForProtocol(TestConfig(), shards, policy)
              .ValueOrDie();
      const int64_t empty = aggregator.ApproxMemoryBytes();
      ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
      EXPECT_EQ(aggregator.ApproxMemoryBytes(),
                empty + kClients * per_client);

      // Every client reports at its boundaries up to d/2; under
      // kIdempotent each that reported holds one bitmap word (d/2 < 64
      // boundaries), and a restored copy is sized the same way.
      int64_t words = 0;
      for (int64_t t = 1; t <= kPeriods / 2; ++t) {
        std::vector<ReportMessage> tick;
        for (const RegistrationMessage& client : registrations) {
          if (t % (int64_t{1} << client.level) == 0) {
            tick.push_back({client.client_id, t, 1});
          }
        }
        ASSERT_TRUE(aggregator.IngestReports(tick).ok());
      }
      for (const RegistrationMessage& client : registrations) {
        words += (int64_t{1} << client.level) <= kPeriods / 2 ? 1 : 0;
      }
      const int64_t word_bytes =
          policy == DedupPolicy::kIdempotent ? words * 8 : 0;
      EXPECT_EQ(aggregator.ApproxMemoryBytes(),
                empty + kClients * per_client + word_bytes);
      ShardedAggregator restored =
          ShardedAggregator::ForProtocol(TestConfig(), shards, policy)
              .ValueOrDie();
      ASSERT_TRUE(
          restored.Restore(aggregator.Checkpoint().ValueOrDie()).ok());
      EXPECT_EQ(restored.ApproxMemoryBytes(),
                empty + kClients * per_client + word_bytes);
    }
  }
}

TEST(AggregatorMemoryTest, ReshardedRestoreKeepsTheColumnsExact) {
  // A 4-shard checkpoint restored into M shards: each target registers its
  // ids in ascending order, so ids 1..n stay a progression in every mod-M
  // shard and no index is materialized.
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 7);
  for (const DedupPolicy policy :
       {DedupPolicy::kStrict, DedupPolicy::kIdempotent}) {
    ShardedAggregator source =
        ShardedAggregator::ForProtocol(TestConfig(), 4, policy).ValueOrDie();
    ASSERT_TRUE(source.IngestRegistrations(registrations).ok());
    const std::string blob = source.Checkpoint().ValueOrDie();
    const int64_t per_client = policy == DedupPolicy::kStrict
                                   ? kStrictBytesPerClient
                                   : kIdempotentBytesPerClient;
    for (const int shards : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message()
                   << DedupPolicyToString(policy) << " 4 -> " << shards
                   << " shards");
      ShardedAggregator target =
          ShardedAggregator::ForProtocol(TestConfig(), shards, policy)
              .ValueOrDie();
      const int64_t empty = target.ApproxMemoryBytes();
      ASSERT_TRUE(target.Restore(blob).ok());
      EXPECT_EQ(target.ApproxMemoryBytes(), empty + kClients * per_client);
    }
  }
}

TEST(AggregatorMemoryTest, SmallBatchesGrowGeometricallyAndRetriesGrowNothing) {
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 6);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 1,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  const int64_t empty = aggregator.ApproxMemoryBytes();
  const std::span<const RegistrationMessage> all(registrations);
  for (size_t begin = 0; begin < all.size(); begin += 7) {
    ASSERT_TRUE(aggregator
                    .IngestRegistrations(all.subspan(
                        begin, std::min<size_t>(7, all.size() - begin)))
                    .ok());
  }
  // Doubling growth: never more than twice the exact size.
  const int64_t grown = aggregator.ApproxMemoryBytes() - empty;
  EXPECT_GE(grown, kClients * kIdempotentBytesPerClient);
  EXPECT_LE(grown, 2 * kClients * kIdempotentBytesPerClient);
  // A retransmitted registration batch is absorbed without allocating.
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestRegistrations(registrations, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.deduped, kClients);
  EXPECT_EQ(aggregator.ApproxMemoryBytes() - empty, grown);
}

}  // namespace
}  // namespace futurerand::core
