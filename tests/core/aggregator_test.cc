// ShardedAggregator equivalence: for 1, 2 and 7 shards, pooled and
// single-threaded, batch ingestion (decoded or raw wire bytes) must produce
// bit-identical estimates to the per-report Client/Server path. Also covers
// the lazy snapshot (queries after later ingests see the new data), the
// façade's validation behavior, and the in-place ingest of packed batches
// against the decoded route.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
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
// Per-client memory. ApproxMemoryBytes charges each column and each span
// arena its capacity times its element size and the client index its own
// heap, so a fleet-shaped population (ids 1..n in one registration batch,
// as ClientFleet::EncodeRegistrations ships them) pins the per-client cost
// exactly: the index of an id progression costs nothing — in every mod-K
// shard too — the batch sizes each column exactly, and a level whose
// clients all report fills its arena exactly.

constexpr int64_t kMemoryPeriods = 512;

ProtocolConfig MemoryConfig() {
  ProtocolConfig config = TestConfig();
  config.num_periods = kMemoryPeriods;
  return config;
}

std::vector<RegistrationMessage> FleetRegistrations(int64_t n,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < n; ++u) {
    registrations.push_back(
        {1 + u, static_cast<int>(rng.NextInt(
                    static_cast<uint64_t>(MemoryConfig().num_orders())))});
  }
  return registrations;
}

// A dedup policy with its window (0 = unbounded).
struct DedupCase {
  DedupPolicy policy;
  int64_t window;
};

constexpr DedupCase kDedupCases[] = {
    {DedupPolicy::kStrict, 0},
    {DedupPolicy::kIdempotent, 0},
    {DedupPolicy::kIdempotent, 64},
    {DedupPolicy::kIdempotent, 200},
};

std::string CaseName(const DedupCase& dedup) {
  return std::string(DedupPolicyToString(dedup.policy)) + " window " +
         std::to_string(dedup.window);
}

ShardedAggregator MemoryAggregator(const DedupCase& dedup, int shards) {
  return ShardedAggregator::ForProtocol(MemoryConfig(), shards, dedup.policy,
                                        DedupWindowPolicy{dedup.window})
      .ValueOrDie();
}

// kStrict: a level byte and the last report time. kIdempotent: a level
// byte and a span rank, plus the eviction watermark under a bounded
// window; its span words are charged separately, once the client reports.
int64_t BytesPerClient(const DedupCase& dedup) {
  if (dedup.policy == DedupPolicy::kStrict) {
    return 1 + 8;
  }
  return 1 + 4 + (dedup.window > 0 ? 8 : 0);
}

// S_h: a level-h span is the client's full bitmap, or under a window W at
// most the (W + 62)/64 + 1 words a window can straddle.
int64_t SpanWords(const DedupCase& dedup, int level) {
  const int64_t full = ((kMemoryPeriods >> level) + 63) / 64;
  return dedup.window > 0 ? std::min(full, (dedup.window + 62) / 64 + 1)
                          : full;
}

// Sum over h of reporting_h * S_h * 8, for the clients whose first
// boundary 2^h falls at or before `last_time`.
int64_t SpanBytes(const DedupCase& dedup,
                  const std::vector<RegistrationMessage>& registrations,
                  int64_t last_time) {
  if (dedup.policy == DedupPolicy::kStrict) {
    return 0;
  }
  int64_t bytes = 0;
  for (const RegistrationMessage& client : registrations) {
    if ((int64_t{1} << client.level) <= last_time) {
      bytes += SpanWords(dedup, client.level) * 8;
    }
  }
  return bytes;
}

// Every client reports at each of its boundaries up to `last_time`.
void IngestUpTo(const std::vector<RegistrationMessage>& registrations,
                int64_t last_time, ShardedAggregator* aggregator) {
  for (int64_t t = 1; t <= last_time; ++t) {
    std::vector<ReportMessage> tick;
    for (const RegistrationMessage& client : registrations) {
      if (t % (int64_t{1} << client.level) == 0) {
        tick.push_back({client.client_id, t, 1});
      }
    }
    ASSERT_TRUE(aggregator->IngestReports(tick).ok());
  }
}

TEST(AggregatorMemoryTest, FleetShapedPopulationCostsItsColumnsExactly) {
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 5);
  for (const int shards : {1, 4}) {
    for (const DedupCase& dedup : kDedupCases) {
      SCOPED_TRACE(testing::Message()
                   << CaseName(dedup) << ", " << shards << " shards");
      const int64_t per_client = BytesPerClient(dedup);
      ShardedAggregator aggregator = MemoryAggregator(dedup, shards);
      const int64_t empty = aggregator.ApproxMemoryBytes();
      ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
      EXPECT_EQ(aggregator.ApproxMemoryBytes(),
                empty + kClients * per_client);

      // Every client reports at its boundaries up to d/2. Under
      // kIdempotent each client that reported holds one span of S_h
      // words, and a restored copy is sized the same way.
      IngestUpTo(registrations, kMemoryPeriods / 2, &aggregator);
      const int64_t expected =
          empty + kClients * per_client +
          SpanBytes(dedup, registrations, kMemoryPeriods / 2);
      EXPECT_EQ(aggregator.ApproxMemoryBytes(), expected);
      ShardedAggregator restored = MemoryAggregator(dedup, shards);
      ASSERT_TRUE(
          restored.Restore(aggregator.Checkpoint().ValueOrDie()).ok());
      EXPECT_EQ(restored.ApproxMemoryBytes(), expected);
    }
  }
}

TEST(AggregatorMemoryTest, ReshardedRestoreKeepsTheColumnsExact) {
  // A 4-shard checkpoint restored into M shards: each target registers its
  // ids in ascending order, so ids 1..n stay a progression in every mod-M
  // shard and no index is materialized, and each target's arenas are
  // sized for exactly the spans it receives.
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 7);
  for (const DedupCase& dedup : kDedupCases) {
    // Registered only, then mid-stream: levels 0..5 have reported.
    for (const int64_t last_time : {int64_t{0}, int64_t{40}}) {
      ShardedAggregator source = MemoryAggregator(dedup, 4);
      ASSERT_TRUE(source.IngestRegistrations(registrations).ok());
      IngestUpTo(registrations, last_time, &source);
      const std::string blob = source.Checkpoint().ValueOrDie();
      const int64_t state = kClients * BytesPerClient(dedup) +
                            SpanBytes(dedup, registrations, last_time);
      for (const int shards : {1, 2, 3}) {
        SCOPED_TRACE(testing::Message()
                     << CaseName(dedup) << ", t=" << last_time << ", 4 -> "
                     << shards << " shards");
        ShardedAggregator target = MemoryAggregator(dedup, shards);
        const int64_t empty = target.ApproxMemoryBytes();
        ASSERT_TRUE(target.Restore(blob).ok());
        EXPECT_EQ(target.ApproxMemoryBytes(), empty + state);
      }
    }
  }
}

TEST(AggregatorMemoryTest, InterleavedJoinsGrowSpanArenasGeometrically) {
  // Clients that register and report one at a time: every first report
  // needs a new span while the level's registered count is just one ahead
  // of its spans. The footprint must still change only O(log n) times
  // (each change is a reallocation), and stay within twice the live state.
  constexpr int64_t kClients = 2000;
  for (const int64_t window : {int64_t{0}, int64_t{64}}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    const DedupCase dedup{DedupPolicy::kIdempotent, window};
    ShardedAggregator aggregator = MemoryAggregator(dedup, 1);
    const int64_t empty = aggregator.ApproxMemoryBytes();
    int64_t previous = empty;
    int64_t changes = 0;
    for (int64_t u = 0; u < kClients; ++u) {
      const RegistrationMessage client{1 + u, 0};
      ASSERT_TRUE(aggregator.IngestRegistrations({&client, 1}).ok());
      const ReportMessage report{1 + u, 1 + u % kMemoryPeriods, 1};
      ASSERT_TRUE(aggregator.IngestReports({&report, 1}).ok());
      const int64_t bytes = aggregator.ApproxMemoryBytes();
      changes += bytes != previous ? 1 : 0;
      previous = bytes;
    }
    // The columns (which grow together) and the arena each double about
    // log2(n) = 11 times.
    EXPECT_LE(changes, 2 * 12 + 2);
    const int64_t live = kClients * BytesPerClient(dedup) +
                         kClients * SpanWords(dedup, 0) * 8;
    EXPECT_LE(previous - empty, 2 * live);
  }
}

TEST(AggregatorMemoryTest, SmallBatchesGrowGeometricallyAndRetriesGrowNothing) {
  constexpr int64_t kClients = 1000;
  const std::vector<RegistrationMessage> registrations =
      FleetRegistrations(kClients, 6);
  const DedupCase dedup{DedupPolicy::kIdempotent, 0};
  const int64_t per_client = BytesPerClient(dedup);
  ShardedAggregator aggregator = MemoryAggregator(dedup, 1);
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
  EXPECT_GE(grown, kClients * per_client);
  EXPECT_LE(grown, 2 * kClients * per_client);
  // A retransmitted registration batch is absorbed without allocating.
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestRegistrations(registrations, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.deduped, kClients);
  EXPECT_EQ(aggregator.ApproxMemoryBytes() - empty, grown);
}

// ---------------------------------------------------------------------------
// Packed ingest. IngestEncoded applies a kind-10 batch straight from its
// bitmaps (Server::SubmitPacked, run-wise under kStrict while a shard's
// index is a progression); IngestReports over DecodeReportBatch of the same
// bytes is the reference route. On seeded batches with unregistered ids,
// misaligned levels and stale or repeated times in the middle of a
// presence word, and retransmissions under kIdempotent, both routes must
// give the same Status, the same IngestOutcome and byte-identical full
// checkpoints.

constexpr int64_t kPackedPeriods = 64;
constexpr int64_t kPackedClients = 300;

// How the population's ids are laid out.
enum class Population {
  kContiguous,  // consecutive ids in order: each shard's index is a
                // progression with the shard count as its stride
  kStrided,     // every other id in order: a progression with stride 2
                // times the shard count, which batches fill with odd ids
  kScattered,   // gaps, registered out of order: no progression at all
};

struct PackedCase {
  DedupPolicy policy;
  int64_t window;
  int shards;
  Population population;
  bool pooled;
};

std::string PackedCaseName(const PackedCase& packed) {
  return std::string(DedupPolicyToString(packed.policy)) + " window " +
         std::to_string(packed.window) + ", " +
         std::to_string(packed.shards) + " shards, " +
         (packed.population == Population::kContiguous ? "contiguous"
          : packed.population == Population::kStrided  ? "strided"
                                                        : "scattered") +
         (packed.pooled ? ", pooled" : "");
}

// How often each kind of batch came up, so the test can insist that every
// kind it means to cover did.
struct PackedTally {
  int64_t packed = 0;     // batches that shipped as kind 10
  int64_t clean = 0;      // accepted whole
  int64_t prefix = 0;     // rejected after applying a non-empty prefix
  int64_t rejected = 0;   // rejected with nothing applied
  int64_t deduped = 0;    // batches with absorbed retransmissions
};

void RunPackedDifferential(const PackedCase& packed, uint64_t seed,
                           int64_t base, PackedTally* tally) {
  SCOPED_TRACE(PackedCaseName(packed) + ", seed " + std::to_string(seed) +
               ", base " + std::to_string(base));
  ProtocolConfig config = TestConfig();
  config.num_periods = kPackedPeriods;
  const int orders = config.num_orders();
  auto make = [&] {
    return ShardedAggregator::ForProtocol(config, packed.shards,
                                          packed.policy,
                                          DedupWindowPolicy{packed.window})
        .ValueOrDie();
  };
  ShardedAggregator in_place = make();
  ShardedAggregator decoded = make();
  ThreadPool pool(2);
  ThreadPool* maybe_pool = packed.pooled ? &pool : nullptr;
  Rng rng(seed);

  // The population: ids among base .. base + kPackedClients - 1, levels
  // skewed low so most clients are due often. A strided population holds
  // the even offsets only; a scattered one leaves out every offset
  // congruent to 5 mod 17 and registers in shuffled order, so no shard's
  // index is a progression.
  std::vector<RegistrationMessage> registrations;
  std::vector<int> level_of(static_cast<size_t>(kPackedClients), -1);
  for (int64_t i = 0; i < kPackedClients; ++i) {
    if ((packed.population == Population::kStrided && i % 2 == 1) ||
        (packed.population == Population::kScattered && i % 17 == 5)) {
      continue;
    }
    const int level = static_cast<int>(
        std::min(rng.NextInt(3), rng.NextInt(static_cast<uint64_t>(orders))));
    level_of[static_cast<size_t>(i)] = level;
    registrations.push_back({base + i, level});
  }
  if (packed.population == Population::kScattered) {
    for (size_t i = registrations.size() - 1; i > 0; --i) {
      std::swap(registrations[i], registrations[rng.NextInt(i + 1)]);
    }
  }
  ASSERT_TRUE(in_place.IngestRegistrations(registrations).ok());
  ASSERT_TRUE(decoded.IngestRegistrations(registrations).ok());

  std::vector<std::string> sent;
  int64_t clock = 0;
  for (int round = 0; round < 48; ++round) {
    if (round == 24 && packed.population == Population::kContiguous) {
      // A late join past a gap: the shard that takes it leaves the
      // progression for the rest of the run.
      const std::vector<RegistrationMessage> late = {
          {base + kPackedClients + 3, 0}};
      ASSERT_TRUE(in_place.IngestRegistrations(late).ok());
      ASSERT_TRUE(decoded.IngestRegistrations(late).ok());
    }
    std::string bytes;
    if (!sent.empty() && rng.NextBernoulli(0.15)) {
      // A retransmission: absorbed under kIdempotent, stale under kStrict.
      bytes = sent[rng.NextInt(sent.size())];
    } else {
      // Mostly the next tick; sometimes an earlier one, which is stale for
      // the clients that reported since and fresh for the rest.
      clock = std::min(clock + 1, kPackedPeriods);
      const int64_t time =
          rng.NextBernoulli(0.2)
              ? 1 + static_cast<int64_t>(rng.NextInt(
                        static_cast<uint64_t>(clock)))
              : clock;
      const int due = std::countr_zero(static_cast<uint64_t>(time));
      const bool misaligned = rng.NextBernoulli(0.1);
      const bool unregistered = rng.NextBernoulli(0.1);
      // A window of the id range, reaching a little past both ends.
      const int64_t lo = static_cast<int64_t>(rng.NextInt(100)) - 8;
      const int64_t hi = std::min(
          lo + 100 + static_cast<int64_t>(rng.NextInt(kPackedClients)),
          kPackedClients + 8);
      std::vector<ReportMessage> batch;
      for (int64_t i = lo; i <= hi; ++i) {
        const bool known = i >= 0 && i < kPackedClients &&
                           level_of[static_cast<size_t>(i)] >= 0;
        const int level = known ? level_of[static_cast<size_t>(i)] : -1;
        bool include = known && level <= due && rng.NextBernoulli(0.9);
        include = include || (misaligned && known && level > due &&
                              rng.NextBernoulli(0.05));
        include = include || (unregistered && !known &&
                              rng.NextBernoulli(0.3));
        if (include) {
          batch.push_back({base + i, time, rng.NextSign()});
        }
      }
      if (batch.empty()) {
        continue;
      }
      bytes = EncodeReportBatch(batch).ValueOrDie();
    }
    if (PeekBatchKind(bytes).ValueOrDie() != WireBatchKind::kReportPackedV2) {
      continue;
    }
    sent.push_back(bytes);
    ++tally->packed;
    IngestOutcome in_place_outcome;
    const Status in_place_status =
        in_place.IngestEncoded(bytes, maybe_pool, &in_place_outcome);
    IngestOutcome decoded_outcome;
    const Status decoded_status = decoded.IngestReports(
        DecodeReportBatch(bytes).ValueOrDie(), maybe_pool, &decoded_outcome);
    ASSERT_EQ(in_place_status.code(), decoded_status.code())
        << "round " << round << ": " << in_place_status.ToString() << " vs "
        << decoded_status.ToString();
    ASSERT_EQ(in_place_status.message(), decoded_status.message());
    ASSERT_EQ(in_place_outcome.applied, decoded_outcome.applied)
        << "round " << round;
    ASSERT_EQ(in_place_outcome.deduped, decoded_outcome.deduped);
    ASSERT_EQ(in_place_outcome.out_of_window, decoded_outcome.out_of_window);
    ASSERT_EQ(in_place.Checkpoint(CheckpointMode::kFull).ValueOrDie(),
              decoded.Checkpoint(CheckpointMode::kFull).ValueOrDie())
        << "round " << round;
    const bool applied_some =
        in_place_outcome.applied + in_place_outcome.deduped +
            in_place_outcome.out_of_window >
        0;
    if (in_place_status.ok()) {
      ++tally->clean;
    } else if (applied_some) {
      ++tally->prefix;
    } else {
      ++tally->rejected;
    }
    tally->deduped += in_place_outcome.deduped > 0 ? 1 : 0;
  }
  EXPECT_EQ(in_place.EstimateAll().ValueOrDie(),
            decoded.EstimateAll().ValueOrDie());
}

TEST(PackedIngestTest, InPlaceIngestMatchesTheDecodedRoute) {
  const PackedCase cases[] = {
      {DedupPolicy::kStrict, 0, 1, Population::kContiguous, false},
      {DedupPolicy::kStrict, 0, 3, Population::kContiguous, false},
      {DedupPolicy::kStrict, 0, 4, Population::kContiguous, true},
      {DedupPolicy::kStrict, 0, 1, Population::kStrided, false},
      {DedupPolicy::kStrict, 0, 3, Population::kStrided, false},
      {DedupPolicy::kStrict, 0, 1, Population::kScattered, false},
      {DedupPolicy::kStrict, 0, 4, Population::kScattered, false},
      {DedupPolicy::kIdempotent, 0, 1, Population::kContiguous, false},
      {DedupPolicy::kIdempotent, 0, 4, Population::kScattered, true},
      {DedupPolicy::kIdempotent, 16, 3, Population::kContiguous, false},
      {DedupPolicy::kIdempotent, 16, 1, Population::kScattered, false},
  };
  // Ids on both sides of zero and at both ends of the int64 range, so the
  // shard residues and the progression's slots see every sign.
  const int64_t bases[] = {
      -1000, 5, std::numeric_limits<int64_t>::max() - 400,
      std::numeric_limits<int64_t>::min() + 10};
  for (const PackedCase& packed : cases) {
    PackedTally tally;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (const int64_t base : bases) {
        RunPackedDifferential(packed, seed * 131 + static_cast<uint64_t>(
                                                       packed.shards),
                              base, &tally);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    SCOPED_TRACE(PackedCaseName(packed));
    EXPECT_GT(tally.packed, 300);
    EXPECT_GT(tally.clean, 20);
    EXPECT_GT(tally.prefix, 5);
    EXPECT_GT(tally.prefix + tally.rejected, 10);
    if (packed.policy == DedupPolicy::kIdempotent) {
      EXPECT_GT(tally.deduped, 5);
    }
  }
}

}  // namespace
}  // namespace futurerand::core
