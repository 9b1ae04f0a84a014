// Checkpoint/restore: a snapshot round-trip must preserve everything that
// matters — estimates bit-identical, ingestion resuming exactly where the
// encoded state left off (monotonicity watermarks under kStrict, boundary
// bitmaps under kIdempotent) — and a corrupted or truncated blob must never
// restore silently.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/sketch_store.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {
namespace {

ProtocolConfig TestConfig(int64_t d = 32) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

// A server with protocol scales and a deterministic population mid-stream:
// every client has reported for times <= half.
Server PopulatedServer(DedupPolicy policy, uint64_t seed) {
  const ProtocolConfig config = TestConfig();
  Server server = Server::ForProtocol(config, policy).ValueOrDie();
  Rng rng(seed);
  for (int64_t u = 0; u < 40; ++u) {
    const int level = static_cast<int>(rng.NextInt(6));
    EXPECT_TRUE(server.RegisterClient(u, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= config.num_periods / 2; t += step) {
      EXPECT_TRUE(server.SubmitReport(u, t, rng.NextSign()).ok());
    }
  }
  return server;
}

TEST(ServerStateTest, EncodingIsDeterministic) {
  const Server server = PopulatedServer(DedupPolicy::kIdempotent, 7);
  EXPECT_EQ(EncodeServerState(server), EncodeServerState(server));
  // And peekable like any other wire payload.
  EXPECT_EQ(PeekBatchKind(EncodeServerState(server)).ValueOrDie(),
            WireBatchKind::kServerState);
}

TEST(ServerStateTest, EmptyServerRoundTrips) {
  const Server server =
      Server::WithScales(8, {1.0, 2.0, 3.0, 4.0}, DedupPolicy::kStrict)
          .ValueOrDie();
  const Server restored =
      DecodeServerState(EncodeServerState(server)).ValueOrDie();
  EXPECT_EQ(restored.num_periods(), 8);
  EXPECT_EQ(restored.num_clients(), 0);
  EXPECT_EQ(restored.dedup_policy(), DedupPolicy::kStrict);
  EXPECT_EQ(restored.level_scales(), server.level_scales());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
}

class ServerStatePolicyTest : public ::testing::TestWithParam<DedupPolicy> {};

TEST_P(ServerStatePolicyTest, RoundTripIsBitIdentical) {
  const Server server = PopulatedServer(GetParam(), 21);
  const std::string blob = EncodeServerState(server);
  const Server restored = DecodeServerState(blob).ValueOrDie();
  EXPECT_EQ(restored.num_clients(), server.num_clients());
  EXPECT_EQ(restored.dedup_policy(), server.dedup_policy());
  EXPECT_EQ(restored.duplicates_dropped(), server.duplicates_dropped());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
  EXPECT_EQ(restored.EstimateAllConsistent().ValueOrDie(),
            server.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(restored.EstimateWindowDelta(3, 17).ValueOrDie(),
            server.EstimateWindowDelta(3, 17).ValueOrDie());
  // Re-encoding the restored server reproduces the identical blob.
  EXPECT_EQ(EncodeServerState(restored), blob);
}

TEST_P(ServerStatePolicyTest, IngestionResumesExactlyAfterRestore) {
  Server original = PopulatedServer(GetParam(), 33);
  Server restored =
      DecodeServerState(EncodeServerState(original)).ValueOrDie();
  // Play the second half of time into both; they must stay bit-identical.
  Rng rng(5);
  const int64_t d = TestConfig().num_periods;
  for (int64_t u = 0; u < 40; ++u) {
    for (int64_t t = d / 2 + 1; t <= d; ++t) {
      const int8_t value = rng.NextSign();
      const Status a = original.SubmitReport(u, t, value);
      const Status b = restored.SubmitReport(u, t, value);
      EXPECT_EQ(a.ok(), b.ok()) << "u=" << u << " t=" << t;
    }
  }
  EXPECT_EQ(original.EstimateAll().ValueOrDie(),
            restored.EstimateAll().ValueOrDie());
  EXPECT_EQ(original.duplicates_dropped(), restored.duplicates_dropped());
}

TEST_P(ServerStatePolicyTest, RestoredServerRemembersWhatItSaw) {
  Server original = PopulatedServer(GetParam(), 13);
  Server restored =
      DecodeServerState(EncodeServerState(original)).ValueOrDie();
  // Every client reported at all its boundaries <= d/2; replaying any time
  // in that range must behave exactly as on the original: rejected under
  // kStrict, silently dropped under kIdempotent, and invalid-time errors
  // identical for both.
  for (int64_t u = 0; u < 40; ++u) {
    for (int64_t t = 1; t <= TestConfig().num_periods / 2; ++t) {
      const Status a = original.SubmitReport(u, t, 1);
      const Status b = restored.SubmitReport(u, t, 1);
      EXPECT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        EXPECT_EQ(a.code(), b.code());
      }
    }
  }
  EXPECT_EQ(original.EstimateAll().ValueOrDie(),
            restored.EstimateAll().ValueOrDie());
}

INSTANTIATE_TEST_SUITE_P(Policies, ServerStatePolicyTest,
                         ::testing::Values(DedupPolicy::kStrict,
                                           DedupPolicy::kIdempotent),
                         [](const ::testing::TestParamInfo<DedupPolicy>& i) {
                           return std::string(DedupPolicyToString(i.param));
                         });

TEST(ServerStateTest, EveryTruncationIsRejected) {
  const std::string blob =
      EncodeServerState(PopulatedServer(DedupPolicy::kIdempotent, 3));
  for (size_t length = 0; length < blob.size(); ++length) {
    EXPECT_FALSE(DecodeServerState(std::string_view(blob).substr(0, length))
                     .ok())
        << "prefix of length " << length << " decoded";
  }
}

TEST(ServerStateTest, EverySingleBitFlipIsRejected) {
  const std::string blob =
      EncodeServerState(PopulatedServer(DedupPolicy::kStrict, 9));
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = blob;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(DecodeServerState(corrupted).ok())
          << "flip at byte " << byte << " bit " << bit << " restored";
    }
  }
}

TEST(ServerStateTest, TrailingBytesAreRejected) {
  std::string blob =
      EncodeServerState(PopulatedServer(DedupPolicy::kStrict, 4));
  blob.push_back('x');
  EXPECT_FALSE(DecodeServerState(blob).ok());
}

// Seals a dense kind-3 blob by hand: unit scales, zero sums and counters,
// and `clients` (already varint-encoded) as the client section. Lets a test
// forge what the encoder never writes, with a valid checksum.
std::string HandSealedServerState(int64_t d, DedupPolicy policy,
                                  int64_t window,
                                  const std::vector<int64_t>& level_counts,
                                  int64_t num_clients,
                                  const std::string& clients) {
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindServerState, &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(d), &out);
  wire_internal::PutVarint64(policy == DedupPolicy::kIdempotent ? 1 : 0,
                             &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(window), &out);
  wire_internal::PutVarint64(0, &out);  // dyadic estimator
  wire_internal::PutVarint64(level_counts.size(), &out);
  for (const int64_t count : level_counts) {
    wire_internal::PutFixed64(0x3ff0000000000000ULL, &out);  // 1.0
    wire_internal::PutVarint64(static_cast<uint64_t>(count), &out);
  }
  for (int64_t cell = 0; cell < 2 * d - 1; ++cell) {
    wire_internal::PutVarint64(0, &out);
  }
  wire_internal::PutVarint64(0, &out);  // duplicates dropped
  wire_internal::PutVarint64(0, &out);  // out-of-window dropped
  wire_internal::PutVarint64(static_cast<uint64_t>(num_clients), &out);
  out += clients;
  wire_internal::AppendChecksum(&out);
  return out;
}

// One kStrict client record: id delta, level, last report time.
std::string StrictClient(int64_t id_delta, int level, int64_t last) {
  std::string out;
  wire_internal::PutVarint64(wire_internal::ZigZagEncode(id_delta), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(level), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(last), &out);
  return out;
}

Status DecodeStatus(const std::string& blob) {
  return DecodeServerState(blob).status();
}

TEST(ServerStateTest, ClientIdsMustStrictlyAscend) {
  const std::vector<int64_t> counts = {2, 0, 0, 0};
  // The control: ids 5 then 9 decode.
  EXPECT_TRUE(DecodeServerState(
                  HandSealedServerState(8, DedupPolicy::kStrict, 0, counts, 2,
                                        StrictClient(5, 0, 3) +
                                            StrictClient(4, 0, 0)))
                  .ok());
  // Ids 9 then 5: out of order.
  EXPECT_EQ(DecodeStatus(HandSealedServerState(
                             8, DedupPolicy::kStrict, 0, counts, 2,
                             StrictClient(9, 0, 3) + StrictClient(-4, 0, 0)))
                .code(),
            StatusCode::kInvalidArgument);
  // Ids 5 then 5: a repeat.
  EXPECT_EQ(DecodeStatus(HandSealedServerState(
                             8, DedupPolicy::kStrict, 0, counts, 2,
                             StrictClient(5, 0, 3) + StrictClient(0, 0, 0)))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerStateTest, LevelCountsMustMatchTheClients) {
  // The control: one level-1 client, counted at level 1.
  EXPECT_TRUE(DecodeServerState(
                  HandSealedServerState(8, DedupPolicy::kStrict, 0,
                                        {0, 1, 0, 0}, 1,
                                        StrictClient(5, 1, 2)))
                  .ok());
  // Counts {5, 0, 0, 7} claim twelve clients the blob does not hold.
  EXPECT_EQ(DecodeStatus(HandSealedServerState(8, DedupPolicy::kStrict, 0,
                                               {5, 0, 0, 7}, 1,
                                               StrictClient(5, 1, 2)))
                .code(),
            StatusCode::kInvalidArgument);
  // The right total at the wrong level.
  EXPECT_EQ(DecodeStatus(HandSealedServerState(8, DedupPolicy::kStrict, 0,
                                               {1, 0, 0, 0}, 1,
                                               StrictClient(5, 1, 2)))
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerStateTest, WindowedWatermarkMustMatchTheFrontier) {
  // d = 1024, window 64, one level-0 client whose only report set boundary
  // 191 (bit 63 of word 2). The live server keeps base_word
  // (191 - 64 + 1) >> 6 = 2 for that frontier, and nothing else.
  const std::vector<int64_t> counts = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const auto client = [](uint64_t base_word,
                         const std::vector<uint64_t>& words) {
    std::string out;
    wire_internal::PutVarint64(wire_internal::ZigZagEncode(1), &out);
    wire_internal::PutVarint64(0, &out);  // level
    wire_internal::PutVarint64(base_word, &out);
    wire_internal::PutVarint64(words.size(), &out);
    for (const uint64_t word : words) {
      wire_internal::PutVarint64(word, &out);
    }
    return out;
  };
  constexpr uint64_t kTopBit = uint64_t{1} << 63;
  const auto seal = [&counts](const std::string& clients) {
    return HandSealedServerState(1024, DedupPolicy::kIdempotent, 64, counts,
                                 1, clients);
  };
  const std::string canonical = seal(client(2, {kTopBit}));
  ASSERT_TRUE(DecodeServerState(canonical).ok());
  EXPECT_EQ(EncodeServerState(DecodeServerState(canonical).ValueOrDie()),
            canonical);
  // A stale watermark: base_word 1 claims word 1 is still held.
  EXPECT_EQ(DecodeStatus(seal(client(1, {0, kTopBit}))).code(),
            StatusCode::kInvalidArgument);
  // A watermark ahead of the frontier: word 2 evicted under its own bit.
  EXPECT_EQ(DecodeStatus(seal(client(3, {1}))).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Aggregator checkpoint/restore.

struct Traffic {
  std::vector<RegistrationMessage> registrations;
  std::vector<ReportBatch> batches;
};

Traffic GenerateTraffic(uint64_t seed, int64_t users) {
  const ProtocolConfig config = TestConfig();
  ClientFleet fleet = ClientFleet::Create(config, users, seed).ValueOrDie();
  Traffic traffic;
  traffic.registrations = fleet.registrations();
  std::vector<int8_t> states(static_cast<size_t>(users));
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < users; ++u) {
      states[static_cast<size_t>(u)] =
          (t >= (u % 12) + 2 && t < (u % 12) + 14) ? int8_t{1} : int8_t{0};
    }
    traffic.batches.push_back(fleet.AdvanceTick(states).ValueOrDie());
  }
  return traffic;
}

TEST(AggregatorCheckpointTest, MidStreamRestoreIsBitIdentical) {
  const Traffic traffic = GenerateTraffic(101, 48);
  const int64_t half =
      static_cast<int64_t>(traffic.batches.size()) / 2;
  for (const int shards : {1, 3}) {
    ShardedAggregator live =
        ShardedAggregator::ForProtocol(TestConfig(), shards,
                                       DedupPolicy::kIdempotent)
            .ValueOrDie();
    ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());
    for (int64_t b = 0; b < half; ++b) {
      ASSERT_TRUE(
          live.IngestReports(traffic.batches[static_cast<size_t>(b)]).ok());
    }

    // Crash: serialize, build a cold replacement, restore.
    const std::string snapshot = live.Checkpoint().ValueOrDie();
    ShardedAggregator cold =
        ShardedAggregator::ForProtocol(TestConfig(), shards,
                                       DedupPolicy::kIdempotent)
            .ValueOrDie();
    ASSERT_TRUE(cold.Restore(snapshot).ok());
    EXPECT_EQ(cold.num_clients(), live.num_clients());
    EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
              live.EstimateAll().ValueOrDie());

    // Both finish the stream; estimates must stay bit-identical on the
    // whole query surface.
    for (size_t b = static_cast<size_t>(half); b < traffic.batches.size();
         ++b) {
      ASSERT_TRUE(live.IngestReports(traffic.batches[b]).ok());
      ASSERT_TRUE(cold.IngestReports(traffic.batches[b]).ok());
    }
    EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
              live.EstimateAll().ValueOrDie());
    EXPECT_EQ(cold.EstimateAllConsistent().ValueOrDie(),
              live.EstimateAllConsistent().ValueOrDie());
    EXPECT_EQ(cold.EstimateWindowDelta(4, 29).ValueOrDie(),
              live.EstimateWindowDelta(4, 29).ValueOrDie());
  }
}

TEST(AggregatorCheckpointTest, RestoreValidatesShape) {
  const Traffic traffic = GenerateTraffic(5, 10);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(aggregator.IngestRegistrations(traffic.registrations).ok());
  const std::string snapshot = aggregator.Checkpoint().ValueOrDie();
  EXPECT_EQ(PeekBatchKind(snapshot).ValueOrDie(),
            WireBatchKind::kAggregatorState);

  // A different shard count is NOT a shape error any more: full
  // checkpoints reshard on restore (see ReshardRestoreTest below).
  ShardedAggregator three =
      ShardedAggregator::ForProtocol(TestConfig(), 3).ValueOrDie();
  EXPECT_TRUE(three.Restore(snapshot).ok());
  EXPECT_EQ(three.num_clients(), 10);
  // Wrong period count (hence scales shape).
  ShardedAggregator other_d =
      ShardedAggregator::ForProtocol(TestConfig(64), 2).ValueOrDie();
  EXPECT_FALSE(other_d.Restore(snapshot).ok());
  // Wrong dedup policy.
  ShardedAggregator idempotent =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  EXPECT_FALSE(idempotent.Restore(snapshot).ok());
  // Wrong scales.
  ShardedAggregator unit_scales =
      ShardedAggregator::WithScales(
          TestConfig().num_periods,
          std::vector<double>(static_cast<size_t>(TestConfig().num_orders()),
                              1.0),
          2)
          .ValueOrDie();
  EXPECT_FALSE(unit_scales.Restore(snapshot).ok());

  // A failed restore leaves the target untouched.
  ShardedAggregator untouched =
      ShardedAggregator::ForProtocol(TestConfig(64), 2).ValueOrDie();
  EXPECT_FALSE(untouched.Restore(snapshot).ok());
  EXPECT_EQ(untouched.num_clients(), 0);
  // And a matching aggregator accepts.
  ShardedAggregator twin =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(twin.Restore(snapshot).ok());
  EXPECT_EQ(twin.num_clients(), 10);
}

TEST(AggregatorCheckpointTest, CorruptedCheckpointNeverRestores) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  const std::string snapshot = aggregator.Checkpoint().ValueOrDie();
  Rng rng(31337);
  for (int round = 0; round < 200; ++round) {
    std::string corrupted = snapshot;
    const auto byte = static_cast<size_t>(rng.NextInt(corrupted.size()));
    corrupted[byte] ^= static_cast<char>(1 << rng.NextInt(8));
    ShardedAggregator target =
        ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
    EXPECT_FALSE(target.Restore(corrupted).ok());
  }
}

TEST(AggregatorCheckpointTest, RestoreRejectsForgedChainAnchor) {
  // EncodeAggregatorState is public, so a tool could frame shard state
  // with a guessed epoch; if Restore adopted it, a delta taken against a
  // DIFFERENT base sharing that epoch could chain onto this state.
  // Restore must therefore re-derive the fingerprint and refuse a
  // mismatch, while accepting epoch 0 ("no chain anchor") and every blob
  // Checkpoint() itself stamped.
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(aggregator
                  .IngestRegistrations(std::vector<RegistrationMessage>{
                      {0, 0}, {1, 1}, {2, 0}})
                  .ok());
  const std::string genuine = aggregator.Checkpoint().ValueOrDie();
  const AggregatorStateBlob blob =
      DecodeAggregatorState(genuine).ValueOrDie();
  ASSERT_NE(blob.epoch, 0u);

  ShardedAggregator target =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  EXPECT_TRUE(target.Restore(genuine).ok());  // Checkpoint's own stamp
  EXPECT_TRUE(
      target.Restore(EncodeAggregatorState(blob.shards, /*epoch=*/0)).ok());
  const Status forged =
      target.Restore(EncodeAggregatorState(blob.shards, blob.epoch + 1));
  EXPECT_FALSE(forged.ok());
  EXPECT_EQ(forged.code(), StatusCode::kInvalidArgument);
  // An anchorless restore accepts no deltas until the next full.
  ASSERT_TRUE(
      target.Restore(EncodeAggregatorState(blob.shards, /*epoch=*/0)).ok());
  EXPECT_FALSE(target.Checkpoint(CheckpointMode::kDelta).ok());
}

TEST(AggregatorCheckpointTest, IngestEncodedRejectsSnapshotBlobs) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 1).ValueOrDie();
  const std::string snapshot = aggregator.Checkpoint().ValueOrDie();
  EXPECT_FALSE(aggregator.IngestEncoded(snapshot).ok());
  const Server server =
      Server::ForProtocol(TestConfig()).ValueOrDie();
  EXPECT_FALSE(aggregator.IngestEncoded(EncodeServerState(server)).ok());
  ASSERT_TRUE(aggregator.Checkpoint().ok());
  const std::string delta =
      aggregator.Checkpoint(CheckpointMode::kDelta).ValueOrDie();
  EXPECT_EQ(PeekBatchKind(delta).ValueOrDie(),
            WireBatchKind::kAggregatorDelta);
  EXPECT_FALSE(aggregator.IngestEncoded(delta).ok());
}

// ---------------------------------------------------------------------------
// Delta checkpoints.

// Ingests `traffic.batches[begin..end)` into the aggregator.
void IngestBatches(ShardedAggregator* aggregator, const Traffic& traffic,
                   size_t begin, size_t end) {
  for (size_t b = begin; b < end && b < traffic.batches.size(); ++b) {
    ASSERT_TRUE(aggregator->IngestReports(traffic.batches[b]).ok());
  }
}

TEST(DeltaCheckpointTest, DeltaNeedsAFullBase) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  const auto premature = aggregator.Checkpoint(CheckpointMode::kDelta);
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(aggregator.Checkpoint(CheckpointMode::kFull).ok());
  EXPECT_TRUE(aggregator.Checkpoint(CheckpointMode::kDelta).ok());
}

TEST(DeltaCheckpointTest, DeltaSerializesOnlyDirtiedShards) {
  const Traffic traffic = GenerateTraffic(77, 30);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 5,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(aggregator.IngestRegistrations(traffic.registrations).ok());
  IngestBatches(&aggregator, traffic, 0, traffic.batches.size() / 2);
  const std::string full =
      aggregator.Checkpoint(CheckpointMode::kFull).ValueOrDie();

  // Touch exactly one shard: a report from a client of shard 2.
  ASSERT_TRUE(aggregator
                  .IngestReports(std::vector<ReportMessage>{
                      {2, TestConfig().num_periods, 1}})
                  .ok());
  const std::string delta_bytes =
      aggregator.Checkpoint(CheckpointMode::kDelta).ValueOrDie();
  const AggregatorDeltaBlob delta =
      DecodeAggregatorDelta(delta_bytes).ValueOrDie();
  EXPECT_EQ(delta.num_shards, 5);
  EXPECT_EQ(delta.seq, 1u);
  ASSERT_EQ(delta.shards.size(), 1u);
  EXPECT_EQ(delta.shards[0].shard_index, 2);
  EXPECT_LT(delta_bytes.size(), full.size());

  // An untouched aggregator yields an empty (but valid, chain-advancing)
  // delta.
  const std::string empty_bytes =
      aggregator.Checkpoint(CheckpointMode::kDelta).ValueOrDie();
  const AggregatorDeltaBlob empty =
      DecodeAggregatorDelta(empty_bytes).ValueOrDie();
  EXPECT_EQ(empty.seq, 2u);
  EXPECT_TRUE(empty.shards.empty());
}

TEST(DeltaCheckpointTest, ChainReplayIsBitIdenticalWithCompaction) {
  const Traffic traffic = GenerateTraffic(321, 60);
  ShardedAggregator live =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());

  // Checkpoint after every 4 batches: full, delta, delta, full
  // (compaction), delta, ... — the chain a durable collector would keep.
  std::string base;
  std::vector<std::string> deltas;
  int64_t checkpoints = 0;
  for (size_t b = 0; b < traffic.batches.size(); ++b) {
    ASSERT_TRUE(live.IngestReports(traffic.batches[b]).ok());
    if ((b + 1) % 4 != 0) {
      continue;
    }
    if (checkpoints % 3 == 0) {
      base = live.Checkpoint(CheckpointMode::kFull).ValueOrDie();
      deltas.clear();
    } else {
      deltas.push_back(
          live.Checkpoint(CheckpointMode::kDelta).ValueOrDie());
    }
    ++checkpoints;

    // Crash now: a cold aggregator replays base + deltas and must answer
    // (and keep ingesting) bit-identically.
    ShardedAggregator cold =
        ShardedAggregator::ForProtocol(TestConfig(), 3,
                                       DedupPolicy::kIdempotent)
            .ValueOrDie();
    ASSERT_TRUE(cold.Restore(base).ok());
    for (const std::string& delta : deltas) {
      ASSERT_TRUE(cold.Restore(delta).ok());
    }
    EXPECT_EQ(cold.num_clients(), live.num_clients());
    EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
              live.EstimateAll().ValueOrDie());
  }
  EXPECT_GT(checkpoints, 4);
}

TEST(DeltaCheckpointTest, ChainPositionIsEnforced) {
  const Traffic traffic = GenerateTraffic(9, 20);
  ShardedAggregator live =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());
  const std::string base =
      live.Checkpoint(CheckpointMode::kFull).ValueOrDie();
  IngestBatches(&live, traffic, 0, 4);
  const std::string delta1 =
      live.Checkpoint(CheckpointMode::kDelta).ValueOrDie();
  IngestBatches(&live, traffic, 4, 8);
  const std::string delta2 =
      live.Checkpoint(CheckpointMode::kDelta).ValueOrDie();

  ShardedAggregator cold =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  // A delta cannot apply without its base...
  EXPECT_EQ(cold.Restore(delta1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cold.Restore(base).ok());
  // ...nor out of order...
  EXPECT_EQ(cold.Restore(delta2).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cold.Restore(delta1).ok());
  // ...nor twice.
  EXPECT_EQ(cold.Restore(delta1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cold.Restore(delta2).ok());
  EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
            live.EstimateAll().ValueOrDie());

  // A fresh full checkpoint starts a new epoch: yesterday's deltas no
  // longer apply.
  const std::string base2 =
      live.Checkpoint(CheckpointMode::kFull).ValueOrDie();
  ShardedAggregator fresh =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(fresh.Restore(base2).ok());
  EXPECT_EQ(fresh.Restore(delta1).code(), StatusCode::kFailedPrecondition);

  // And a delta never restores into a different shard count.
  ShardedAggregator wide =
      ShardedAggregator::ForProtocol(TestConfig(), 7).ValueOrDie();
  ASSERT_TRUE(wide.Restore(base).ok());  // full blob reshards fine
  EXPECT_FALSE(wide.Restore(delta1).ok());
}

TEST(DeltaCheckpointTest, DeltaRestoreRejectsADivergedAggregator) {
  // Ingestion does not move the chain position, so a recovery that
  // accidentally resumes ingest between chain restores has diverged;
  // applying the next delta would mix the two timelines shard by shard.
  const Traffic traffic = GenerateTraffic(44, 20);
  ShardedAggregator live =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());
  const std::string base = live.Checkpoint().ValueOrDie();
  IngestBatches(&live, traffic, 0, 4);
  const std::string delta =
      live.Checkpoint(CheckpointMode::kDelta).ValueOrDie();

  ShardedAggregator recovery =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(recovery.Restore(base).ok());
  ASSERT_TRUE(recovery.IngestReports(traffic.batches[5]).ok());  // oops
  EXPECT_EQ(recovery.Restore(delta).code(),
            StatusCode::kFailedPrecondition);
  // Redoing the chain from the base heals it.
  ASSERT_TRUE(recovery.Restore(base).ok());
  ASSERT_TRUE(recovery.Restore(delta).ok());
  EXPECT_EQ(recovery.EstimateAll().ValueOrDie(),
            live.EstimateAll().ValueOrDie());
}

TEST(DeltaCheckpointTest, RejectedBatchesDoNotDirtyShards) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(aggregator.Checkpoint().ok());
  // A batch whose every record is rejected (unregistered client) mutates
  // nothing — the next delta must stay empty rather than re-serializing
  // an unchanged shard forever.
  EXPECT_FALSE(aggregator
                   .IngestReports(std::vector<ReportMessage>{{999, 4, 1}})
                   .ok());
  const AggregatorDeltaBlob delta =
      DecodeAggregatorDelta(
          aggregator.Checkpoint(CheckpointMode::kDelta).ValueOrDie())
          .ValueOrDie();
  EXPECT_TRUE(delta.shards.empty());
}

TEST(DeltaCheckpointTest, RollbackRestoreCannotCrossChains) {
  // Epochs fingerprint the base state, so a collector rolled back to an
  // old full blob that then diverges can never produce (or accept) deltas
  // that collide with the abandoned timeline's blobs.
  const Traffic traffic = GenerateTraffic(55, 24);
  ShardedAggregator live =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());
  const std::string base = live.Checkpoint().ValueOrDie();
  IngestBatches(&live, traffic, 0, 4);
  const std::string old_delta =
      live.Checkpoint(CheckpointMode::kDelta).ValueOrDie();

  // Roll back to `base`, then diverge with different traffic and take a
  // fresh full checkpoint of the diverged state.
  ShardedAggregator rolled_back =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(rolled_back.Restore(base).ok());
  IngestBatches(&rolled_back, traffic, 4, 8);
  const std::string diverged_base = rolled_back.Checkpoint().ValueOrDie();
  ASSERT_NE(DecodeAggregatorState(diverged_base).ValueOrDie().epoch,
            DecodeAggregatorState(base).ValueOrDie().epoch);

  // The abandoned timeline's delta must not apply to the diverged base.
  ShardedAggregator recovered =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(recovered.Restore(diverged_base).ok());
  EXPECT_EQ(recovered.Restore(old_delta).code(),
            StatusCode::kFailedPrecondition);

  // An unchanged rollback, however, reproduces the identical base blob,
  // and the old delta chains onto it exactly as documented.
  ShardedAggregator replay =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(replay.Restore(base).ok());
  ASSERT_TRUE(replay.Restore(old_delta).ok());
}

// ---------------------------------------------------------------------------
// Cross-shard-count restore (elastic resharding).

class ReshardTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReshardTest, RestoreIntoDifferentShardCountIsBitIdentical) {
  const auto [k, m] = GetParam();
  const Traffic traffic = GenerateTraffic(1234, 53);
  const int64_t half = static_cast<int64_t>(traffic.batches.size()) / 2;

  ShardedAggregator source =
      ShardedAggregator::ForProtocol(TestConfig(), k,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(source.IngestRegistrations(traffic.registrations).ok());
  IngestBatches(&source, traffic, 0, static_cast<size_t>(half));
  // A few retransmissions so dedup state is non-trivial.
  ASSERT_TRUE(source.IngestReports(traffic.batches[0]).ok());
  const std::string snapshot = source.Checkpoint().ValueOrDie();

  ShardedAggregator target =
      ShardedAggregator::ForProtocol(TestConfig(), m,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(target.Restore(snapshot).ok());
  EXPECT_EQ(target.num_shards(), m);
  EXPECT_EQ(target.num_clients(), source.num_clients());
  EXPECT_EQ(target.duplicates_dropped(), source.duplicates_dropped());
  EXPECT_EQ(target.EstimateAll().ValueOrDie(),
            source.EstimateAll().ValueOrDie());
  EXPECT_EQ(target.EstimateAllConsistent().ValueOrDie(),
            source.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(target.EstimateWindowDelta(4, 29).ValueOrDie(),
            source.EstimateWindowDelta(4, 29).ValueOrDie());

  // Both finish the stream — including a replay of an already-ingested
  // batch, which the re-bucketed dedup state must absorb identically.
  for (size_t b = static_cast<size_t>(half); b < traffic.batches.size();
       ++b) {
    ASSERT_TRUE(source.IngestReports(traffic.batches[b]).ok());
    ASSERT_TRUE(target.IngestReports(traffic.batches[b]).ok());
  }
  ASSERT_TRUE(source.IngestReports(traffic.batches.back()).ok());
  ASSERT_TRUE(target.IngestReports(traffic.batches.back()).ok());
  EXPECT_EQ(target.duplicates_dropped(), source.duplicates_dropped());
  EXPECT_EQ(target.EstimateAll().ValueOrDie(),
            source.EstimateAll().ValueOrDie());
  EXPECT_EQ(target.EstimateAllConsistent().ValueOrDie(),
            source.EstimateAllConsistent().ValueOrDie());

  // Re-checkpointing the resharded target and restoring it back into a
  // k-shard aggregator closes the loop.
  const std::string round_trip = target.Checkpoint().ValueOrDie();
  ShardedAggregator back =
      ShardedAggregator::ForProtocol(TestConfig(), k,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(back.Restore(round_trip).ok());
  EXPECT_EQ(back.EstimateAll().ValueOrDie(),
            source.EstimateAll().ValueOrDie());
}

INSTANTIATE_TEST_SUITE_P(
    KtoM, ReshardTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 2, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      // Built up by append: GCC 12's -Wrestrict misfires on the
      // char* + string + char* chain (see bounds_test.cc for the twin).
      std::string name = "K";
      name += std::to_string(std::get<0>(info.param));
      name += "toM";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Sketch-store snapshots (FRW kind 8): the same guarantees as the dense
// kind 3 — bit-identical round trips, every corruption rejected — plus the
// store-identity gate: a blob only restores into an aggregator built from
// the equal StoreConfig.

ProtocolConfig SketchConfig(int64_t d = 32) {
  ProtocolConfig config = TestConfig(d);
  // R*W = 24 < d = 32: level 0 is genuinely sketched, the rest exact.
  config.store = StoreConfig::Sketch(3, 8, 7);
  return config;
}

Server PopulatedSketchServer(DedupPolicy policy, uint64_t seed) {
  const ProtocolConfig config = SketchConfig();
  Server server = Server::ForProtocol(config, policy).ValueOrDie();
  Rng rng(seed);
  for (int64_t u = 0; u < 40; ++u) {
    const int level = static_cast<int>(rng.NextInt(6));
    EXPECT_TRUE(server.RegisterClient(u, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= config.num_periods / 2; t += step) {
      EXPECT_TRUE(server.SubmitReport(u, t, rng.NextSign()).ok());
    }
  }
  return server;
}

TEST(SketchServerStateTest, RoundTripIsBitIdentical) {
  const Server server =
      PopulatedSketchServer(DedupPolicy::kIdempotent, 11);
  const std::string blob = EncodeServerState(server);
  EXPECT_EQ(PeekBatchKind(blob).ValueOrDie(),
            WireBatchKind::kServerStateSketch);
  const Server restored = DecodeServerState(blob).ValueOrDie();
  EXPECT_EQ(restored.store_config(), server.store_config());
  EXPECT_EQ(restored.num_clients(), server.num_clients());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
  EXPECT_EQ(restored.EstimateAllConsistent().ValueOrDie(),
            server.EstimateAllConsistent().ValueOrDie());
  // The re-encoding closes the loop byte-for-byte.
  EXPECT_EQ(EncodeServerState(restored), blob);
}

TEST(SketchServerStateTest, OversizedDedupSpanIsRejectedBeforeAllocation) {
  // d = 2^40 under a sketch store takes only a few hundred cells, and a
  // level-0 client that reported once is a 5-byte record. With no window
  // that record would commit the level's full span of 2^34 words (128
  // GiB); the retained-boundary cap refuses the blob at construction,
  // before any span exists.
  constexpr int64_t kD = int64_t{1} << 40;
  const StoreConfig store = StoreConfig::Sketch(3, 8, 7);
  const int orders = 41;
  const auto seal = [&](int64_t window) {
    std::string out;
    wire_internal::AppendHeader(wire_internal::kKindServerStateSketch, &out);
    wire_internal::PutVarint64(static_cast<uint64_t>(kD), &out);
    wire_internal::PutVarint64(static_cast<uint64_t>(store.sketch_rows),
                               &out);
    wire_internal::PutVarint64(static_cast<uint64_t>(store.sketch_width),
                               &out);
    wire_internal::PutVarint64(store.sketch_seed, &out);
    wire_internal::PutVarint64(1, &out);  // kIdempotent
    wire_internal::PutVarint64(static_cast<uint64_t>(window), &out);
    wire_internal::PutVarint64(0, &out);  // dyadic estimator
    wire_internal::PutVarint64(static_cast<uint64_t>(orders), &out);
    for (int h = 0; h < orders; ++h) {
      wire_internal::PutFixed64(0x3ff0000000000000ULL, &out);  // 1.0
      wire_internal::PutVarint64(h == 0 ? 1 : 0, &out);
    }
    const int64_t cells =
        SketchStore::CellCount(kD, store.sketch_rows, store.sketch_width);
    for (int64_t cell = 0; cell < cells; ++cell) {
      wire_internal::PutVarint64(0, &out);
    }
    wire_internal::PutVarint64(0, &out);  // duplicates dropped
    wire_internal::PutVarint64(0, &out);  // out-of-window dropped
    wire_internal::PutVarint64(1, &out);  // one client:
    wire_internal::PutVarint64(wire_internal::ZigZagEncode(1), &out);
    wire_internal::PutVarint64(0, &out);  // level 0
    wire_internal::PutVarint64(0, &out);  // base_word
    wire_internal::PutVarint64(1, &out);  // num_words
    wire_internal::PutVarint64(1, &out);  // boundary 0 seen
    wire_internal::AppendChecksum(&out);
    return out;
  };
  // The control: under a 64-boundary window the same client holds a
  // 2-word span, and the blob round-trips.
  const std::string windowed = seal(64);
  const Result<Server> restored = DecodeServerState(windowed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(EncodeServerState(restored.ValueOrDie()), windowed);
  EXPECT_LT(restored.ValueOrDie().ApproxMemoryBytes(), int64_t{1} << 20);

  const std::string unbounded = seal(0);
  EXPECT_LT(unbounded.size(), size_t{2048});
  const Status status = DecodeStatus(unbounded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("boundaries per client"), std::string::npos)
      << status.ToString();
}

TEST(SketchServerStateTest, EveryTruncationIsRejected) {
  const std::string blob =
      EncodeServerState(PopulatedSketchServer(DedupPolicy::kStrict, 12));
  for (size_t length = 0; length < blob.size(); ++length) {
    EXPECT_FALSE(DecodeServerState(std::string_view(blob).substr(0, length))
                     .ok())
        << "prefix of length " << length << " decoded";
  }
}

TEST(SketchServerStateTest, EverySingleBitFlipIsRejected) {
  const std::string blob =
      EncodeServerState(PopulatedSketchServer(DedupPolicy::kIdempotent, 13));
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = blob;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(DecodeServerState(corrupted).ok())
          << "flip at byte " << byte << " bit " << bit << " restored";
    }
  }
}

TEST(SketchCheckpointTest, MidStreamRestoreIsBitIdentical) {
  const Traffic traffic = GenerateTraffic(301, 48);
  const int64_t half = static_cast<int64_t>(traffic.batches.size()) / 2;
  for (const int shards : {1, 3}) {
    ShardedAggregator live =
        ShardedAggregator::ForProtocol(SketchConfig(), shards,
                                       DedupPolicy::kIdempotent)
            .ValueOrDie();
    ASSERT_TRUE(live.IngestRegistrations(traffic.registrations).ok());
    IngestBatches(&live, traffic, 0, static_cast<size_t>(half));

    const std::string snapshot = live.Checkpoint().ValueOrDie();
    ShardedAggregator cold =
        ShardedAggregator::ForProtocol(SketchConfig(), shards,
                                       DedupPolicy::kIdempotent)
            .ValueOrDie();
    ASSERT_TRUE(cold.Restore(snapshot).ok());
    EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
              live.EstimateAll().ValueOrDie());

    for (size_t b = static_cast<size_t>(half); b < traffic.batches.size();
         ++b) {
      ASSERT_TRUE(live.IngestReports(traffic.batches[b]).ok());
      ASSERT_TRUE(cold.IngestReports(traffic.batches[b]).ok());
    }
    EXPECT_EQ(cold.EstimateAll().ValueOrDie(),
              live.EstimateAll().ValueOrDie());
  }
}

TEST(SketchCheckpointTest, DeltaChainCarriesSketchShards) {
  const Traffic traffic = GenerateTraffic(302, 24);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(SketchConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(aggregator.IngestRegistrations(traffic.registrations).ok());
  const std::string base =
      aggregator.Checkpoint(CheckpointMode::kFull).ValueOrDie();
  IngestBatches(&aggregator, traffic, 0, traffic.batches.size() / 2);
  const std::string delta =
      aggregator.Checkpoint(CheckpointMode::kDelta).ValueOrDie();

  ShardedAggregator recovered =
      ShardedAggregator::ForProtocol(SketchConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(recovered.Restore(base).ok());
  ASSERT_TRUE(recovered.Restore(delta).ok());
  EXPECT_EQ(recovered.EstimateAll().ValueOrDie(),
            aggregator.EstimateAll().ValueOrDie());
}

TEST(SketchCheckpointTest, RestoreRejectsMismatchedStoreConfig) {
  const Traffic traffic = GenerateTraffic(303, 12);
  ShardedAggregator sketched =
      ShardedAggregator::ForProtocol(SketchConfig(), 2).ValueOrDie();
  ASSERT_TRUE(sketched.IngestRegistrations(traffic.registrations).ok());
  const std::string sketch_blob = sketched.Checkpoint().ValueOrDie();

  ShardedAggregator dense =
      ShardedAggregator::ForProtocol(TestConfig(), 2).ValueOrDie();
  ASSERT_TRUE(dense.IngestRegistrations(traffic.registrations).ok());
  const std::string dense_blob = dense.Checkpoint().ValueOrDie();

  // Each backend refuses the other's state; same for a parameter drift.
  EXPECT_EQ(dense.Restore(sketch_blob).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sketched.Restore(dense_blob).code(),
            StatusCode::kInvalidArgument);
  ProtocolConfig drifted = SketchConfig();
  drifted.store = StoreConfig::Sketch(3, 8, 8);  // different seed
  ShardedAggregator other_seed =
      ShardedAggregator::ForProtocol(drifted, 2).ValueOrDie();
  EXPECT_EQ(other_seed.Restore(sketch_blob).code(),
            StatusCode::kInvalidArgument);
}

TEST(SketchReshardTest, RestoreIntoDifferentShardCountIsBitIdentical) {
  const Traffic traffic = GenerateTraffic(304, 53);
  const int64_t half = static_cast<int64_t>(traffic.batches.size()) / 2;
  ShardedAggregator source =
      ShardedAggregator::ForProtocol(SketchConfig(), 4,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(source.IngestRegistrations(traffic.registrations).ok());
  IngestBatches(&source, traffic, 0, static_cast<size_t>(half));
  const std::string snapshot = source.Checkpoint().ValueOrDie();

  ShardedAggregator target =
      ShardedAggregator::ForProtocol(SketchConfig(), 7,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(target.Restore(snapshot).ok());
  EXPECT_EQ(target.num_shards(), 7);
  EXPECT_EQ(target.EstimateAll().ValueOrDie(),
            source.EstimateAll().ValueOrDie());

  // Both finish the stream: the sketch cells commute, so the resharded
  // aggregator tracks the source bit-for-bit to the end.
  for (size_t b = static_cast<size_t>(half); b < traffic.batches.size();
       ++b) {
    ASSERT_TRUE(source.IngestReports(traffic.batches[b]).ok());
    ASSERT_TRUE(target.IngestReports(traffic.batches[b]).ok());
  }
  EXPECT_EQ(target.EstimateAll().ValueOrDie(),
            source.EstimateAll().ValueOrDie());
  EXPECT_EQ(target.EstimateAllConsistent().ValueOrDie(),
            source.EstimateAllConsistent().ValueOrDie());
}

TEST(ReshardTest, ReshardedRestoreBreaksTheDeltaChain) {
  const Traffic traffic = GenerateTraffic(8, 12);
  ShardedAggregator source =
      ShardedAggregator::ForProtocol(TestConfig(), 4).ValueOrDie();
  ASSERT_TRUE(source.IngestRegistrations(traffic.registrations).ok());
  const std::string snapshot = source.Checkpoint().ValueOrDie();

  ShardedAggregator target =
      ShardedAggregator::ForProtocol(TestConfig(), 7).ValueOrDie();
  ASSERT_TRUE(target.Restore(snapshot).ok());
  // The source's chain position is meaningless under the new layout: the
  // next delta must wait for a fresh full checkpoint.
  const auto delta = target.Checkpoint(CheckpointMode::kDelta);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(target.Checkpoint(CheckpointMode::kFull).ok());
  EXPECT_TRUE(target.Checkpoint(CheckpointMode::kDelta).ok());
}


// ---------------------------------------------------------------------------
// Pinned bytes. The snapshot layout is normative (docs/FORMATS.md): how the
// server holds its clients in memory must never show in a blob. Two small
// servers are pinned byte for byte; fleet-shaped aggregators (ids 1..n in
// one registration batch, so the index stays a progression in every
// shard) and bounded-window states by size and FNV-1a 64.

Server GoldenServer(DedupPolicy policy) {
  Server server =
      Server::WithScales(8, {1.0, 2.0, 3.0, 4.0}, policy).ValueOrDie();
  // Registered out of id order, so the encoder must sort.
  EXPECT_TRUE(server.RegisterClient(5, 0).ok());
  EXPECT_TRUE(server.RegisterClient(-3, 1).ok());
  EXPECT_TRUE(server.RegisterClient(9, 2).ok());
  EXPECT_TRUE(server.SubmitReport(5, 1, 1).ok());
  EXPECT_TRUE(server.SubmitReport(5, 3, -1).ok());
  EXPECT_TRUE(server.SubmitReport(-3, 2, -1).ok());
  EXPECT_TRUE(server.SubmitReport(9, 4, 1).ok());
  EXPECT_TRUE(server.SubmitReport(-3, 6, 1).ok());
  return server;
}

ShardedAggregator GoldenFleetAggregator(int shards, DedupPolicy policy) {
  constexpr int64_t kClients = 1000;
  constexpr int64_t kHorizon = 64;
  ShardedAggregator aggregator =
      ShardedAggregator::WithScales(
          kHorizon, {1.0, 0.5, 0.25, 2.0, 4.0, 8.0, 3.0}, shards, policy)
          .ValueOrDie();
  Rng rng(20261018);
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < kClients; ++u) {
    registrations.push_back({1 + u, static_cast<int>(rng.NextInt(7))});
  }
  EXPECT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  for (int64_t t = 1; t <= kHorizon / 2; ++t) {
    std::vector<ReportMessage> tick;
    for (const RegistrationMessage& client : registrations) {
      if (t % (int64_t{1} << client.level) == 0) {
        tick.push_back({client.client_id, t, rng.NextSign()});
      }
    }
    EXPECT_TRUE(aggregator.IngestReports(tick).ok());
  }
  return aggregator;
}

TEST(CheckpointGoldenTest, SmallServerBytesAreFixed) {
  EXPECT_EQ(
      EncodeServerState(GoldenServer(DedupPolicy::kStrict)),
      std::string(
          "FRW\x01\x03\x08\x00\x00\x00\x04"
          "\x00\x00\x00\x00\x00\x00\xf0\x3f\x01"
          "\x00\x00\x00\x00\x00\x00\x00\x40\x01"
          "\x00\x00\x00\x00\x00\x00\x08\x40\x01"
          "\x00\x00\x00\x00\x00\x00\x10\x40\x00"
          "\x02\x00\x01\x00\x00\x00\x00\x00\x01\x00\x02\x00\x02\x00\x00"
          "\x00\x00\x03\x05\x01\x06\x10\x00\x03\x08\x02\x04"
          "\x64\x07\xa4\x1b\x89\xcc\xd4\xba",
          81));
  EXPECT_EQ(
      EncodeServerState(GoldenServer(DedupPolicy::kIdempotent)),
      std::string(
          "FRW\x01\x03\x08\x01\x00\x00\x04"
          "\x00\x00\x00\x00\x00\x00\xf0\x3f\x01"
          "\x00\x00\x00\x00\x00\x00\x00\x40\x01"
          "\x00\x00\x00\x00\x00\x00\x08\x40\x01"
          "\x00\x00\x00\x00\x00\x00\x10\x40\x00"
          "\x02\x00\x01\x00\x00\x00\x00\x00\x01\x00\x02\x00\x02\x00\x00"
          "\x00\x00\x03\x05\x01\x00\x01\x05\x10\x00\x00\x01\x05\x08\x02"
          "\x00\x01\x01"
          "\xbc\xa8\x49\xf1\x88\x2d\xdb\x6f",
          87));
}

TEST(CheckpointGoldenTest, FleetShapedCheckpointBytesAreFixed) {
  struct Golden {
    DedupPolicy policy;
    int shards;
    size_t size;
    uint64_t fnv;
  };
  const Golden goldens[] = {
      {DedupPolicy::kStrict, 1, 3245, 0x062a5d87c43a80acULL},
      {DedupPolicy::kStrict, 4, 3880, 0xc163cda3fbee48d5ULL},
      {DedupPolicy::kIdempotent, 1, 6163, 0x9837ba50b8f9d94bULL},
      {DedupPolicy::kIdempotent, 4, 6799, 0x0b720d2ab55e8315ULL},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message()
                 << DedupPolicyToString(golden.policy) << " " << golden.shards
                 << " shards");
    ShardedAggregator aggregator =
        GoldenFleetAggregator(golden.shards, golden.policy);
    const std::string blob = aggregator.Checkpoint().ValueOrDie();
    EXPECT_EQ(blob.size(), golden.size);
    EXPECT_EQ(wire_internal::Fnv1a64(blob), golden.fnv);
    // And a restored copy re-encodes to the same bytes.
    ShardedAggregator restored =
        ShardedAggregator::WithScales(
            64, {1.0, 0.5, 0.25, 2.0, 4.0, 8.0, 3.0}, golden.shards,
            golden.policy)
            .ValueOrDie();
    ASSERT_TRUE(restored.Restore(blob).ok());
    const std::string again = restored.Checkpoint().ValueOrDie();
    EXPECT_EQ(wire_internal::Fnv1a64(again), golden.fnv);
  }
}

// A bounded-window server holding each kind of windowed client state: a
// frontier jump after an outage, stragglers delivered late inside (or just
// behind) the window, duplicates, and a client that never reported.
Server GoldenWindowedServer(int64_t window) {
  constexpr int64_t kHorizon = 1024;
  Server server =
      Server::WithScales(kHorizon,
                         {1.0, 0.5, 0.25, 2.0, 4.0, 8.0, 3.0, 1.5, 6.0, 0.75,
                          5.0},
                         DedupPolicy::kIdempotent, DedupWindowPolicy{window})
          .ValueOrDie();
  Rng rng(1024 + static_cast<uint64_t>(window));
  const auto submit = [&](int64_t id, int64_t t) {
    EXPECT_TRUE(server.SubmitReport(id, t, rng.NextSign()).ok())
        << "id " << id << " t " << t;
  };
  // Frontier jump: three early reports, an outage, then a report near the
  // horizon, a straggler right behind it and one from before the outage.
  EXPECT_TRUE(server.RegisterClient(3, 0).ok());
  for (const int64_t t : {1, 2, 3, 1000, 998, 2}) {
    submit(3, t);
  }
  // Stragglers: a level-1 client whose every seventh boundary arrives late,
  // some inside the window and some behind it, plus retransmissions.
  EXPECT_TRUE(server.RegisterClient(7, 1).ok());
  for (int64_t t = 2; t <= 600; t += 2) {
    if (t % 14 != 0) {
      submit(7, t);
    }
  }
  for (const int64_t t : {588, 560, 476, 600, 588, 462, 14, 598}) {
    submit(7, t);
  }
  // Registered, never reported.
  EXPECT_TRUE(server.RegisterClient(11, 2).ok());
  // A deeper client delivered newest first.
  EXPECT_TRUE(server.RegisterClient(-5, 4).ok());
  for (int64_t t = 1024; t >= 16; t -= 16) {
    submit(-5, t);
  }
  // A level-6 client with a single mid-stream report.
  EXPECT_TRUE(server.RegisterClient(20, 6).ok());
  submit(20, 448);
  return server;
}

// A windowed 3-shard aggregator fed a seeded at-least-once stream: each
// tick every client reports for a time up to 100 periods back (on its
// level's grid), sometimes twice, and one client in five goes silent for
// most of the horizon before jumping ahead.
ShardedAggregator GoldenWindowedAggregator(int64_t window) {
  constexpr int64_t kClients = 240;
  constexpr int64_t kHorizon = 1024;
  const std::vector<double> scales(11, 1.0);
  ShardedAggregator aggregator =
      ShardedAggregator::WithScales(kHorizon, scales, 3,
                                    DedupPolicy::kIdempotent,
                                    DedupWindowPolicy{window})
          .ValueOrDie();
  Rng rng(4242 + static_cast<uint64_t>(window));
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < kClients; ++u) {
    registrations.push_back({1 + u, static_cast<int>(rng.NextInt(4))});
  }
  EXPECT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  for (int64_t t = 1; t <= kHorizon; t += 3) {
    std::vector<ReportMessage> tick;
    for (const RegistrationMessage& client : registrations) {
      const bool silent = client.client_id % 5 == 0;
      if (silent && t > 8 && t < 900) {
        continue;
      }
      const int64_t step = int64_t{1} << client.level;
      const int64_t back = static_cast<int64_t>(rng.NextInt(101));
      const int64_t time = std::max<int64_t>(t - back, 1);
      const int64_t aligned = time - (time % step);
      if (aligned < step) {
        continue;
      }
      const int8_t value = rng.NextSign();
      tick.push_back({client.client_id, aligned, value});
      if (rng.NextBernoulli(0.2)) {
        tick.push_back({client.client_id, aligned, value});
      }
    }
    EXPECT_TRUE(aggregator.IngestReports(tick).ok());
  }
  return aggregator;
}

TEST(CheckpointGoldenTest, WindowedCheckpointBytesAreFixed) {
  struct Golden {
    int64_t window;
    size_t server_size;
    uint64_t server_fnv;
    size_t aggregator_size;
    uint64_t aggregator_fnv;
  };
  const Golden goldens[] = {
      {1, 2212, 0xe3bdb1a4ee669a5fULL, 9478, 0xbaca0e94340c07d0ULL},
      {64, 2223, 0x99b4360122422beaULL, 11529, 0xdd77229223d6a2b8ULL},
      {65, 2223, 0xecdd87299fc02f10ULL, 11557, 0x9ef8be3ac9967407ULL},
      {70, 2223, 0x697d16e1c16ecf3bULL, 11515, 0xab322d401938a4a0ULL},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message() << "window " << golden.window);
    const std::string blob =
        EncodeServerState(GoldenWindowedServer(golden.window));
    EXPECT_EQ(blob.size(), golden.server_size);
    EXPECT_EQ(wire_internal::Fnv1a64(blob), golden.server_fnv);
    EXPECT_EQ(EncodeServerState(DecodeServerState(blob).ValueOrDie()), blob);

    ShardedAggregator aggregator = GoldenWindowedAggregator(golden.window);
    const std::string checkpoint = aggregator.Checkpoint().ValueOrDie();
    // The stream exercised every verdict.
    EXPECT_GT(aggregator.duplicates_dropped(), 0);
    EXPECT_GT(aggregator.out_of_window_dropped(), 0);
    EXPECT_EQ(checkpoint.size(), golden.aggregator_size);
    EXPECT_EQ(wire_internal::Fnv1a64(checkpoint), golden.aggregator_fnv);
    // Restored into the same and into other shard counts, the state answers
    // and counts alike; into the same count it re-encodes to the same bytes.
    for (const int shards : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << shards << " shards");
      ShardedAggregator restored =
          ShardedAggregator::WithScales(1024, std::vector<double>(11, 1.0),
                                        shards, DedupPolicy::kIdempotent,
                                        DedupWindowPolicy{golden.window})
              .ValueOrDie();
      ASSERT_TRUE(restored.Restore(checkpoint).ok());
      EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
                aggregator.EstimateAll().ValueOrDie());
      EXPECT_EQ(restored.duplicates_dropped(),
                aggregator.duplicates_dropped());
      EXPECT_EQ(restored.out_of_window_dropped(),
                aggregator.out_of_window_dropped());
      if (shards == 3) {
        EXPECT_EQ(restored.Checkpoint().ValueOrDie(), checkpoint);
      }
    }
  }
}

TEST(CheckpointGoldenTest, ExtremeIdsRoundTrip) {
  // Legal ids at both ends of the int64 range: the id deltas between them
  // wrap (in two's complement) on encode and decode alike.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const DedupPolicy policy :
       {DedupPolicy::kStrict, DedupPolicy::kIdempotent}) {
    SCOPED_TRACE(DedupPolicyToString(policy));
    ShardedAggregator source =
        ShardedAggregator::ForProtocol(TestConfig(), 1, policy).ValueOrDie();
    ASSERT_TRUE(source
                    .IngestRegistrations(std::vector<RegistrationMessage>{
                        {kMin, 0}, {1, 1}, {kMax, 2}})
                    .ok());
    ASSERT_TRUE(source
                    .IngestReports(std::vector<ReportMessage>{
                        {kMin, 4, 1}, {1, 4, -1}, {kMax, 4, 1}, {kMin, 5, -1}})
                    .ok());
    const std::string blob = source.Checkpoint().ValueOrDie();
    for (const int shards : {1, 3}) {
      ShardedAggregator restored =
          ShardedAggregator::ForProtocol(TestConfig(), shards, policy)
              .ValueOrDie();
      ASSERT_TRUE(restored.Restore(blob).ok()) << shards << " shards";
      EXPECT_EQ(restored.num_clients(), 3);
      EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
                source.EstimateAll().ValueOrDie());
      // The restored state remembers every client's dedup state: the next
      // reports land, and under kStrict a stale one is still refused.
      const ReportMessage next{kMax, 8, -1};
      ASSERT_TRUE(restored.IngestReports({&next, 1}).ok());
      if (policy == DedupPolicy::kStrict) {
        const ReportMessage stale{kMin, 5, 1};
        EXPECT_FALSE(restored.IngestReports({&stale, 1}).ok());
      }
    }
    const std::string shard =
        DecodeAggregatorState(blob).ValueOrDie().shards.at(0);
    EXPECT_EQ(EncodeServerState(DecodeServerState(shard).ValueOrDie()),
              shard);
  }
}

}  // namespace
}  // namespace futurerand::core
