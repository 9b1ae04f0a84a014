// Checkpoint/restore: a snapshot round-trip must preserve everything that
// matters — estimates bit-identical, ingestion resuming exactly where the
// encoded state left off (monotonicity watermarks under kStrict, boundary
// bitmaps under kIdempotent) — and a corrupted or truncated blob must never
// restore silently.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
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
// shard) by size and FNV-1a 64.

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
