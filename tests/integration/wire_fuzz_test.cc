// Adversarial wire-decoder fuzzing: starting from VALID encoded payloads
// (registration/report batches of kinds 6, 7 and 10, server snapshots —
// dyadic, sketch-backed and direct-estimator — full aggregator
// checkpoints, delta checkpoints, and kind-9 longitudinal fleet blobs),
// mutate them — truncation at every byte offset, single-bit flips at every
// bit position, overlong varints, random multi-byte garbage — and assert
// the decoders never crash, never loop, and never silently accept what the
// format can detect. Snapshot blobs and transport batches carry a
// checksum, so for them "detectable" means every mutation. Batches that
// are mutated and then re-sealed with a fresh checksum (what a buggy or
// hostile sender produces) reach the record-level checks: a payload-varint
// flip may legitimately decode to a different well-formed batch — in that
// case the batch must re-encode/decode cleanly.
//
// Seeded and FR_FUZZ_ROUNDS-scaled like tests/integration/fuzz_test.cc:
//   FR_FUZZ_ROUNDS=5000 ctest -R wire_fuzz_test
//   FR_FUZZ_SEEDS=64 ./build/tests/wire_fuzz_test

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/frame.h"
#include "futurerand/randomizer/randomizer.h"
#include "testsupport/env_scaling.h"

// The largest single allocation since the last reset. The global operator
// new below records it, so a test can bound what a decoder reserves for a
// forged count or span.
std::atomic<size_t> g_largest_allocation{0};

// GCC cannot see that these replace the global pair and warns that free
// meets a pointer from operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_allocation.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t /*size*/) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace futurerand::core {
namespace {

using testsupport::FuzzRounds;
using testsupport::FuzzSeeds;

// One of each valid payload kind, derived from the seed.
struct ValidPayloads {
  std::string registrations_v2;
  std::string reports_v2;
  std::string reports_packed;  // one tick, ascending ids: kind 10
  std::string server_state;
  std::string server_state_sketch;
  std::string server_state_direct;
  std::string aggregator_state;
  std::string aggregator_delta;
  std::string fleet_long_state;
};

// The kind-9 blob has no free-function decoder: it restores into a fleet
// whose shape must match. This config (shared by the payload builder and
// the mutation assertions) pins that shape.
core::ProtocolConfig LongitudinalFleetConfig() {
  core::ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 4;
  config.epsilon = 1.0;
  config.longitudinal_alpha = 0.5;
  config.randomizer = rand::RandomizerKind::kLGrr;
  return config;
}

constexpr int64_t kLongitudinalFleetSize = 12;

ValidPayloads MakePayloads(uint64_t seed) {
  Rng rng(seed * 2654435761 + 17);
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < 25; ++u) {
    registrations.push_back({u * 3 - 10, static_cast<int>(rng.NextInt(5))});
  }
  std::vector<ReportMessage> reports;
  int64_t time = 0;
  for (int i = 0; i < 30; ++i) {
    time += 1 + static_cast<int64_t>(rng.NextInt(4));
    reports.push_back({static_cast<int64_t>(rng.NextInt(50)), time,
                       rng.NextSign()});
  }
  Server server =
      Server::WithScales(16, {1.0, 2.0, 3.0, 4.0, 5.0},
                         rng.NextBernoulli(0.5) ? DedupPolicy::kIdempotent
                                                : DedupPolicy::kStrict)
          .ValueOrDie();
  for (int64_t u = 0; u < 10; ++u) {
    EXPECT_TRUE(
        server.RegisterClient(u, static_cast<int>(rng.NextInt(5))).ok());
  }
  for (int64_t u = 0; u < 10; ++u) {
    // Each client's coarsest valid time: d works for every level.
    EXPECT_TRUE(server.SubmitReport(u, 16, rng.NextSign()).ok());
  }
  // A sketch-backed twin of the server: R*W = 8 < 16 intervals, so level
  // 0 is genuinely hash-bucketed and the kind-8 blob carries a real arena.
  Server sketch_server =
      Server::WithScales(16, {1.0, 2.0, 3.0, 4.0, 5.0},
                         DedupPolicy::kIdempotent, {},
                         StoreConfig::Sketch(1, 8, seed + 7))
          .ValueOrDie();
  for (int64_t u = 0; u < 10; ++u) {
    EXPECT_TRUE(
        sketch_server.RegisterClient(u, static_cast<int>(rng.NextInt(5)))
            .ok());
    EXPECT_TRUE(sketch_server.SubmitReport(u, 16, rng.NextSign()).ok());
  }
  // A direct-estimator server (the longitudinal aggregation mode): the
  // kind-3/8 snapshots grow an estimator block, which the fuzzers must
  // cover too. Direct mode restricts registrations to level 0.
  EstimatorSpec direct;
  direct.mode = EstimatorSpec::Mode::kDirect;
  direct.direct_offset = -0.25;
  Server direct_server =
      Server::WithScales(16, {2.0, 0.0, 0.0, 0.0, 0.0},
                         DedupPolicy::kIdempotent, {}, {}, direct)
          .ValueOrDie();
  for (int64_t u = 0; u < 10; ++u) {
    EXPECT_TRUE(direct_server.RegisterClient(u, 0).ok());
    EXPECT_TRUE(
        direct_server
            .SubmitReport(u, 1 + static_cast<int64_t>(rng.NextInt(16)),
                          rng.NextSign())
            .ok());
  }
  // A memoized longitudinal fleet a few ticks in: the FRW kind-9 blob.
  auto fleet = core::ClientFleet::Create(LongitudinalFleetConfig(),
                                         kLongitudinalFleetSize, seed + 99)
                   .ValueOrDie();
  std::vector<int8_t> states(kLongitudinalFleetSize);
  for (int64_t t = 1; t <= 5; ++t) {
    for (int64_t u = 0; u < kLongitudinalFleetSize; ++u) {
      states[static_cast<size_t>(u)] = static_cast<int8_t>((u + t / 2) % 2);
    }
    EXPECT_TRUE(fleet.AdvanceTick(states).ok());
  }
  ValidPayloads payloads;
  payloads.server_state_direct = EncodeServerState(direct_server);
  payloads.fleet_long_state = fleet.EncodeLongitudinalState().ValueOrDie();
  payloads.registrations_v2 = EncodeRegistrationBatch(registrations);
  payloads.reports_v2 = EncodeReportBatch(reports).ValueOrDie();
  // About one id in four reports, at one time: the encoder packs it. Its
  // own stream leaves the other payloads' draws as they were.
  Rng tick_rng(seed * 7 + 11);
  std::vector<ReportMessage> tick;
  const int64_t tick_time = 1 + static_cast<int64_t>(tick_rng.NextInt(64));
  for (int64_t id = static_cast<int64_t>(tick_rng.NextInt(100)) - 50;
       tick.size() < 40; id += 1 + static_cast<int64_t>(tick_rng.NextInt(7))) {
    tick.push_back({id, tick_time, tick_rng.NextSign()});
  }
  payloads.reports_packed = EncodeReportBatch(tick).ValueOrDie();
  EXPECT_EQ(PeekBatchKind(payloads.reports_packed).ValueOrDie(),
            WireBatchKind::kReportPackedV2);
  payloads.server_state = EncodeServerState(server);
  payloads.server_state_sketch = EncodeServerState(sketch_server);
  payloads.aggregator_state = EncodeAggregatorState(
      {payloads.server_state, payloads.server_state}, /*epoch=*/1);
  AggregatorDeltaBlob delta;
  delta.num_shards = 3;
  delta.epoch = 1 + rng.NextInt(4);
  delta.seq = 1 + rng.NextInt(4);
  delta.shards.push_back(ShardDelta{0, payloads.server_state});
  delta.shards.push_back(ShardDelta{2, payloads.server_state});
  payloads.aggregator_delta = EncodeAggregatorDelta(delta);
  return payloads;
}

core::ClientFleet MakeColdFleet(uint64_t seed = 1) {
  return core::ClientFleet::Create(LongitudinalFleetConfig(),
                                   kLongitudinalFleetSize, seed)
      .ValueOrDie();
}

// Every decoder the wire surface exposes; none may crash on any input.
// The kind-9 restore path is exercised through a matching cold fleet.
void DecodeEverything(const std::string& bytes) {
  (void)PeekBatchKind(bytes);
  (void)DecodeRegistrationBatch(bytes);
  (void)DecodeReportBatch(bytes);
  (void)DecodeServerState(bytes);
  (void)DecodeAggregatorState(bytes);
  (void)DecodeAggregatorDelta(bytes);
  core::ClientFleet fleet = MakeColdFleet();
  (void)fleet.RestoreLongitudinalState(bytes);
}

// `payload` with its trailer recomputed: a forgery the checksum accepts.
std::string Sealed(std::string payload) {
  wire_internal::AppendChecksum(&payload);
  return payload;
}

// The ingest target of the kind-10 route: a 3-shard kStrict aggregator
// with every id a MakePayloads tick can name (-50 up to 49 + 39 * 7)
// registered at level 0, so the pristine packed payload applies whole.
ShardedAggregator PackedTarget() {
  core::ProtocolConfig config;
  config.num_periods = 64;
  config.max_changes = 4;
  config.epsilon = 1.0;
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(config, 3).ValueOrDie();
  std::vector<RegistrationMessage> registrations;
  for (int64_t id = -64; id <= 400; ++id) {
    registrations.push_back({id, 0});
  }
  EXPECT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  return aggregator;
}

// What a fresh PackedTarget's IngestEncoded says to `bytes`, the route
// that applies kind 10 in place. A rejected batch must leave the target's
// full checkpoint byte for byte as it was.
Status PackedRouteStatus(const std::string& bytes) {
  ShardedAggregator target = PackedTarget();
  const std::string before = target.Checkpoint().ValueOrDie();
  const Status status = target.IngestEncoded(bytes);
  if (!status.ok() && status.code() != StatusCode::kNotFound) {
    // Every id of the pristine payload is registered, so only a forged
    // batch can name an unregistered one and apply a prefix first.
    EXPECT_EQ(target.Checkpoint().ValueOrDie(), before) << status.ToString();
  }
  return status;
}

// The decode route for the same batch: DecodeReportBatch, then
// IngestReports on a fresh PackedTarget.
Status PackedDecodeRouteStatus(const std::string& bytes) {
  const auto reports = DecodeReportBatch(bytes);
  if (!reports.ok()) {
    return reports.status();
  }
  ShardedAggregator target = PackedTarget();
  return target.IngestReports(*reports);
}

// The code ShardedAggregator::IngestEncoded gives `bytes`: kind 10 from a
// registered aggregator, the others from the decoder the header routes
// them to (whose verdict on corruption is the ingest verdict).
StatusCode RoutedCode(const std::string& bytes) {
  const auto kind = PeekBatchKind(bytes);
  if (!kind.ok()) {
    return kind.status().code();
  }
  switch (*kind) {
    case WireBatchKind::kRegistrationV2:
      return DecodeRegistrationBatch(bytes).status().code();
    case WireBatchKind::kReportV2:
      return DecodeReportBatch(bytes).status().code();
    case WireBatchKind::kReportPackedV2:
      return PackedRouteStatus(bytes).code();
    default:
      return StatusCode::kInvalidArgument;
  }
}

class WireAdversaryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireAdversaryTest, TruncationAtEveryOffsetIsRejected) {
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (const std::string* payload :
       {&payloads.registrations_v2, &payloads.reports_v2,
        &payloads.reports_packed, &payloads.server_state,
        &payloads.server_state_sketch,
        &payloads.server_state_direct, &payloads.aggregator_state,
        &payloads.aggregator_delta, &payloads.fleet_long_state}) {
    for (size_t length = 0; length < payload->size(); ++length) {
      const std::string prefix = payload->substr(0, length);
      DecodeEverything(prefix);
      // A strict prefix can never be a complete payload of any kind.
      EXPECT_FALSE(DecodeRegistrationBatch(prefix).ok());
      EXPECT_FALSE(DecodeReportBatch(prefix).ok());
      EXPECT_FALSE(DecodeServerState(prefix).ok());
      EXPECT_FALSE(DecodeAggregatorState(prefix).ok());
      EXPECT_FALSE(DecodeAggregatorDelta(prefix).ok());
      core::ClientFleet fleet = MakeColdFleet();
      EXPECT_FALSE(fleet.RestoreLongitudinalState(prefix).ok());
    }
  }
}

TEST_P(WireAdversaryTest, BitFlippedBatchesNeverCrashAndStayWellFormed) {
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (const std::string* payload :
       {&payloads.registrations_v2, &payloads.reports_v2,
        &payloads.reports_packed}) {
    // Flip every bit before the trailer, then deliver the batch as is
    // (the checksum catches it) and re-sealed (the record decoder must).
    const std::string unsealed = payload->substr(0, payload->size() - 8);
    for (size_t byte = 0; byte < unsealed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
        std::string corrupted = *payload;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        DecodeEverything(corrupted);
        EXPECT_EQ(RoutedCode(corrupted), StatusCode::kDataLoss);

        std::string forged = unsealed;
        forged[byte] ^= static_cast<char>(1 << bit);
        forged = Sealed(forged);
        DecodeEverything(forged);
        // If the flip lands in a payload varint the batch may still decode
        // — then it must be a well-formed batch that round-trips.
        // Otherwise a record-level check rejects it; only a header flip
        // (bad magic or version) may fail as kDataLoss.
        const auto registrations = DecodeRegistrationBatch(forged);
        if (registrations.ok()) {
          const auto round_trip = DecodeRegistrationBatch(
              EncodeRegistrationBatch(*registrations));
          ASSERT_TRUE(round_trip.ok());
          EXPECT_EQ(*round_trip, *registrations);
        } else if (byte >= wire_internal::kHeaderSize) {
          EXPECT_EQ(registrations.status().code(),
                    StatusCode::kInvalidArgument);
        }
        if (PeekBatchKind(forged).ok() &&
            *PeekBatchKind(forged) == WireBatchKind::kReportPackedV2) {
          // In place or decoded and applied: one verdict.
          const Status in_place = PackedRouteStatus(forged);
          const Status decoded = PackedDecodeRouteStatus(forged);
          EXPECT_EQ(in_place.code(), decoded.code()) << in_place.ToString();
          EXPECT_EQ(in_place.message(), decoded.message());
        }
        const auto reports = DecodeReportBatch(forged);
        if (reports.ok()) {
          const auto encoded = EncodeReportBatch(*reports);
          ASSERT_TRUE(encoded.ok());
          EXPECT_EQ(*DecodeReportBatch(*encoded), *reports);
        } else if (byte >= wire_internal::kHeaderSize) {
          EXPECT_EQ(reports.status().code(), StatusCode::kInvalidArgument);
        }
      }
    }
  }
}

TEST_P(WireAdversaryTest, BitFlippedSnapshotsAreAlwaysRejected) {
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (const std::string* payload :
       {&payloads.server_state, &payloads.server_state_sketch,
        &payloads.server_state_direct}) {
    for (size_t byte = 0; byte < payload->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = *payload;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        EXPECT_FALSE(DecodeServerState(corrupted).ok())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
  // The aggregator frame's checksum covers the nested shard blobs too;
  // sample (8x the blob size is too slow for tier-1).
  Rng rng(GetParam() * 31 + 5);
  const int64_t rounds = FuzzRounds(200);
  for (int64_t round = 0; round < rounds; ++round) {
    std::string corrupted = payloads.aggregator_state;
    const auto byte = static_cast<size_t>(rng.NextInt(corrupted.size()));
    corrupted[byte] ^= static_cast<char>(1 << rng.NextInt(8));
    EXPECT_FALSE(DecodeAggregatorState(corrupted).ok());
  }
}

TEST_P(WireAdversaryTest, EveryBitFlippedDeltaIsRejected) {
  // The delta kind is the newest persisted format; cover it exhaustively —
  // every single-bit flip at every byte must fail the FNV-1a trailer (or,
  // for flips inside the trailer itself, the payload comparison).
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (size_t byte = 0; byte < payloads.aggregator_delta.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = payloads.aggregator_delta;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(DecodeAggregatorDelta(corrupted).ok())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(WireAdversaryTest, EveryBitFlippedFleetStateIsRejected) {
  // The FRW kind-9 fleet blob carries the memoized randomizer state and
  // ends in the same FNV-1a trailer as the other snapshots: every
  // single-bit flip must be rejected (the checksum, or for trailer flips
  // the payload comparison), and a failed restore must leave the target
  // fleet usable — all-or-nothing.
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (size_t byte = 0; byte < payloads.fleet_long_state.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = payloads.fleet_long_state;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      core::ClientFleet fleet = MakeColdFleet(GetParam() + 5);
      EXPECT_FALSE(fleet.RestoreLongitudinalState(corrupted).ok())
          << "byte " << byte << " bit " << bit;
      // The pristine blob still restores into the untouched fleet.
      EXPECT_TRUE(
          fleet.RestoreLongitudinalState(payloads.fleet_long_state).ok())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(WireAdversaryTest, EveryBitFlippedV2BatchIsRejected) {
  // v2 transport batches carry the same FNV-1a trailer as snapshots, so
  // the same exhaustive guarantee applies: every single-bit flip at every
  // byte — header, count, records, trailer — must be rejected by every
  // decoder. (A kind-byte flip may turn one v2 kind into the other; the
  // checksum covers the header, so the rerouted decode still fails.)
  const ValidPayloads payloads = MakePayloads(GetParam());
  // The kind-10 route's target takes the pristine batch whole.
  EXPECT_TRUE(PackedRouteStatus(payloads.reports_packed).ok());
  for (const std::string* payload :
       {&payloads.registrations_v2, &payloads.reports_v2,
        &payloads.reports_packed}) {
    for (size_t byte = 0; byte < payload->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = *payload;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        DecodeEverything(corrupted);
        EXPECT_FALSE(DecodeRegistrationBatch(corrupted).ok())
            << "byte " << byte << " bit " << bit;
        EXPECT_FALSE(DecodeReportBatch(corrupted).ok())
            << "byte " << byte << " bit " << bit;
        EXPECT_EQ(RoutedCode(corrupted), StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST_P(WireAdversaryTest, OverlongVarintsAreRejected) {
  // Replace the count varint with an 11-byte (overlong) encoding; also try
  // a 10-byte maximal varint as a count, which must be rejected as
  // implausible rather than allocating. The transport kinds are re-sealed
  // so the varint checks behind their checksum run.
  Rng rng(GetParam() * 7 + 3);
  for (const char kind :
       {wire_internal::kKindRegistrationV2, wire_internal::kKindReportV2,
        wire_internal::kKindReportPackedV2, char{3}, char{4}, char{5},
        char{8}, char{9}}) {
    const bool transport = wire_internal::KindWireVersion(kind) ==
                           wire_internal::kWireVersion2;
    const auto seal = [&](std::string bytes) {
      return transport ? Sealed(std::move(bytes)) : bytes;
    };
    std::string overlong;
    wire_internal::AppendHeader(kind, &overlong);
    for (int i = 0; i < 10; ++i) {
      overlong.push_back(static_cast<char>(0x80 | (rng.NextUint64() & 0x7f)));
    }
    overlong.push_back(1);
    overlong = seal(overlong);
    DecodeEverything(overlong);
    if (transport) {
      EXPECT_EQ(RoutedCode(overlong), StatusCode::kInvalidArgument);
    }
    EXPECT_FALSE(DecodeRegistrationBatch(overlong).ok());
    EXPECT_FALSE(DecodeReportBatch(overlong).ok());
    EXPECT_FALSE(DecodeServerState(overlong).ok());
    EXPECT_FALSE(DecodeAggregatorState(overlong).ok());
    EXPECT_FALSE(DecodeAggregatorDelta(overlong).ok());
    core::ClientFleet fleet = MakeColdFleet();
    EXPECT_FALSE(fleet.RestoreLongitudinalState(overlong).ok());

    std::string huge_count;
    wire_internal::AppendHeader(kind, &huge_count);
    for (int i = 0; i < 9; ++i) {
      huge_count.push_back(static_cast<char>(0xff));
    }
    huge_count.push_back(0x7f);
    huge_count.append("abcdef");  // a few bytes of "records"
    huge_count = seal(huge_count);
    DecodeEverything(huge_count);
    if (transport) {
      EXPECT_EQ(RoutedCode(huge_count), StatusCode::kInvalidArgument);
    }
    EXPECT_FALSE(DecodeRegistrationBatch(huge_count).ok());
    EXPECT_FALSE(DecodeReportBatch(huge_count).ok());
    EXPECT_FALSE(fleet.RestoreLongitudinalState(huge_count).ok());
  }
}

TEST_P(WireAdversaryTest, RandomMutationsNeverCrashTheDecoders) {
  const ValidPayloads payloads = MakePayloads(GetParam());
  Rng rng(GetParam() * 6364136223846793005ULL + 1442695040888963407ULL);
  const int64_t rounds = FuzzRounds(300);
  const std::string* sources[] = {&payloads.registrations_v2,
                                  &payloads.reports_v2,
                                  &payloads.reports_packed,
                                  &payloads.server_state,
                                  &payloads.server_state_sketch,
                                  &payloads.server_state_direct,
                                  &payloads.aggregator_state,
                                  &payloads.aggregator_delta,
                                  &payloads.fleet_long_state};
  for (int64_t round = 0; round < rounds; ++round) {
    std::string mutated = *sources[rng.NextInt(std::size(sources))];
    const uint64_t mutations = 1 + rng.NextInt(8);
    for (uint64_t m = 0; m < mutations; ++m) {
      switch (rng.NextInt(4)) {
        case 0:  // flip a bit
          mutated[static_cast<size_t>(rng.NextInt(mutated.size()))] ^=
              static_cast<char>(1 << rng.NextInt(8));
          break;
        case 1:  // overwrite a byte
          mutated[static_cast<size_t>(rng.NextInt(mutated.size()))] =
              static_cast<char>(rng.NextUint64() & 0xff);
          break;
        case 2:  // truncate a suffix
          mutated.resize(static_cast<size_t>(rng.NextInt(mutated.size())) +
                         1);
          break;
        default:  // append garbage
          mutated.push_back(static_cast<char>(rng.NextUint64() & 0xff));
          break;
      }
    }
    DecodeEverything(mutated);
    // Checksummed payloads (snapshots and v2 batches) must reject any
    // mutation — their trailer sees everything. For v2 batches the
    // property is header-scoped: any bytes claiming v2 framing that are
    // not one of the three pristine payloads must fail both decoders.
    if (mutated.size() >= 5 && mutated[3] == 2 &&
        mutated != payloads.registrations_v2 &&
        mutated != payloads.reports_v2 &&
        mutated != payloads.reports_packed) {
      EXPECT_FALSE(DecodeRegistrationBatch(mutated).ok())
          << "mutated v2 framing accepted";
      EXPECT_FALSE(DecodeReportBatch(mutated).ok())
          << "mutated v2 framing accepted";
    }
    if (mutated != payloads.server_state &&
        mutated != payloads.server_state_sketch &&
        mutated != payloads.server_state_direct) {
      EXPECT_FALSE(DecodeServerState(mutated).ok());
    }
    if (mutated != payloads.aggregator_state) {
      EXPECT_FALSE(DecodeAggregatorState(mutated).ok());
    }
    if (mutated != payloads.aggregator_delta) {
      EXPECT_FALSE(DecodeAggregatorDelta(mutated).ok());
    }
    if (mutated != payloads.fleet_long_state) {
      core::ClientFleet fleet = MakeColdFleet();
      EXPECT_FALSE(fleet.RestoreLongitudinalState(mutated).ok());
    }
  }
}

TEST(WirePackedForgeryTest, SealedForgeriesAreRejectedWithoutLargeAllocation) {
  // Sealed kind-10 batches that break one canonical-form rule each. Every
  // one fails with kInvalidArgument, and no count or span is trusted
  // before it is checked against the bytes that remain.
  auto sealed = [](std::initializer_list<uint64_t> varints,
                   std::initializer_list<uint8_t> bitmaps,
                   size_t zero_bytes = 0) {
    std::string bytes;
    wire_internal::AppendHeader(wire_internal::kKindReportPackedV2, &bytes);
    for (const uint64_t varint : varints) {
      wire_internal::PutVarint64(varint, &bytes);
    }
    for (const uint8_t byte : bitmaps) {
      bytes.push_back(static_cast<char>(byte));
    }
    bytes.append(zero_bytes, '\0');
    return Sealed(std::move(bytes));
  };
  // Enough zero sign bytes for a count of 2^19 reports.
  constexpr size_t kSignBytes = size_t{1} << 16;
  const std::string forgeries[] = {
      sealed({3, 1, 0, 2}, {0x05, 0x00}),            // popcount 2, count 3
      sealed({1, 1, 0, 2}, {0x05, 0x00}),            // popcount 2, count 1
      sealed({2, 1, 0, 1}, {0x07, 0x00}),            // a padding bit set
      sealed({2, 1, 0, 1}, {0x03, 0x04}),            // a sign padding bit set
      sealed({2, 1, 0, 9}, {0x00, 0x02, 0x00}),      // bit 0 clear
      sealed({2, 1, 0, 9}, {0x01, 0x00, 0x00}),      // bit span clear
      sealed({1, 1, 0, uint64_t{1} << 40}, {0x01, 0x01}),  // span > bytes
      sealed({uint64_t{1} << 40, 1, 0, 0}, {0x01, 0x01}),  // count > bytes
      sealed({1'000'000, 1, 0, 999'999}, {0xff, 0xff, 0xff, 0xff}),
      // One presence bit and sign bytes for 2^19 reports: the sign bytes
      // cover the count, but a span of 0 holds one report.
      sealed({8 * kSignBytes, 1, 0, 0}, {0x01}, kSignBytes),
  };
  for (const std::string& forged : forgeries) {
    g_largest_allocation = 0;
    const Status status = DecodeReportBatch(forged).status();
    EXPECT_LT(g_largest_allocation.load(), size_t{4096}) << status.ToString();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(RoutedCode(forged), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// The FRS framed transport (net/frame.h) wrapped around these payloads:
// the stream layer must never crash, never emit a frame it wasn't sent,
// and reject hostile length headers from their own 4 bytes.

TEST_P(WireAdversaryTest, FramedTruncationAtEveryOffsetYieldsNoFrame) {
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (const std::string* payload :
       {&payloads.registrations_v2, &payloads.reports_v2,
        &payloads.reports_packed}) {
    std::string stream;
    ASSERT_TRUE(net::AppendFrame(*payload, &stream).ok());
    for (size_t length = 0; length < stream.size(); ++length) {
      net::FrameParser parser;
      std::vector<std::string> frames;
      // A strict prefix of one valid frame is always just an incomplete
      // frame: no error (the header, once whole, is valid) and no
      // complete payload ever comes out.
      ASSERT_TRUE(
          parser.Feed(std::string_view(stream).substr(0, length), &frames)
              .ok());
      EXPECT_TRUE(frames.empty()) << "truncation to " << length
                                  << " bytes produced a frame";
      EXPECT_EQ(parser.buffered_bytes(), length);
    }
  }
}

TEST_P(WireAdversaryTest, FramedSingleBitFlipsNeverCrashOrSmuggleABatch) {
  // Every single-bit flip across header + payload. A header flip changes
  // the claimed length: grown lengths leave the frame incomplete (or trip
  // the oversize check), shrunk lengths emit a truncated payload and
  // desync the remainder — possibly failing sticky mid-feed. A payload
  // flip emits the corrupted payload. In every case: no crash, and no
  // emitted frame may pass the v2 batch decoders (checksum) or equal the
  // pristine payload.
  const ValidPayloads payloads = MakePayloads(GetParam());
  for (const std::string* payload :
       {&payloads.registrations_v2, &payloads.reports_v2,
        &payloads.reports_packed}) {
    std::string stream;
    ASSERT_TRUE(net::AppendFrame(*payload, &stream).ok());
    for (size_t byte = 0; byte < stream.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = stream;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        net::FrameParser parser;
        std::vector<std::string> frames;
        const Status fed = parser.Feed(corrupted, &frames);
        if (!fed.ok()) {
          EXPECT_EQ(fed.code(), StatusCode::kDataLoss)
              << "byte " << byte << " bit " << bit;
        }
        for (const std::string& frame : frames) {
          EXPECT_NE(frame, *payload)
              << "flip at byte " << byte << " bit " << bit
              << " reproduced the pristine payload";
          (void)net::ClassifyPayload(frame);
          EXPECT_FALSE(DecodeRegistrationBatch(frame).ok())
              << "byte " << byte << " bit " << bit;
          EXPECT_FALSE(DecodeReportBatch(frame).ok())
              << "byte " << byte << " bit " << bit;
        }
      }
    }
  }
}

TEST_P(WireAdversaryTest, FramedReplyBitFlipsNeverCrashAndRoundTrip) {
  // Replies carry no checksum (the stream is assumed byte-reliable), so a
  // flipped reply may legitimately decode to a different reply — but then
  // it must be a well-formed one that round-trips, and the decoder must
  // never crash on those that don't.
  Rng rng(GetParam() * 131 + 9);
  net::Reply reply;
  reply.verdict = net::Verdict::kNack;
  reply.seq = 1 + rng.NextInt(1u << 20);
  reply.status = StatusCode::kDataLoss;
  reply.applied = static_cast<int64_t>(rng.NextInt(1000));
  std::string stream;
  ASSERT_TRUE(net::AppendFrame(net::EncodeReply(reply), &stream).ok());
  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = stream;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      net::FrameParser parser;
      std::vector<std::string> frames;
      (void)parser.Feed(corrupted, &frames);
      for (const std::string& frame : frames) {
        const auto decoded = net::DecodeReply(frame);
        if (decoded.ok()) {
          EXPECT_EQ(net::DecodeReply(net::EncodeReply(*decoded)).ValueOrDie(),
                    *decoded);
        }
      }
    }
  }
}

TEST(FramedTransportTest, HostileLengthHeadersRejectedFromFourBytesAlone) {
  // Zero and oversized lengths must fail sticky the moment the 4th header
  // byte arrives — before any payload buffer is reserved (a parser that
  // reserved first would allocate 4 GiB here). Later feeds stay rejected:
  // a desynced stream cannot be re-trusted.
  for (const uint32_t length :
       {uint32_t{0}, net::kFrsMaxPayload + 1, uint32_t{0x7fffffff},
        uint32_t{0xffffffff}}) {
    std::string header;
    header.push_back(static_cast<char>(length & 0xff));
    header.push_back(static_cast<char>((length >> 8) & 0xff));
    header.push_back(static_cast<char>((length >> 16) & 0xff));
    header.push_back(static_cast<char>((length >> 24) & 0xff));
    net::FrameParser parser;
    std::vector<std::string> frames;
    EXPECT_EQ(parser.Feed(header, &frames).code(), StatusCode::kDataLoss)
        << "length " << length;
    EXPECT_EQ(parser.Feed("later bytes", &frames).code(),
              StatusCode::kDataLoss);
    EXPECT_TRUE(frames.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireAdversaryTest,
                         ::testing::Range<uint64_t>(0, FuzzSeeds(6)));

}  // namespace
}  // namespace futurerand::core
