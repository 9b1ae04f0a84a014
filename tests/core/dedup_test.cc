// DedupPolicy semantics: under kIdempotent, at-least-once delivery
// (duplicates, retries, arbitrary reordering) must be bit-identical to
// exactly-once in-order delivery, while kStrict keeps the paper-faithful
// reject-on-duplicate behavior. Also pins the IngestOutcome applied/deduped
// accounting that the channel-model retry path resumes from.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/server.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {
namespace {

// Scale-1 servers turn report sums into plain interval sums.
Server UnitServer(int64_t d, DedupPolicy policy) {
  const auto orders =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(d))) + 1;
  return Server::WithScales(d, std::vector<double>(orders, 1.0), policy)
      .ValueOrDie();
}

TEST(DedupPolicyTest, StrictRejectsDuplicateAndOutOfOrderReports) {
  Server server = UnitServer(8, DedupPolicy::kStrict);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 1).ok());  // duplicate
  EXPECT_FALSE(server.SubmitReport(1, 1, 1).ok());  // out of order
  EXPECT_EQ(server.duplicates_dropped(), 0);
}

TEST(DedupPolicyTest, IdempotentDropsDuplicatesAndAcceptsAnyOrder) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  ASSERT_TRUE(server.SubmitReport(1, 5, 1).ok());
  ASSERT_TRUE(server.SubmitReport(1, 2, -1).ok());  // earlier time: fine
  EXPECT_TRUE(server.SubmitReport(1, 5, 1).ok());   // retransmission
  EXPECT_TRUE(server.SubmitReport(1, 2, -1).ok());
  EXPECT_EQ(server.duplicates_dropped(), 2);
  // The duplicates must not have double-counted: a[5] = +1 - 1 + ... the
  // estimate at t=5 sums I(0,5) etc; compare against an exactly-once twin.
  Server once = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(once.RegisterClient(1, 0).ok());
  ASSERT_TRUE(once.SubmitReport(1, 2, -1).ok());
  ASSERT_TRUE(once.SubmitReport(1, 5, 1).ok());
  EXPECT_EQ(server.EstimateAll().ValueOrDie(),
            once.EstimateAll().ValueOrDie());
}

TEST(DedupPolicyTest, IdempotentStillValidatesTimeAndValue) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 3, 1).ok());  // not a multiple of 2
  EXPECT_FALSE(server.SubmitReport(1, 0, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 9, 1).ok());
  EXPECT_FALSE(server.SubmitReport(1, 2, 0).ok());
  EXPECT_FALSE(server.SubmitReport(99, 2, 1).ok());  // unregistered
  EXPECT_EQ(server.duplicates_dropped(), 0);
}

TEST(DedupPolicyTest, IdempotentReRegistrationIsACountedNoOp) {
  Server server = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(server.RegisterClient(1, 2).ok());
  EXPECT_TRUE(server.RegisterClient(1, 2).ok());  // same level: retransmit
  EXPECT_EQ(server.RegisterClient(1, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(server.num_clients(), 1);
  EXPECT_EQ(server.ClientCountAtLevel(2), 1);
  EXPECT_EQ(server.duplicates_dropped(), 1);
}

TEST(DedupPolicyTest, EveryBoundaryOfEveryLevelDedupsExactly) {
  const int64_t d = 16;
  Server server = UnitServer(d, DedupPolicy::kIdempotent);
  Server once = UnitServer(d, DedupPolicy::kIdempotent);
  int64_t expected_drops = 0;
  for (int level = 0; level <= 4; ++level) {
    const int64_t id = level;
    ASSERT_TRUE(server.RegisterClient(id, level).ok());
    ASSERT_TRUE(once.RegisterClient(id, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= d; t += step) {
      const int8_t value = (t / step) % 2 == 0 ? int8_t{1} : int8_t{-1};
      ASSERT_TRUE(once.SubmitReport(id, t, value).ok());
      // Deliver three times; exactly two are duplicates.
      for (int copy = 0; copy < 3; ++copy) {
        ASSERT_TRUE(server.SubmitReport(id, t, value).ok());
      }
      expected_drops += 2;
    }
  }
  EXPECT_EQ(server.duplicates_dropped(), expected_drops);
  EXPECT_EQ(server.EstimateAll().ValueOrDie(),
            once.EstimateAll().ValueOrDie());
}

TEST(DedupPolicyTest, MergeRequiresMatchingPolicies) {
  Server strict = UnitServer(8, DedupPolicy::kStrict);
  Server idempotent = UnitServer(8, DedupPolicy::kIdempotent);
  EXPECT_FALSE(strict.Merge(idempotent).ok());
  EXPECT_FALSE(idempotent.MergeAggregatesOnly(strict).ok());
}

TEST(DedupPolicyTest, MergeCarriesBoundaryBitmapsAcross) {
  Server a = UnitServer(8, DedupPolicy::kIdempotent);
  Server b = UnitServer(8, DedupPolicy::kIdempotent);
  ASSERT_TRUE(a.RegisterClient(1, 0).ok());
  ASSERT_TRUE(b.RegisterClient(2, 0).ok());
  ASSERT_TRUE(a.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(b.SubmitReport(2, 4, -1).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  // The merged server must remember what either side already saw.
  ASSERT_TRUE(a.SubmitReport(1, 3, 1).ok());
  ASSERT_TRUE(a.SubmitReport(2, 4, -1).ok());
  EXPECT_EQ(a.duplicates_dropped(), 2);
  EXPECT_EQ(a.EstimateAt(4).ValueOrDie(), 0.0);  // +1 - 1, no double count
}

// ---------------------------------------------------------------------------
// The record loop against the scalar path: SubmitReports, over a whole
// batch and over a sub-sequence picked by indices, must do exactly what
// SubmitReport does one record at a time, stopping at the same record.

// A record fault planted in the middle of a batch.
enum class Fault {
  kNone,
  kBadValue,
  kUnregistered,
  kTimeOutOfRange,
  kMisaligned,
  kStale,  // a record the client already sent, from an earlier batch
};

constexpr Fault kFaults[] = {Fault::kNone,           Fault::kBadValue,
                             Fault::kUnregistered,   Fault::kNone,
                             Fault::kTimeOutOfRange, Fault::kMisaligned,
                             Fault::kNone,           Fault::kStale};

struct LoopCase {
  DedupPolicy policy;
  int64_t window;    // 0 = unbounded
  bool progression;  // registered ids form an arithmetic progression
};

struct Route {
  Status status;
  int64_t accepted = 0;
};

// SubmitReport over `batch` in order, stopping at the first error.
Route SubmitOneByOne(Server* server, const std::vector<ReportMessage>& batch) {
  Route route;
  for (const ReportMessage& record : batch) {
    route.status =
        server->SubmitReport(record.client_id, record.time, record.value);
    if (!route.status.ok()) {
      break;
    }
    ++route.accepted;
  }
  return route;
}

// The batch's records scattered among decoys that no route accepts, and
// the indices that pick them out again in batch order.
Route SubmitIndexed(Server* server, const std::vector<ReportMessage>& batch,
                    Rng* rng) {
  std::vector<ReportMessage> carrier(2 * batch.size() + 1, {-1, 0, 0});
  std::vector<size_t> slots(carrier.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = i;
  }
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[static_cast<size_t>(rng->NextInt(i))]);
  }
  std::vector<size_t> indices(slots.begin(),
                              slots.begin() +
                                  static_cast<std::ptrdiff_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    carrier[indices[i]] = batch[i];
  }
  Route route;
  route.status = server->SubmitReports(carrier, indices, &route.accepted);
  return route;
}

TEST(RecordLoopTest, BatchedRoutesMatchSubmitReportOneByOne) {
  // Level-0 spans of four words, so a window of 16 boundaries evicts.
  constexpr int64_t kPeriods = 256;
  constexpr int64_t kClients = 48;
  const LoopCase cases[] = {
      {DedupPolicy::kStrict, 0, true},
      {DedupPolicy::kStrict, 0, false},
      {DedupPolicy::kIdempotent, 0, true},
      {DedupPolicy::kIdempotent, 0, false},
      {DedupPolicy::kIdempotent, 16, true},
      {DedupPolicy::kIdempotent, 16, false},
  };
  for (const LoopCase& loop : cases) {
    SCOPED_TRACE(testing::Message()
                 << DedupPolicyToString(loop.policy) << " window "
                 << loop.window << " progression " << loop.progression);
    const bool idempotent = loop.policy == DedupPolicy::kIdempotent;
    Rng rng(idempotent ? 17 + static_cast<uint64_t>(loop.window) : 5);
    const auto server = [&] {
      return Server::WithScales(kPeriods, std::vector<double>(9, 1.0),
                                loop.policy,
                                DedupWindowPolicy{loop.window})
          .ValueOrDie();
    };
    Server batched = server();
    Server indexed = server();
    Server single = server();
    std::vector<RegistrationMessage> registrations;
    for (int64_t i = 0; i < kClients; ++i) {
      const int64_t id =
          loop.progression ? 5 + 3 * i
                           : static_cast<int64_t>(rng.NextInt(1 << 20)) *
                                     kClients +
                                 i;
      registrations.push_back({id, static_cast<int>(i % 4)});
    }
    for (Server* target : {&batched, &indexed, &single}) {
      ASSERT_TRUE(target->RegisterClients(registrations).ok());
    }

    std::vector<ReportMessage> sent;  // every record of every batch so far
    int64_t rejected = 0;
    int64_t planted = 0;
    int64_t stale = 0;
    for (int64_t t = 1; t <= kPeriods; ++t) {
      std::vector<ReportMessage> batch;
      for (const RegistrationMessage& client : registrations) {
        if (t % (int64_t{1} << client.level) == 0) {
          batch.push_back({client.client_id, t, rng.NextSign()});
        }
      }
      if (idempotent) {
        // At-least-once delivery: a quarter of the records twice and a few
        // stragglers from earlier batches, then the whole batch shuffled.
        const size_t fresh = batch.size();
        for (size_t i = 0; i < fresh / 4; ++i) {
          batch.push_back(batch[static_cast<size_t>(rng.NextInt(fresh))]);
        }
        for (size_t i = 0; i < 3 && !sent.empty(); ++i) {
          batch.push_back(sent[static_cast<size_t>(rng.NextInt(sent.size()))]);
        }
      }
      for (size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[static_cast<size_t>(rng.NextInt(i))]);
      }
      sent.insert(sent.end(), batch.begin(), batch.end());
      ReportMessage& middle = batch[batch.size() / 2];
      const Fault fault = kFaults[t % std::size(kFaults)];
      planted += fault == Fault::kNone ? 0 : 1;
      stale += fault == Fault::kStale ? 1 : 0;
      switch (fault) {
        case Fault::kNone:
          break;
        case Fault::kBadValue:
          middle.value = 0;
          break;
        case Fault::kUnregistered:
          middle.client_id = -7;
          break;
        case Fault::kTimeOutOfRange:
          middle.time = t % 2 == 0 ? kPeriods + t : 0;
          break;
        case Fault::kMisaligned:
          // Level 1 or more (registrations cycle through levels 0-3).
          middle.client_id = registrations[1 + static_cast<size_t>(t % 3)]
                                 .client_id;
          middle.time = 1;
          break;
        case Fault::kStale:
          middle = sent[static_cast<size_t>(rng.NextInt(sent.size() / 2))];
          break;
      }

      SCOPED_TRACE(testing::Message() << "t " << t);
      Route whole;
      whole.status = batched.SubmitReports(batch, &whole.accepted);
      const Route picked = SubmitIndexed(&indexed, batch, &rng);
      const Route scalar = SubmitOneByOne(&single, batch);
      for (const Route& route : {whole, picked}) {
        ASSERT_EQ(route.status.code(), scalar.status.code());
        ASSERT_EQ(route.status.message(), scalar.status.message());
        ASSERT_EQ(route.accepted, scalar.accepted);
      }
      rejected += scalar.status.ok() ? 0 : 1;
      const std::string state = EncodeServerState(single);
      for (const Server* route : {&batched, &indexed}) {
        ASSERT_EQ(route->duplicates_dropped(), single.duplicates_dropped());
        ASSERT_EQ(route->out_of_window_dropped(),
                  single.out_of_window_dropped());
        ASSERT_EQ(EncodeServerState(*route), state);
      }
    }
    // Every planted fault rejects under kStrict; under kIdempotent a stale
    // record is absorbed, and the window drops old stragglers.
    EXPECT_EQ(rejected, idempotent ? planted - stale : planted);
    if (idempotent) {
      EXPECT_GT(single.duplicates_dropped(), 100);
      EXPECT_EQ(single.out_of_window_dropped() > 0, loop.window > 0);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedAggregator: at-least-once delivery equals exactly-once delivery.

ProtocolConfig TestConfig() {
  ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

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
          (t >= (u % 16) + 1 && t < (u % 16) + 9) ? int8_t{1} : int8_t{0};
    }
    traffic.batches.push_back(fleet.AdvanceTick(states).ValueOrDie());
  }
  return traffic;
}

TEST(AggregatorDedupTest, AtLeastOnceDeliveryIsBitIdenticalToExactlyOnce) {
  const Traffic traffic = GenerateTraffic(1234, 50);
  ShardedAggregator once =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(once.IngestRegistrations(traffic.registrations).ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(once.IngestReports(batch).ok());
  }

  ShardedAggregator lossy =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  // Registrations delivered twice.
  ASSERT_TRUE(lossy.IngestRegistrations(traffic.registrations).ok());
  ASSERT_TRUE(lossy.IngestRegistrations(traffic.registrations).ok());
  // Every batch delivered twice, shuffled differently each time.
  Rng rng(99);
  for (const ReportBatch& batch : traffic.batches) {
    for (int copy = 0; copy < 2; ++copy) {
      ReportBatch shuffled = batch;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<size_t>(rng.NextInt(i))]);
      }
      ASSERT_TRUE(lossy.IngestReports(shuffled).ok());
    }
  }

  EXPECT_EQ(lossy.EstimateAll().ValueOrDie(), once.EstimateAll().ValueOrDie());
  EXPECT_EQ(lossy.EstimateAllConsistent().ValueOrDie(),
            once.EstimateAllConsistent().ValueOrDie());
  EXPECT_EQ(lossy.EstimateWindowDelta(5, 20).ValueOrDie(),
            once.EstimateWindowDelta(5, 20).ValueOrDie());
  EXPECT_EQ(lossy.num_clients(), once.num_clients());
  EXPECT_GT(lossy.duplicates_dropped(), 0);
}

TEST(AggregatorDedupTest, IngestOutcomeSeparatesAppliedFromDeduped) {
  const Traffic traffic = GenerateTraffic(77, 20);
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestRegistrations(traffic.registrations, nullptr, &outcome)
          .ok());
  EXPECT_EQ(outcome.applied,
            static_cast<int64_t>(traffic.registrations.size()));
  EXPECT_EQ(outcome.deduped, 0);

  const ReportBatch& batch = traffic.batches[0];
  ASSERT_FALSE(batch.empty());
  ASSERT_TRUE(aggregator.IngestReports(batch, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(outcome.deduped, 0);

  // The whole batch again: everything is a duplicate.
  ASSERT_TRUE(aggregator.IngestReports(batch, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 0);
  EXPECT_EQ(outcome.deduped, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(aggregator.duplicates_dropped(),
            static_cast<int64_t>(batch.size()));
}

TEST(AggregatorDedupTest, OutcomeReportsHowFarAFailedBatchGot) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 1, DedupPolicy::kStrict)
          .ValueOrDie();
  const std::vector<RegistrationMessage> registrations = {{0, 0}, {1, 0}};
  ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  // Client 7 is unregistered: with one shard, ingestion stops there and the
  // outcome pins exactly how many records landed.
  const std::vector<ReportMessage> batch = {
      {0, 1, 1}, {1, 1, 1}, {7, 1, 1}, {0, 2, 1}};
  IngestOutcome outcome;
  const Status status = aggregator.IngestReports(batch, nullptr, &outcome);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(outcome.applied, 2);
  EXPECT_EQ(outcome.deduped, 0);

  // Under kIdempotent the precise resume is "resend everything": the two
  // applied records dedup away and the tail lands.
  ShardedAggregator retryable =
      ShardedAggregator::ForProtocol(TestConfig(), 1,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(retryable.IngestRegistrations(registrations).ok());
  const Status first = retryable.IngestReports(batch, nullptr, &outcome);
  EXPECT_EQ(first.code(), StatusCode::kNotFound);
  EXPECT_EQ(outcome.applied, 2);
  const std::vector<ReportMessage> fixed = {
      {0, 1, 1}, {1, 1, 1}, {0, 2, 1}};  // drop the bogus record, resend
  ASSERT_TRUE(retryable.IngestReports(fixed, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 1);
  EXPECT_EQ(outcome.deduped, 2);
}

TEST(AggregatorDedupTest, EncodedPathDedupsIdentically) {
  const Traffic traffic = GenerateTraffic(55, 30);
  ShardedAggregator direct =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ShardedAggregator encoded =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  ASSERT_TRUE(direct.IngestRegistrations(traffic.registrations).ok());
  ASSERT_TRUE(
      encoded.IngestEncoded(EncodeRegistrationBatch(traffic.registrations))
          .ok());
  for (const ReportBatch& batch : traffic.batches) {
    ASSERT_TRUE(direct.IngestReports(batch).ok());
    const std::string bytes = EncodeReportBatch(batch).ValueOrDie();
    ASSERT_TRUE(encoded.IngestEncoded(bytes).ok());
    ASSERT_TRUE(encoded.IngestEncoded(bytes).ok());  // wire-level retry
  }
  EXPECT_EQ(encoded.EstimateAll().ValueOrDie(),
            direct.EstimateAll().ValueOrDie());
}

}  // namespace
}  // namespace futurerand::core
