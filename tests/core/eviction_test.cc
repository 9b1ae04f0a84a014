// DedupWindowPolicy semantics: a bounded window must keep in-window
// behavior bit-identical to the unbounded bitmap (same accepts, same
// duplicate drops, same estimates), bound the dedup memory, drop-and-count
// anything behind the evicted horizon, and survive checkpoint/restore with
// its watermarks intact. A seeded differential test drives random op
// sequences against an exact model of that contract.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/math.h"
#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/server.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/wire.h"
#include "testsupport/env_scaling.h"

namespace futurerand::core {
namespace {

// Scale-1 servers turn report sums into plain interval sums.
Server UnitServer(int64_t d, DedupPolicy policy,
                  DedupWindowPolicy window = {}) {
  const auto orders =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(d))) + 1;
  return Server::WithScales(d, std::vector<double>(orders, 1.0), policy,
                            window)
      .ValueOrDie();
}

ProtocolConfig TestConfig(int64_t d = 512) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

TEST(DedupWindowPolicyTest, ValidationRejectsInconsistentCombinations) {
  // Bounded windows need bitmaps to evict, which only kIdempotent keeps.
  EXPECT_FALSE(Server::WithScales(8, {1.0, 2.0, 3.0, 4.0},
                                  DedupPolicy::kStrict,
                                  DedupWindowPolicy{64})
                   .ok());
  EXPECT_FALSE(Server::WithScales(8, {1.0, 2.0, 3.0, 4.0},
                                  DedupPolicy::kIdempotent,
                                  DedupWindowPolicy{-1})
                   .ok());
  EXPECT_TRUE(Server::WithScales(8, {1.0, 2.0, 3.0, 4.0},
                                 DedupPolicy::kIdempotent,
                                 DedupWindowPolicy{8})
                  .ok());
  // A window beyond the horizon is a non-canonical spelling of unbounded
  // (and would be rejected by the snapshot decoder): refuse it up front,
  // through every factory.
  EXPECT_FALSE(Server::WithScales(8, {1.0, 2.0, 3.0, 4.0},
                                  DedupPolicy::kIdempotent,
                                  DedupWindowPolicy{9})
                   .ok());
  EXPECT_FALSE(Server::ForProtocol(TestConfig(), DedupPolicy::kIdempotent,
                                   DedupWindowPolicy{513})
                   .ok());
  EXPECT_FALSE(ShardedAggregator::ForProtocol(TestConfig(), 2,
                                              DedupPolicy::kIdempotent,
                                              DedupWindowPolicy{513})
                   .ok());
  // Unbounded (the default) pairs with either policy.
  EXPECT_TRUE(Server::WithScales(8, {1.0, 2.0, 3.0, 4.0},
                                 DedupPolicy::kStrict, DedupWindowPolicy{})
                  .ok());
  // Same rules through the aggregator factories.
  EXPECT_FALSE(ShardedAggregator::WithScales(8, {1.0, 2.0, 3.0, 4.0}, 2,
                                             DedupPolicy::kStrict,
                                             DedupWindowPolicy{64})
                   .ok());
  EXPECT_TRUE(ShardedAggregator::WithScales(8, {1.0, 2.0, 3.0, 4.0}, 2,
                                            DedupPolicy::kIdempotent,
                                            DedupWindowPolicy{8})
                  .ok());
}

TEST(DedupWindowPolicyTest, RetainedBoundariesAreCapped) {
  // A client's first report commits its whole span, so kIdempotent keeps
  // at most kMaxRetainedBoundaries per client: unbounded up to that
  // horizon, a window up to that width beyond it. kStrict keeps no spans.
  constexpr int64_t kCap = DedupWindowPolicy::kMaxRetainedBoundaries;
  const auto make = [](int64_t d, DedupPolicy policy, int64_t window) {
    const auto orders =
        static_cast<size_t>(Log2Exact(static_cast<uint64_t>(d))) + 1;
    return Server::WithScales(d, std::vector<double>(orders, 1.0), policy,
                              DedupWindowPolicy{window})
        .status();
  };
  EXPECT_TRUE(make(kCap, DedupPolicy::kIdempotent, 0).ok());
  EXPECT_EQ(make(2 * kCap, DedupPolicy::kIdempotent, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(make(2 * kCap, DedupPolicy::kIdempotent, kCap).ok());
  EXPECT_EQ(make(2 * kCap, DedupPolicy::kIdempotent, kCap + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(make(2 * kCap, DedupPolicy::kIdempotent, 2 * kCap).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(make(2 * kCap, DedupPolicy::kStrict, 0).ok());
  // The same rule through the protocol and aggregator factories.
  EXPECT_FALSE(Server::ForProtocol(TestConfig(2 * kCap),
                                   DedupPolicy::kIdempotent)
                   .ok());
  EXPECT_FALSE(ShardedAggregator::ForProtocol(TestConfig(2 * kCap), 2,
                                              DedupPolicy::kIdempotent)
                   .ok());
  EXPECT_TRUE(ShardedAggregator::ForProtocol(TestConfig(2 * kCap), 2,
                                             DedupPolicy::kIdempotent,
                                             DedupWindowPolicy{64})
                  .ok());
}

TEST(DedupWindowPolicyTest, InWindowBehaviorIsBitIdenticalToUnbounded) {
  const int64_t d = 512;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 6; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, static_cast<int>(u % 3)).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, static_cast<int>(u % 3)).ok());
  }
  // Shuffled-within-window delivery with retransmissions: each tick t, a
  // client reports for a time drawn from [t - 100, t] (within the window),
  // sometimes twice.
  Rng rng(99);
  for (int64_t t = 1; t <= d; ++t) {
    for (int64_t u = 0; u < 6; ++u) {
      const int level = static_cast<int>(u % 3);
      const int64_t step = int64_t{1} << level;
      const int64_t low = std::max<int64_t>(step, t - 100);
      if (low > t) {
        continue;
      }
      // Snap a uniform draw from [low, t] down to the level's grid.
      const int64_t drawn =
          low + static_cast<int64_t>(rng.NextInt(t - low + 1));
      const int64_t report_time = drawn - (drawn % step);
      if (report_time < step) {
        continue;
      }
      const int8_t value = rng.NextSign();
      const int repeats = rng.NextBernoulli(0.3) ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        const Status a = unbounded.SubmitReport(u, report_time, value);
        const Status b = windowed.SubmitReport(u, report_time, value);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
      }
    }
  }
  EXPECT_EQ(windowed.out_of_window_dropped(), 0);
  EXPECT_EQ(windowed.duplicates_dropped(), unbounded.duplicates_dropped());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, OutOfWindowReportsAreDroppedAndCounted) {
  const int64_t d = 512;
  Server server =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{64});
  ASSERT_TRUE(server.RegisterClient(1, 0).ok());
  // Advance the frontier to the end of time; everything below boundary
  // ~448 is evicted (whole words: boundaries 0..447).
  ASSERT_TRUE(server.SubmitReport(1, d, 1).ok());
  const std::vector<double> before = server.EstimateAll().ValueOrDie();
  // An ancient straggler: dropped, counted, and the sums untouched.
  EXPECT_TRUE(server.SubmitReport(1, 1, 1).ok());
  EXPECT_EQ(server.out_of_window_dropped(), 1);
  EXPECT_EQ(server.duplicates_dropped(), 0);
  EXPECT_EQ(server.EstimateAll().ValueOrDie(), before);
  // A report inside the retained window is still ingested exactly once.
  ASSERT_TRUE(server.SubmitReport(1, d - 10, 1).ok());
  EXPECT_TRUE(server.SubmitReport(1, d - 10, 1).ok());  // retransmission
  EXPECT_EQ(server.duplicates_dropped(), 1);
  EXPECT_EQ(server.out_of_window_dropped(), 1);
}

TEST(DedupWindowPolicyTest, EvictionBoundsDedupMemory) {
  const int64_t d = 8192;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 16; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, 0).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, 0).ok());
  }
  for (int64_t t = 1; t <= d; ++t) {
    for (int64_t u = 0; u < 16; ++u) {
      ASSERT_TRUE(unbounded.SubmitReport(u, t, 1).ok());
      ASSERT_TRUE(windowed.SubmitReport(u, t, 1).ok());
    }
  }
  // 16 level-0 clients over d=8192: the unbounded bitmaps hold 128 words
  // each; the windowed ones at most 3 (128-boundary window + word slack).
  EXPECT_LT(windowed.ApproxMemoryBytes() + 16 * 100 * 8,
            unbounded.ApproxMemoryBytes());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
  EXPECT_EQ(windowed.out_of_window_dropped(), 0);
}

TEST(DedupWindowPolicyTest, FrontierJumpNeverMaterializesEvictedWords) {
  // A client's first report after a long outage lands far beyond its last
  // boundary. The bounded window must not allocate the skipped span even
  // transiently: only ~window/64 words may ever be materialized.
  const int64_t d = 8192;
  Server unbounded = UnitServer(d, DedupPolicy::kIdempotent);
  Server windowed =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{128});
  for (int64_t u = 0; u < 64; ++u) {
    ASSERT_TRUE(unbounded.RegisterClient(u, 0).ok());
    ASSERT_TRUE(windowed.RegisterClient(u, 0).ok());
    // One early report, then the jump straight to the horizon.
    ASSERT_TRUE(unbounded.SubmitReport(u, 1, 1).ok());
    ASSERT_TRUE(windowed.SubmitReport(u, 1, 1).ok());
    ASSERT_TRUE(unbounded.SubmitReport(u, d, 1).ok());
    ASSERT_TRUE(windowed.SubmitReport(u, d, 1).ok());
  }
  // Unbounded: 64 clients x 128 words; windowed: 64 x (<= 3 words). The
  // gap must show even through the capacity-based accounting — i.e. the
  // windowed bitmaps never held the full span.
  EXPECT_LT(windowed.ApproxMemoryBytes() + 64 * 100 * 8,
            unbounded.ApproxMemoryBytes());
  EXPECT_EQ(windowed.EstimateAll().ValueOrDie(),
            unbounded.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, WindowedStateSurvivesSnapshotRoundTrip) {
  const int64_t d = 512;
  Server server =
      UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{64});
  Rng rng(5);
  for (int64_t u = 0; u < 10; ++u) {
    const int level = static_cast<int>(rng.NextInt(3));
    ASSERT_TRUE(server.RegisterClient(u, level).ok());
    const int64_t step = int64_t{1} << level;
    for (int64_t t = step; t <= d; t += step) {
      ASSERT_TRUE(server.SubmitReport(u, t, rng.NextSign()).ok());
    }
  }
  // Eviction has happened (level-0 clients passed boundary 448+), and an
  // old straggler has been counted.
  EXPECT_TRUE(server.SubmitReport(0, 1, 1).ok());
  EXPECT_EQ(server.out_of_window_dropped(), 1);

  const std::string blob = EncodeServerState(server);
  Server restored = DecodeServerState(blob).ValueOrDie();
  EXPECT_EQ(restored.dedup_window(), server.dedup_window());
  EXPECT_EQ(restored.out_of_window_dropped(), 1);
  EXPECT_EQ(EncodeServerState(restored), blob);
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
  // The watermark survived: the original and the restored server treat an
  // evicted boundary, an in-window duplicate, and a fresh in-window report
  // identically.
  for (const int64_t t : {int64_t{2}, d - 4, d}) {
    const Status a = server.SubmitReport(0, t, -1);
    const Status b = restored.SubmitReport(0, t, -1);
    ASSERT_EQ(a.ok(), b.ok()) << "t=" << t;
  }
  EXPECT_EQ(restored.out_of_window_dropped(),
            server.out_of_window_dropped());
  EXPECT_EQ(restored.duplicates_dropped(), server.duplicates_dropped());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            server.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, SnapshotRejectsWatermarkWithoutBoundedWindow) {
  // A blob whose bitmap carries an eviction watermark must not decode for
  // an unbounded policy: hand-build one by snapshotting a windowed server
  // and checking the mismatch is caught at the aggregator Restore level.
  const int64_t d = 512;
  ShardedAggregator windowed =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  std::vector<RegistrationMessage> registrations;
  std::vector<ReportMessage> reports;
  for (int64_t u = 0; u < 8; ++u) {
    registrations.push_back({u, 0});
    reports.push_back({u, d, 1});
  }
  ASSERT_TRUE(windowed.IngestRegistrations(registrations).ok());
  ASSERT_TRUE(windowed.IngestReports(reports).ok());
  const std::string snapshot = windowed.Checkpoint().ValueOrDie();

  ShardedAggregator unbounded =
      ShardedAggregator::ForProtocol(TestConfig(), 2,
                                     DedupPolicy::kIdempotent)
          .ValueOrDie();
  EXPECT_FALSE(unbounded.Restore(snapshot).ok());
  // The matching window accepts, even across a shard-count change.
  ShardedAggregator twin =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  EXPECT_TRUE(twin.Restore(snapshot).ok());
  EXPECT_EQ(twin.EstimateAll().ValueOrDie(),
            windowed.EstimateAll().ValueOrDie());
}

TEST(DedupWindowPolicyTest, AggregatorReportsOutOfWindowInOutcome) {
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(TestConfig(), 3,
                                     DedupPolicy::kIdempotent,
                                     DedupWindowPolicy{64})
          .ValueOrDie();
  std::vector<RegistrationMessage> registrations;
  for (int64_t u = 0; u < 9; ++u) {
    registrations.push_back({u, 0});
  }
  ASSERT_TRUE(aggregator.IngestRegistrations(registrations).ok());
  std::vector<ReportMessage> frontier_reports;
  for (int64_t u = 0; u < 9; ++u) {
    frontier_reports.push_back({u, 512, 1});
  }
  IngestOutcome outcome;
  ASSERT_TRUE(
      aggregator.IngestReports(frontier_reports, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 9);
  EXPECT_EQ(outcome.out_of_window, 0);

  // A batch of ancient stragglers mixed with one in-window duplicate.
  std::vector<ReportMessage> stale;
  for (int64_t u = 0; u < 9; ++u) {
    stale.push_back({u, 1, 1});
  }
  stale.push_back({0, 512, 1});
  ASSERT_TRUE(aggregator.IngestReports(stale, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 0);
  EXPECT_EQ(outcome.out_of_window, 9);
  EXPECT_EQ(outcome.deduped, 1);
  EXPECT_EQ(aggregator.out_of_window_dropped(), 9);
  EXPECT_EQ(aggregator.dedup_window(), DedupWindowPolicy{64});
}

TEST(DedupWindowPolicyTest, MergeRequiresMatchingWindows) {
  Server a =
      UnitServer(512, DedupPolicy::kIdempotent, DedupWindowPolicy{32});
  Server b = UnitServer(512, DedupPolicy::kIdempotent);
  EXPECT_FALSE(a.Merge(b).ok());
  Server c =
      UnitServer(512, DedupPolicy::kIdempotent, DedupWindowPolicy{32});
  ASSERT_TRUE(c.RegisterClient(7, 0).ok());
  ASSERT_TRUE(c.SubmitReport(7, 512, 1).ok());
  ASSERT_TRUE(c.SubmitReport(7, 1, 1).ok());  // evicted -> counted
  EXPECT_EQ(c.out_of_window_dropped(), 1);
  ASSERT_TRUE(a.Merge(c).ok());
  EXPECT_EQ(a.out_of_window_dropped(), 1);
  // The merged-in watermark still drops the straggler.
  EXPECT_TRUE(a.SubmitReport(7, 2, 1).ok());
  EXPECT_EQ(a.out_of_window_dropped(), 2);
}

// ---------------------------------------------------------------------------
// Seeded differential test. The model holds, per client, the set of
// boundaries it has seen and its frontier (the highest one); under a
// window W every boundary in a word wholly below the window
// [frontier - W + 1 .. frontier] is behind the horizon. A report above the
// frontier always lands; below it, a boundary behind the horizon is dropped
// as out-of-window, a seen one as a duplicate, and any other lands.

class DedupModel {
  struct Client {
    int level = 0;
    int64_t frontier = -1;
    std::set<int64_t> seen;
  };

 public:
  enum class Verdict { kApply, kDuplicate, kOutOfWindow };

  explicit DedupModel(int64_t window) : window_(window) {}

  bool Has(int64_t id) const { return clients_.count(id) != 0; }
  int LevelOf(int64_t id) const { return clients_.at(id).level; }
  int64_t FrontierOf(int64_t id) const { return clients_.at(id).frontier; }
  const std::set<int64_t>& SeenOf(int64_t id) const {
    return clients_.at(id).seen;
  }
  int64_t num_clients() const {
    return static_cast<int64_t>(clients_.size());
  }
  int64_t duplicates() const { return duplicates_; }
  int64_t out_of_window() const { return out_of_window_; }

  void Register(int64_t id, int level) { clients_[id].level = level; }
  void ReRegister() { ++duplicates_; }

  Verdict Report(int64_t id, int64_t time, int8_t value) {
    Client& client = clients_.at(id);
    const int64_t boundary = (time >> client.level) - 1;
    if (boundary > client.frontier) {
      client.frontier = boundary;
    } else if (window_ > 0 && (boundary >> 6) < HorizonWord(client)) {
      ++out_of_window_;
      return Verdict::kOutOfWindow;
    } else if (client.seen.count(boundary) != 0) {
      ++duplicates_;
      return Verdict::kDuplicate;
    }
    client.seen.insert(boundary);
    sums_[{client.level, time >> client.level}] += value;
    return Verdict::kApply;
  }

  // With unit scales, a_hat[t] sums the raw interval sums over the dyadic
  // decomposition of [1..t]: one interval per set bit of t.
  double EstimateAt(int64_t t) const {
    double estimate = 0.0;
    int64_t covered = 0;
    for (int h = 62; h >= 0; --h) {
      if ((t >> h & 1) == 0) {
        continue;
      }
      covered += int64_t{1} << h;
      const auto it = sums_.find({h, covered >> h});
      estimate += it == sums_.end() ? 0.0 : static_cast<double>(it->second);
    }
    return estimate;
  }

 private:
  int64_t HorizonWord(const Client& client) const {
    const int64_t keep_from = client.frontier - window_ + 1;
    return keep_from <= 0 ? 0 : keep_from / 64;
  }

  int64_t window_;
  std::map<int64_t, Client> clients_;
  std::map<std::pair<int, int64_t>, int64_t> sums_;
  int64_t duplicates_ = 0;
  int64_t out_of_window_ = 0;
};

// The server's verdict on one record, read off its drop counters.
DedupModel::Verdict SubmitAndJudge(Server* server, int64_t id, int64_t time,
                                   int8_t value) {
  const int64_t duplicates = server->duplicates_dropped();
  const int64_t out_of_window = server->out_of_window_dropped();
  EXPECT_TRUE(server->SubmitReport(id, time, value).ok());
  if (server->out_of_window_dropped() != out_of_window) {
    return DedupModel::Verdict::kOutOfWindow;
  }
  return server->duplicates_dropped() != duplicates
             ? DedupModel::Verdict::kDuplicate
             : DedupModel::Verdict::kApply;
}

// A report time for `id`: the next boundaries, a frontier jump, a
// straggler around the window's edge, a retransmission of a seen boundary,
// or anywhere at all.
int64_t DrawReportTime(const DedupModel& model, int64_t d, int64_t window,
                       int64_t id, Rng* rng) {
  const int level = model.LevelOf(id);
  const int64_t boundaries = d >> level;
  const int64_t frontier = model.FrontierOf(id);
  int64_t boundary = 0;
  switch (rng->NextInt(5)) {
    case 0:
      boundary = frontier + 1 + static_cast<int64_t>(rng->NextInt(3));
      break;
    case 1:
      boundary = frontier + 1 +
                 static_cast<int64_t>(rng->NextInt(
                     static_cast<uint64_t>(boundaries)));
      break;
    case 2:
      boundary = frontier - static_cast<int64_t>(rng->NextInt(
                                static_cast<uint64_t>(window + 130)));
      break;
    case 3: {
      const std::set<int64_t>& seen = model.SeenOf(id);
      if (!seen.empty()) {
        auto it = seen.begin();
        std::advance(it, static_cast<int64_t>(rng->NextInt(seen.size())));
        boundary = *it;
        break;
      }
      [[fallthrough]];
    }
    default:
      boundary = static_cast<int64_t>(
          rng->NextInt(static_cast<uint64_t>(boundaries)));
      break;
  }
  boundary = std::clamp<int64_t>(boundary, 0, boundaries - 1);
  return (boundary + 1) << level;
}

void ExpectServerMatchesModel(const Server& server, const DedupModel& model,
                              int64_t d) {
  EXPECT_EQ(server.num_clients(), model.num_clients());
  EXPECT_EQ(server.duplicates_dropped(), model.duplicates());
  EXPECT_EQ(server.out_of_window_dropped(), model.out_of_window());
  const std::vector<double> estimates = server.EstimateAll().ValueOrDie();
  for (int64_t t = 1; t <= d; ++t) {
    ASSERT_EQ(estimates[static_cast<size_t>(t - 1)], model.EstimateAt(t))
        << "t=" << t;
  }
}

TEST(DedupDifferentialTest, RandomOpsMatchAnExactModel) {
  // A round is a fresh server and a 100-op sequence.
  const int64_t rounds = testsupport::FuzzRounds(100);
  constexpr int64_t kWindows[] = {0, 1, 63, 64, 65, 130, 256};
  int64_t duplicates = 0;
  int64_t out_of_window = 0;
  for (int64_t round = 0; round < rounds; ++round) {
    Rng rng(static_cast<uint64_t>(9000 + round));
    constexpr int64_t kHorizons[] = {64, 256, 256, 1024};
    const int64_t d = kHorizons[rng.NextInt(std::size(kHorizons))];
    const int64_t window =
        std::min(kWindows[rng.NextInt(std::size(kWindows))], d);
    SCOPED_TRACE(testing::Message() << "round " << round << " d=" << d
                                    << " window " << window);
    const int orders = Log2Exact(static_cast<uint64_t>(d)) + 1;
    Server server =
        UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{window});
    DedupModel model(window);
    std::vector<int64_t> ids;
    int64_t next_id = 1;
    const auto fresh_id = [&] {
      // Ascending positive ids keep the index a progression; a random
      // negative one breaks it, and can never meet an ascending one.
      if (!rng.NextBernoulli(0.2)) {
        return next_id++;
      }
      int64_t id = 0;
      do {
        id = -1 - static_cast<int64_t>(rng.NextInt(1'000'000));
      } while (model.Has(id));
      return id;
    };
    const auto random_client = [&] {
      return ids[rng.NextInt(ids.size())];
    };
    for (int op = 0; op < 100; ++op) {
      const uint64_t kind = ids.empty() ? 0 : rng.NextInt(100);
      if (kind < 10) {
        const int64_t id = fresh_id();
        const int level = static_cast<int>(rng.NextInt(orders));
        ASSERT_TRUE(server.RegisterClient(id, level).ok());
        model.Register(id, level);
        ids.push_back(id);
      } else if (kind < 14) {
        // A retransmitted registration is absorbed; a changed level is not.
        const int64_t id = random_client();
        const int level = model.LevelOf(id);
        ASSERT_TRUE(server.RegisterClient(id, level).ok());
        model.ReRegister();
        EXPECT_FALSE(server.RegisterClient(id, (level + 1) % orders).ok());
      } else if (kind < 80) {
        const int64_t id = random_client();
        const int64_t time = DrawReportTime(model, d, window, id, &rng);
        const int8_t value = rng.NextSign();
        ASSERT_EQ(SubmitAndJudge(&server, id, time, value),
                  model.Report(id, time, value))
            << "id " << id << " time " << time;
      } else if (kind < 90) {
        // A batch, retransmissions and reordering included. Its verdicts
        // show in the drop counters, checked after every op.
        std::vector<ReportMessage> batch;
        const int64_t size = 1 + static_cast<int64_t>(rng.NextInt(12));
        for (int64_t r = 0; r < size; ++r) {
          const int64_t id = random_client();
          batch.push_back({id, DrawReportTime(model, d, window, id, &rng),
                           rng.NextSign()});
          if (rng.NextBernoulli(0.3)) {
            batch.push_back(batch.back());
          }
        }
        int64_t accepted = 0;
        ASSERT_TRUE(server.SubmitReports(batch, &accepted).ok());
        EXPECT_EQ(accepted, static_cast<int64_t>(batch.size()));
        for (const ReportMessage& record : batch) {
          model.Report(record.client_id, record.time, record.value);
        }
      } else if (kind < 95) {
        // Full checkpoint/restore, sometimes through a reshard into 1-3
        // shards merged back into one server.
        const std::string blob = EncodeServerState(server);
        Result<Server> decoded = DecodeServerState(blob);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        Server restored = std::move(decoded).ValueOrDie();
        if (rng.NextBernoulli(0.5)) {
          std::vector<Server> sources;
          sources.push_back(std::move(restored));
          std::vector<Server> shards =
              ReshardServerStates(std::move(sources),
                                  1 + static_cast<int>(rng.NextInt(3)))
                  .ValueOrDie();
          restored = UnitServer(d, DedupPolicy::kIdempotent,
                                DedupWindowPolicy{window});
          for (const Server& shard : shards) {
            ASSERT_TRUE(restored.Merge(shard).ok());
          }
        }
        // Equal bytes: every verdict and estimate from here on is the
        // original server's, which the model keeps checking.
        ASSERT_EQ(EncodeServerState(restored), blob);
        server = std::move(restored);
      } else {
        // Merge in a side server holding new clients with their own
        // history.
        Server side =
            UnitServer(d, DedupPolicy::kIdempotent, DedupWindowPolicy{window});
        std::vector<int64_t> side_ids;
        for (int c = 0; c < 3; ++c) {
          const int64_t id = fresh_id();
          const int level = static_cast<int>(rng.NextInt(orders));
          ASSERT_TRUE(side.RegisterClient(id, level).ok());
          model.Register(id, level);
          side_ids.push_back(id);
        }
        for (int r = 0; r < 12; ++r) {
          const int64_t id = side_ids[rng.NextInt(side_ids.size())];
          const int64_t time = DrawReportTime(model, d, window, id, &rng);
          const int8_t value = rng.NextSign();
          ASSERT_EQ(SubmitAndJudge(&side, id, time, value),
                    model.Report(id, time, value));
        }
        ASSERT_TRUE(server.Merge(side).ok());
        ids.insert(ids.end(), side_ids.begin(), side_ids.end());
      }
      ASSERT_EQ(server.duplicates_dropped(), model.duplicates());
      ASSERT_EQ(server.out_of_window_dropped(), model.out_of_window());
      const int64_t t = 1 + static_cast<int64_t>(rng.NextInt(
                                static_cast<uint64_t>(d)));
      ASSERT_EQ(server.EstimateAt(t).ValueOrDie(), model.EstimateAt(t))
          << "t=" << t;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectServerMatchesModel(server, model, d));
    duplicates += model.duplicates();
    out_of_window += model.out_of_window();
  }
  // The op mix reached every verdict.
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(out_of_window, 0);
}

}  // namespace
}  // namespace futurerand::core
