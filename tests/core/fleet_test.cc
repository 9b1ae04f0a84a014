// Batch/serial equivalence: a ClientFleet must be bit-identical to a loop
// of per-client Client::ObserveState calls with the same per-client seeds,
// for every randomizer kind, pooled and single-threaded. This is the
// contract that lets the simulation runner and the throughput bench use the
// batch path without changing any experiment's numbers.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/client.h"
#include "futurerand/core/fleet.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::core {
namespace {

ProtocolConfig TestConfig(rand::RandomizerKind kind, int64_t d = 32,
                          int64_t k = 3) {
  ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = 1.0;
  config.randomizer = kind;
  return config;
}

// The state of user u at time t: a deterministic pattern with few flips
// (each user turns on at period (u % d) + 1, off again d/2 later).
int8_t PatternState(int64_t u, int64_t t, int64_t d) {
  const int64_t on = (u % d) + 1;
  const int64_t off = on + d / 2;
  return (t >= on && t < off) ? int8_t{1} : int8_t{0};
}

// Per-client reference seeds, matching ClientFleet's derivation.
uint64_t ClientSeed(uint64_t base_seed, int64_t client_id) {
  return Rng(base_seed).Fork(static_cast<uint64_t>(client_id)).NextUint64();
}

// Fleet sizes around the widths a compiler vectorizes the tick's
// validation pass to (16, 32 and 64 bytes), plus one large fleet: the
// validation loop and the cohort gather must agree with the per-client
// reference in their vector bodies and in their scalar tails.
constexpr int64_t kEdgeSizes[] = {1, 3, 15, 16, 17, 31, 32, 33,
                                  63, 64, 65, 1000};

// Ticks a fleet of n clients through every period next to n core::Client
// instances with the same seeds, comparing each tick's batch. Returns the
// number of ticks at which the whole fleet reported (the full cohort).
int64_t ExpectMatchesPerClientLoop(const ProtocolConfig& config, int64_t n,
                                   uint64_t base_seed, ThreadPool* pool) {
  SCOPED_TRACE(n);
  ClientFleet fleet =
      ClientFleet::Create(config, n, base_seed, pool).ValueOrDie();
  std::vector<Client> clients;
  for (int64_t u = 0; u < n; ++u) {
    clients.push_back(
        Client::Create(config, ClientSeed(base_seed, u)).ValueOrDie());
  }

  EXPECT_EQ(fleet.size(), n);
  for (int64_t u = 0; u < n; ++u) {
    EXPECT_EQ(fleet.level(u), clients[static_cast<size_t>(u)].level()) << u;
    EXPECT_EQ(fleet.registrations()[static_cast<size_t>(u)],
              (RegistrationMessage{u, clients[static_cast<size_t>(u)]
                                          .level()}));
  }

  std::vector<int8_t> states(static_cast<size_t>(n));
  ReportBatch batch;
  int64_t total_reports = 0;
  int64_t full_cohort_ticks = 0;
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < n; ++u) {
      states[static_cast<size_t>(u)] = PatternState(u, t, config.num_periods);
    }
    EXPECT_TRUE(fleet.AdvanceTick(states, &batch).ok());

    ReportBatch expected;
    for (int64_t u = 0; u < n; ++u) {
      Client& client = clients[static_cast<size_t>(u)];
      const std::optional<int8_t> report =
          client.ObserveState(states[static_cast<size_t>(u)]).ValueOrDie();
      if (report.has_value()) {
        expected.push_back(ReportMessage{u, t, *report});
      }
    }
    EXPECT_EQ(batch, expected) << "tick " << t;
    total_reports += static_cast<int64_t>(batch.size());
    full_cohort_ticks += static_cast<int64_t>(batch.size()) == n ? 1 : 0;
  }
  EXPECT_EQ(fleet.current_time(), config.num_periods);
  EXPECT_EQ(fleet.reports_emitted(), total_reports);

  int64_t expected_overflows = 0;
  for (const Client& client : clients) {
    expected_overflows += client.support_overflow_count();
  }
  EXPECT_EQ(fleet.support_overflow_count(), expected_overflows);
  return full_cohort_ticks;
}

class FleetKindTest : public ::testing::TestWithParam<rand::RandomizerKind> {
};

TEST_P(FleetKindTest, MatchesPerClientLoopBitExactly) {
  const ProtocolConfig config = TestConfig(GetParam());
  for (const int64_t n : kEdgeSizes) {
    // t = d is due for every level, so each size gathers the full cohort
    // at least once.
    EXPECT_GE(ExpectMatchesPerClientLoop(config, n, 1234, nullptr), 1);
  }
}

TEST_P(FleetKindTest, PooledMatchesSingleThreaded) {
  const ProtocolConfig config = TestConfig(GetParam());
  ThreadPool pool(4);
  for (const int64_t n : kEdgeSizes) {
    EXPECT_GE(ExpectMatchesPerClientLoop(config, n, 77, &pool), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRandomizers, FleetKindTest,
                         ::testing::ValuesIn(rand::AllRandomizerKinds()),
                         [](const ::testing::TestParamInfo<
                             rand::RandomizerKind>& info) {
                           return rand::RandomizerKindToString(info.param);
                         });

// Per-level supports are the one shape where a fleet resolves more than one
// randomizer construction: with d = 32 and k = 8, levels 0..5 use supports
// 8, 8, 8, 4, 2, 1.
class FleetPerLevelSupportTest
    : public ::testing::TestWithParam<rand::RandomizerKind> {};

TEST_P(FleetPerLevelSupportTest, MatchesPerClientLoopSerialAndPooled) {
  ProtocolConfig config = TestConfig(GetParam(), /*d=*/32, /*k=*/8);
  config.adapt_support_per_level = true;
  const int64_t n = 96;
  const uint64_t base_seed = 4321;

  ThreadPool pool(4);
  ClientFleet serial = ClientFleet::Create(config, n, base_seed).ValueOrDie();
  ClientFleet pooled =
      ClientFleet::Create(config, n, base_seed, &pool).ValueOrDie();
  std::vector<Client> clients;
  for (int64_t u = 0; u < n; ++u) {
    clients.push_back(
        Client::Create(config, ClientSeed(base_seed, u)).ValueOrDie());
  }
  if (!rand::IsLongitudinalKind(config.randomizer)) {
    // Every support must actually occur, so each factory is exercised.
    std::vector<bool> seen(static_cast<size_t>(config.num_orders()), false);
    for (const Client& client : clients) {
      seen[static_cast<size_t>(client.level())] = true;
      EXPECT_EQ(client.randomizer().max_support(),
                config.SupportAtLevel(client.level()));
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              config.num_orders());
  }
  EXPECT_EQ(serial.registrations(), pooled.registrations());
  for (int64_t u = 0; u < n; ++u) {
    EXPECT_EQ(serial.level(u), clients[static_cast<size_t>(u)].level()) << u;
  }

  std::vector<int8_t> states(static_cast<size_t>(n));
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    ReportBatch expected;
    for (int64_t u = 0; u < n; ++u) {
      states[static_cast<size_t>(u)] = PatternState(u, t, config.num_periods);
      const std::optional<int8_t> report =
          clients[static_cast<size_t>(u)]
              .ObserveState(states[static_cast<size_t>(u)])
              .ValueOrDie();
      if (report.has_value()) {
        expected.push_back(ReportMessage{u, t, *report});
      }
    }
    EXPECT_EQ(serial.AdvanceTick(states).ValueOrDie(), expected)
        << "serial, tick " << t;
    EXPECT_EQ(pooled.AdvanceTick(states).ValueOrDie(), expected)
        << "pooled, tick " << t;
  }
  int64_t expected_overflows = 0;
  for (const Client& client : clients) {
    expected_overflows += client.support_overflow_count();
  }
  EXPECT_EQ(serial.support_overflow_count(), expected_overflows);
  EXPECT_EQ(pooled.support_overflow_count(), expected_overflows);
}

INSTANTIATE_TEST_SUITE_P(AllRandomizers, FleetPerLevelSupportTest,
                         ::testing::ValuesIn(rand::AllRandomizerKinds()),
                         [](const ::testing::TestParamInfo<
                             rand::RandomizerKind>& info) {
                           return rand::RandomizerKindToString(info.param);
                         });

TEST(FleetTest, FirstClientIdOffsetsIdsButNotRandomness) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kIndependent, 16, 2);
  // Ids shift the Fork stream, so fleet [100..104] must equal clients
  // seeded by their global ids — the property that makes fleets of
  // different spans composable into one population.
  const int64_t n = 5;
  ClientFleet fleet =
      ClientFleet::Create(config, n, 9, nullptr, /*first_client_id=*/100)
          .ValueOrDie();
  for (int64_t u = 0; u < n; ++u) {
    const Client client =
        Client::Create(config, ClientSeed(9, 100 + u)).ValueOrDie();
    EXPECT_EQ(fleet.registrations()[static_cast<size_t>(u)],
              (RegistrationMessage{100 + u, client.level()}));
  }
}

TEST(FleetTest, ValidatesInputsBeforeMutatingAnything) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 16, 2);
  ClientFleet fleet = ClientFleet::Create(config, 4, 3).ValueOrDie();
  ClientFleet untouched = ClientFleet::Create(config, 4, 3).ValueOrDie();
  ReportBatch batch;

  // Wrong span size.
  std::vector<int8_t> three(3, 0);
  EXPECT_FALSE(fleet.AdvanceTick(three, &batch).ok());
  // A bad state in the middle of the span.
  std::vector<int8_t> bad = {0, 1, 2, 0};
  EXPECT_FALSE(fleet.AdvanceTick(bad, &batch).ok());
  EXPECT_EQ(fleet.current_time(), 0);

  // After all those rejected calls the fleet is still bit-identical to one
  // that never saw them.
  std::vector<int8_t> good = {1, 0, 1, 0};
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    EXPECT_EQ(fleet.AdvanceTick(good).ValueOrDie(),
              untouched.AdvanceTick(good).ValueOrDie());
  }
  // And the clock is exhausted.
  EXPECT_FALSE(fleet.AdvanceTick(good, &batch).ok());

  // One poisoned state at every position of every edge size, for bytes
  // outside {0,1} of both signs and both ends: a bad byte must be caught
  // in the validation pass's vector body and in its scalar tail. A
  // longitudinal fleet exports its whole per-client state as bytes, so
  // for it the rejected calls are checked byte for byte.
  for (const rand::RandomizerKind kind :
       {rand::RandomizerKind::kFutureRand, rand::RandomizerKind::kLGrr}) {
    const ProtocolConfig poison_config = TestConfig(kind, 16, 2);
    for (const int64_t n : kEdgeSizes) {
      SCOPED_TRACE(n);
      ClientFleet poisoned =
          ClientFleet::Create(poison_config, n, 5).ValueOrDie();
      ClientFleet twin = ClientFleet::Create(poison_config, n, 5).ValueOrDie();
      std::vector<int8_t> states(static_cast<size_t>(n));
      auto fill = [&](int64_t t) {
        for (int64_t u = 0; u < n; ++u) {
          states[static_cast<size_t>(u)] = PatternState(u, t, 16);
        }
      };
      for (int64_t t = 1; t <= 3; ++t) {
        fill(t);
        ASSERT_EQ(poisoned.AdvanceTick(states).ValueOrDie(),
                  twin.AdvanceTick(states).ValueOrDie());
      }
      fill(4);
      for (const int8_t poison : {int8_t{2}, int8_t{-1}, int8_t{127},
                                  int8_t{-128}}) {
        for (size_t i = 0; i < states.size(); ++i) {
          const int8_t saved = states[i];
          states[i] = poison;
          EXPECT_FALSE(poisoned.AdvanceTick(states, &batch).ok())
              << "poison " << static_cast<int>(poison) << " at " << i;
          states[i] = saved;
        }
      }
      EXPECT_EQ(poisoned.current_time(), 3);
      EXPECT_EQ(poisoned.reports_emitted(), twin.reports_emitted());
      if (rand::IsLongitudinalKind(kind)) {
        EXPECT_EQ(poisoned.EncodeLongitudinalState().ValueOrDie(),
                  twin.EncodeLongitudinalState().ValueOrDie());
      }
      for (int64_t t = 4; t <= poison_config.num_periods; ++t) {
        fill(t);
        EXPECT_EQ(poisoned.AdvanceTick(states).ValueOrDie(),
                  twin.AdvanceTick(states).ValueOrDie())
            << "tick " << t;
      }
    }
  }
}

TEST(FleetTest, PoisonedConfigReturnsFirstErrorPooledAndSerial) {
  // Regression: the pooled Create path used to keep constructing
  // randomizers (each pre-computes a noise vector) after the first chunk
  // had already failed — O(n) wasted work before surfacing the error. The
  // short-circuit must not change what is reported: both execution modes
  // return the factory's first error for a poisoned randomizer kind.
  ProtocolConfig poisoned =
      TestConfig(rand::RandomizerKind::kFutureRand, 16, 2);
  poisoned.randomizer = static_cast<rand::RandomizerKind>(99);

  const auto serial = ClientFleet::Create(poisoned, 50000, 5);
  ASSERT_FALSE(serial.ok());
  EXPECT_NE(serial.status().ToString().find("unknown randomizer kind"),
            std::string::npos)
      << serial.status().ToString();

  ThreadPool pool(4);
  const auto pooled = ClientFleet::Create(poisoned, 50000, 5, &pool);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().ToString(), serial.status().ToString());
}

TEST(FleetTest, EncodedConveniencesMatchSeparateCalls) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, /*d=*/16, /*k=*/2);
  ClientFleet fleet = ClientFleet::Create(config, 12, 7).ValueOrDie();
  ClientFleet reference = ClientFleet::Create(config, 12, 7).ValueOrDie();
  EXPECT_EQ(fleet.EncodeRegistrations(),
            EncodeRegistrationBatch(reference.registrations()));
  std::vector<int8_t> states(12, 0);
  for (int64_t t = 1; t <= 4; ++t) {
    for (int64_t u = 0; u < 12; ++u) {
      states[static_cast<size_t>(u)] = PatternState(u, t, 16);
    }
    const auto encoded =
        EncodeReportBatch(fleet.AdvanceTick(states).ValueOrDie());
    ASSERT_TRUE(encoded.ok());
    const auto batch = reference.AdvanceTick(states);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*encoded, *EncodeReportBatch(*batch, WireVersion::kV2));
    EXPECT_EQ(*DecodeReportBatch(*encoded), *batch);
  }
  EXPECT_EQ(fleet.current_time(), 4);
}

TEST(FleetTest, EncodedTicksShipPackedAndDecodeToTheTick) {
  // A tick-t batch lists the clients whose level is at most
  // countr_zero(t), in id order and at one time, so it ships as kind 10:
  // at t = 1 only the level-0 clients (a sparse bitmap), at t = d all of
  // them (every bit set).
  constexpr int64_t kClients = 300;
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, /*d=*/16, /*k=*/2);
  ClientFleet fleet = ClientFleet::Create(config, kClients, 9).ValueOrDie();
  ClientFleet reference = ClientFleet::Create(config, kClients, 9).ValueOrDie();
  std::vector<int8_t> states(kClients, 0);
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < kClients; ++u) {
      states[static_cast<size_t>(u)] = PatternState(u, t, 16);
    }
    const auto encoded =
        EncodeReportBatch(fleet.AdvanceTick(states).ValueOrDie());
    ASSERT_TRUE(encoded.ok());
    const auto batch = reference.AdvanceTick(states);
    ASSERT_TRUE(batch.ok());
    if (t == 1 || t == config.num_periods) {
      SCOPED_TRACE(t);
      EXPECT_EQ(*PeekBatchKind(*encoded), WireBatchKind::kReportPackedV2);
      EXPECT_EQ(*DecodeReportBatch(*encoded), *batch);
      int64_t level_zero = 0;
      for (int64_t i = 0; i < kClients; ++i) {
        level_zero += fleet.level(i) == 0 ? 1 : 0;
      }
      EXPECT_EQ(static_cast<int64_t>(batch->size()),
                t == 1 ? level_zero : kClients);
      EXPECT_LT(level_zero, kClients / 2);
    }
  }
}

TEST(FleetTest, EmptyFleetIsValid) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 8, 1);
  ClientFleet fleet = ClientFleet::Create(config, 0, 1).ValueOrDie();
  EXPECT_EQ(fleet.size(), 0);
  EXPECT_TRUE(fleet.registrations().empty());
  const ReportBatch batch = fleet.AdvanceTick({}).ValueOrDie();
  EXPECT_TRUE(batch.empty());
}

TEST(FleetTest, RejectsInvalidConstruction) {
  const ProtocolConfig config =
      TestConfig(rand::RandomizerKind::kFutureRand, 8, 1);
  EXPECT_FALSE(ClientFleet::Create(config, -1, 1).ok());
  ProtocolConfig bad = config;
  bad.num_periods = 7;  // not a power of two
  EXPECT_FALSE(ClientFleet::Create(bad, 4, 1).ok());
}

}  // namespace
}  // namespace futurerand::core
