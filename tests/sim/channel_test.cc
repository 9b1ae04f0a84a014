// ChannelModel: seeded fault injection must be deterministic, respect its
// configured rates at the extremes, and — composed with DedupPolicy and the
// runner — leave estimates bit-identical whenever no record is actually
// lost (duplication, reordering, checkpoint/restore round-trips).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/sim/channel.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {
namespace {

core::ReportBatch TestBatch(int64_t size, int64_t time) {
  core::ReportBatch batch;
  for (int64_t u = 0; u < size; ++u) {
    batch.push_back({u, time, u % 2 == 0 ? int8_t{1} : int8_t{-1}});
  }
  return batch;
}

TEST(ChannelConfigTest, ValidatesRates) {
  ChannelConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_FALSE(config.enabled());
  config.drop_rate = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.drop_rate = 0.5;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.enabled());
  config.corrupt_rate = -0.1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ChannelModelTest, PerfectChannelIsIdentity) {
  ChannelModel channel(ChannelConfig{}, 1);
  const core::ReportBatch sent = TestBatch(20, 4);
  core::ReportBatch delivered;
  channel.Transmit(sent, &delivered);
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(channel.stats().records_sent, 20);
  EXPECT_EQ(channel.stats().records_delivered, 20);
  EXPECT_EQ(channel.stats().records_dropped, 0);
  std::string bytes = "some wire bytes";
  EXPECT_FALSE(channel.MaybeCorrupt(&bytes));
  EXPECT_EQ(bytes, "some wire bytes");
}

TEST(ChannelModelTest, SameSeedReplaysTheSameFaults) {
  ChannelConfig config;
  config.drop_rate = 0.3;
  config.duplicate_rate = 0.3;
  config.reorder_rate = 0.5;
  ChannelModel a(config, 42);
  ChannelModel b(config, 42);
  ChannelModel c(config, 43);
  core::ReportBatch from_a;
  core::ReportBatch from_b;
  core::ReportBatch from_c;
  bool any_difference = false;
  for (int64_t t = 1; t <= 32; ++t) {
    const core::ReportBatch sent = TestBatch(50, t);
    a.Transmit(sent, &from_a);
    b.Transmit(sent, &from_b);
    c.Transmit(sent, &from_c);
    EXPECT_EQ(from_a, from_b);
    any_difference = any_difference || from_a != from_c;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChannelModelTest, FullDropLosesEverything) {
  ChannelConfig config;
  config.drop_rate = 1.0;
  ChannelModel channel(config, 9);
  core::ReportBatch delivered;
  channel.Transmit(TestBatch(100, 2), &delivered);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(channel.stats().records_dropped, 100);
  EXPECT_EQ(channel.stats().records_delivered, 0);
}

TEST(ChannelModelTest, FullDuplicationDeliversEverythingTwice) {
  ChannelConfig config;
  config.duplicate_rate = 1.0;
  ChannelModel channel(config, 9);
  const core::ReportBatch sent = TestBatch(50, 2);
  core::ReportBatch delivered;
  channel.Transmit(sent, &delivered);
  EXPECT_EQ(delivered.size(), 100u);
  EXPECT_EQ(channel.stats().records_duplicated, 50);
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(delivered[2 * i], sent[i]);
    EXPECT_EQ(delivered[2 * i + 1], sent[i]);
  }
}

TEST(ChannelModelTest, ReorderPreservesTheMultiset) {
  ChannelConfig config;
  config.reorder_rate = 1.0;
  ChannelModel channel(config, 17);
  const core::ReportBatch sent = TestBatch(64, 8);
  core::ReportBatch delivered;
  channel.Transmit(sent, &delivered);
  EXPECT_EQ(channel.stats().batches_reordered, 1);
  EXPECT_NE(delivered, sent);  // 64! orderings: identity is impossible luck
  auto key = [](const core::ReportMessage& m) { return m.client_id; };
  core::ReportBatch sorted = delivered;
  std::sort(sorted.begin(), sorted.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  EXPECT_EQ(sorted, sent);
}

TEST(ChannelModelTest, CorruptFlipsExactlyOneBit) {
  ChannelConfig config;
  config.corrupt_rate = 1.0;
  ChannelModel channel(config, 23);
  const std::string original(40, '\x5a');
  for (int round = 0; round < 50; ++round) {
    std::string bytes = original;
    ASSERT_TRUE(channel.MaybeCorrupt(&bytes));
    ASSERT_EQ(bytes.size(), original.size());
    int flipped_bits = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
      flipped_bits +=
          __builtin_popcount(static_cast<uint8_t>(bytes[i]) ^
                             static_cast<uint8_t>(original[i]));
    }
    EXPECT_EQ(flipped_bits, 1);
  }
  EXPECT_EQ(channel.stats().batches_corrupted, 50);
}

TEST(ChannelConfigTest, ValidatesBurstOutageAndDelayRules) {
  ChannelConfig config;
  // A burst layer without an exit rate would be an absorbing bad state.
  config.burst_enter_rate = 0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.burst_exit_rate = 0.5;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.enabled());
  EXPECT_TRUE(config.bursty());
  // burst_* rates without the layer enabled are dead knobs: rejected.
  ChannelConfig orphan;
  orphan.burst_corrupt_rate = 0.5;
  EXPECT_FALSE(orphan.Validate().ok());
  // Outages need a recovery rate, and vice versa.
  ChannelConfig outage;
  outage.outage_enter_rate = 0.1;
  EXPECT_FALSE(outage.Validate().ok());
  outage.outage_exit_rate = 0.2;
  EXPECT_TRUE(outage.Validate().ok());
  ChannelConfig recovery_only;
  recovery_only.outage_exit_rate = 0.2;
  EXPECT_FALSE(recovery_only.Validate().ok());
  // Delays need a horizon.
  ChannelConfig delay;
  delay.delay_rate = 0.3;
  EXPECT_FALSE(delay.Validate().ok());
  delay.delay_ticks_max = 4;
  EXPECT_TRUE(delay.Validate().ok());
  EXPECT_TRUE(delay.enabled());
}

TEST(ChannelModelTest, BurstsClusterCorruption) {
  // Corruption only happens in the bad state (steady corrupt_rate = 0,
  // burst_corrupt_rate = 1), so every MaybeCorrupt verdict reveals the
  // chain's state: we must see both states, and the bad verdicts must
  // come in runs longer than independent flips would produce.
  ChannelConfig config;
  config.burst_enter_rate = 0.1;
  config.burst_exit_rate = 0.25;
  config.burst_corrupt_rate = 1.0;
  ChannelModel channel(config, 77);
  std::string bytes(64, '\x42');
  int corrupted = 0;
  int max_run = 0;
  int run = 0;
  const int attempts = 400;
  for (int i = 0; i < attempts; ++i) {
    std::string copy = bytes;
    if (channel.MaybeCorrupt(&copy)) {
      ++corrupted;
      max_run = std::max(max_run, ++run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(corrupted, 0);
  EXPECT_LT(corrupted, attempts);
  // Expected burst length 1/0.25 = 4 traversals; independent corruption
  // at the same overall rate would almost never produce a run this long.
  EXPECT_GE(max_run, 3);
  EXPECT_EQ(channel.stats().batches_corrupted, corrupted);
}

TEST(ChannelModelTest, BurstReplacesSteadyDropRate) {
  // drop_rate 0 in the good state, 1 in the bad state: exactly the
  // records sent during bad-state batches disappear.
  ChannelConfig config;
  config.burst_enter_rate = 0.3;
  config.burst_exit_rate = 0.3;
  config.burst_drop_rate = 1.0;
  ChannelModel channel(config, 5);
  core::ReportBatch delivered;
  int64_t sent_in_burst = 0;
  for (int64_t t = 1; t <= 64; ++t) {
    const core::ReportBatch sent = TestBatch(10, t);
    channel.Transmit(sent, &delivered);
    if (channel.in_burst()) {
      sent_in_burst += static_cast<int64_t>(sent.size());
      EXPECT_TRUE(delivered.empty());
    } else {
      EXPECT_EQ(delivered, sent);
    }
  }
  EXPECT_GT(channel.stats().batches_in_burst, 0);
  EXPECT_LT(channel.stats().batches_in_burst, 64);
  EXPECT_EQ(channel.stats().records_dropped, sent_in_burst);
}

TEST(ChannelModelTest, OutagesDropWholeClientRuns) {
  // One report per client per tick: with outage correlation a client's
  // losses come in consecutive ticks, not independent coin flips.
  ChannelConfig config;
  config.outage_enter_rate = 0.05;
  config.outage_exit_rate = 0.2;
  ChannelModel channel(config, 11);
  const int64_t clients = 20;
  const int64_t ticks = 100;
  std::vector<std::vector<bool>> lost(
      static_cast<size_t>(clients), std::vector<bool>());
  core::ReportBatch delivered;
  for (int64_t t = 1; t <= ticks; ++t) {
    channel.Transmit(TestBatch(clients, t), &delivered);
    std::vector<bool> seen(static_cast<size_t>(clients), false);
    for (const core::ReportMessage& message : delivered) {
      seen[static_cast<size_t>(message.client_id)] = true;
    }
    for (int64_t u = 0; u < clients; ++u) {
      lost[static_cast<size_t>(u)].push_back(!seen[static_cast<size_t>(u)]);
    }
  }
  EXPECT_GT(channel.stats().client_outages, 0);
  EXPECT_GT(channel.stats().records_outage_dropped, 0);
  EXPECT_EQ(channel.stats().records_outage_dropped,
            channel.stats().records_dropped);
  // Correlation: some client must lose >= 3 consecutive ticks (expected
  // outage length 1/0.2 = 5), which independent 'dropped' coins at the
  // observed marginal rate would make vanishingly rare across 20 clients.
  int longest = 0;
  for (const std::vector<bool>& row : lost) {
    int run = 0;
    for (const bool was_lost : row) {
      run = was_lost ? run + 1 : 0;
      longest = std::max(longest, run);
    }
  }
  EXPECT_GE(longest, 3);
}

TEST(ChannelModelTest, DelayInterleavesTicksAndFlushLosesNothing) {
  ChannelConfig config;
  config.delay_rate = 0.5;
  config.delay_ticks_max = 3;
  ChannelModel channel(config, 21);
  core::ReportBatch delivered;
  std::vector<core::ReportMessage> all_sent;
  std::vector<core::ReportMessage> all_received;
  bool interleaved = false;
  for (int64_t t = 1; t <= 32; ++t) {
    const core::ReportBatch sent = TestBatch(30, t);
    all_sent.insert(all_sent.end(), sent.begin(), sent.end());
    channel.Transmit(sent, &delivered);
    bool has_old = false;
    bool has_new = false;
    for (const core::ReportMessage& message : delivered) {
      (message.time == t ? has_new : has_old) = true;
    }
    interleaved = interleaved || (has_old && has_new);
    all_received.insert(all_received.end(), delivered.begin(),
                        delivered.end());
  }
  channel.FlushDelayed(&delivered);
  all_received.insert(all_received.end(), delivered.begin(),
                      delivered.end());
  EXPECT_TRUE(interleaved);
  EXPECT_GT(channel.stats().records_delayed, 0);
  EXPECT_EQ(channel.stats().records_dropped, 0);
  EXPECT_EQ(channel.stats().records_delivered,
            static_cast<int64_t>(all_received.size()));
  // Nothing lost, nothing invented: the delivered multiset equals the
  // sent multiset once both are put in a canonical order.
  auto canonical = [](std::vector<core::ReportMessage>& batch) {
    std::sort(batch.begin(), batch.end(),
              [](const core::ReportMessage& a, const core::ReportMessage& b) {
                return a.client_id != b.client_id
                           ? a.client_id < b.client_id
                           : a.time < b.time;
              });
  };
  canonical(all_sent);
  canonical(all_received);
  EXPECT_EQ(all_received, all_sent);
}

// ---------------------------------------------------------------------------
// End-to-end through the runner.

core::ProtocolConfig RunnerConfig() {
  core::ProtocolConfig config;
  config.num_periods = 64;
  config.max_changes = 4;
  config.epsilon = 1.0;
  return config;
}

WorkloadConfig RunnerWorkload(int64_t n = 400) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kUniformChanges;
  config.num_users = n;
  config.num_periods = 64;
  config.max_changes = 4;
  return config;
}

TEST(RunnerFaultTest, LosslessFaultsAreBitIdenticalToIdealTransport) {
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 11).ValueOrDie();
  const RunResult ideal =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 99)
          .ValueOrDie();

  FaultOptions faults;
  faults.channel.duplicate_rate = 0.4;
  faults.channel.reorder_rate = 1.0;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.checkpoint_every = 16;
  const RunResult lossy =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 99,
                  nullptr, 0, faults)
          .ValueOrDie();

  // Nothing was dropped or corrupted, so dedup + restore must reproduce the
  // ideal estimates bit for bit.
  EXPECT_EQ(lossy.estimates, ideal.estimates);
  EXPECT_EQ(lossy.delivery.records_dropped, 0);
  EXPECT_GT(lossy.delivery.records_duplicated, 0);
  EXPECT_EQ(lossy.delivery.records_deduped,
            lossy.delivery.records_duplicated);
  EXPECT_EQ(lossy.delivery.records_applied, lossy.delivery.records_sent);
  EXPECT_EQ(lossy.delivery.checkpoints_taken, 4);
  EXPECT_GT(lossy.delivery.checkpoint_bytes, 0);
}

TEST(RunnerFaultTest, DeliveryAccountingBalances) {
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 3).ValueOrDie();
  FaultOptions faults;
  faults.channel.drop_rate = 0.2;
  faults.channel.duplicate_rate = 0.2;
  faults.dedup = core::DedupPolicy::kIdempotent;
  const RunResult run =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 5,
                  nullptr, 0, faults)
          .ValueOrDie();
  const DeliveryMetrics& delivery = run.delivery;
  EXPECT_EQ(delivery.records_sent, run.reports_submitted);
  EXPECT_GT(delivery.records_dropped, 0);
  EXPECT_EQ(delivery.records_delivered,
            delivery.records_sent - delivery.records_dropped +
                delivery.records_duplicated);
  EXPECT_EQ(delivery.records_applied + delivery.records_deduped,
            delivery.records_delivered);
  EXPECT_EQ(delivery.records_deduped, delivery.records_duplicated);
}

TEST(RunnerFaultTest, DropsBiasTheEstimatesDown) {
  // Dropping reports starves the debiased sums, shrinking estimates toward
  // zero. Measure in a signal-dominated regime (many users, few periods,
  // static population) where the ~drop_rate multiplicative bias dwarfs the
  // sampling noise.
  core::ProtocolConfig config;
  config.num_periods = 8;
  config.max_changes = 2;
  config.epsilon = 1.0;
  WorkloadConfig workload_config;
  workload_config.kind = WorkloadKind::kStatic;
  workload_config.num_users = 40000;
  workload_config.num_periods = 8;
  workload_config.max_changes = 2;
  workload_config.param = 0.8;  // 80% of users at 1 throughout
  const Workload workload =
      Workload::Generate(workload_config, 7).ValueOrDie();

  const RunResult ideal =
      RunProtocol(ProtocolKind::kFutureRand, config, workload, 13)
          .ValueOrDie();
  FaultOptions faults;
  faults.channel.drop_rate = 0.5;
  const RunResult lossy =
      RunProtocol(ProtocolKind::kFutureRand, config, workload, 13, nullptr,
                  0, faults)
          .ValueOrDie();

  double ideal_mean = 0.0;
  double lossy_mean = 0.0;
  for (size_t t = 0; t < ideal.estimates.size(); ++t) {
    ideal_mean += ideal.estimates[t];
    lossy_mean += lossy.estimates[t];
  }
  ideal_mean /= static_cast<double>(ideal.estimates.size());
  lossy_mean /= static_cast<double>(lossy.estimates.size());
  // ~32000 users on; half the reports lost leaves roughly half the mass.
  EXPECT_LT(lossy_mean, 0.75 * ideal_mean);
  EXPECT_GT(lossy_mean, 0.25 * ideal_mean);
  // And the lossy run's error vs ground truth is correspondingly worse.
  EXPECT_GT(lossy.metrics.max_abs, ideal.metrics.max_abs);
  EXPECT_EQ(lossy.delivery.records_deduped, 0);
}

TEST(RunnerFaultTest, V2ChecksumDetectionIsBitIdenticalUnderStrictDedup) {
  // The tentpole guarantee: with checksummed v2 batches, corruption —
  // including bursty corruption — is detected by the receiver, NACKed and
  // retransmitted until clean, so the run is bit-identical to the
  // fault-free transport. No oracle, and no dedup either: a rejected v2
  // batch applied nothing, so the resend is a fresh first delivery even
  // under DedupPolicy::kStrict.
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 29).ValueOrDie();
  const RunResult ideal =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 31)
          .ValueOrDie();

  FaultOptions faults;
  faults.channel.corrupt_rate = 0.2;
  faults.channel.burst_enter_rate = 0.2;
  faults.channel.burst_exit_rate = 0.4;
  faults.channel.burst_corrupt_rate = 0.9;
  ASSERT_EQ(faults.dedup, core::DedupPolicy::kStrict);
  const RunResult recovered =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 31,
                  nullptr, 0, faults)
          .ValueOrDie();

  EXPECT_EQ(recovered.estimates, ideal.estimates);
  EXPECT_GT(recovered.delivery.batches_corrupted, 0);
  EXPECT_GT(recovered.delivery.batches_in_burst, 0);
  // Every corrupted attempt was caught by the receiver (kDataLoss) and
  // every NACK triggered exactly one retransmission.
  EXPECT_EQ(recovered.delivery.batches_checksum_rejected,
            recovered.delivery.batches_corrupted);
  EXPECT_EQ(recovered.delivery.batches_retransmitted,
            recovered.delivery.batches_checksum_rejected);
  EXPECT_EQ(recovered.delivery.records_applied,
            recovered.delivery.records_sent);
  EXPECT_EQ(recovered.delivery.records_deduped, 0);
}

TEST(RunnerFaultTest, RetransmitBudgetExhaustionFailsLoudly) {
  // corrupt_rate = 1 garbles every attempt, so the budget runs out and
  // the run fails with the distinct corruption code instead of silently
  // dropping the batch.
  const Workload workload =
      Workload::Generate(RunnerWorkload(100), 7).ValueOrDie();
  FaultOptions faults;
  faults.channel.corrupt_rate = 1.0;
  faults.retransmit_budget = 3;
  const auto run = RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(),
                               workload, 7, nullptr, 0, faults);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDataLoss);
}

TEST(RunnerFaultTest, DelayedRecordsAreBitIdenticalUnderDedup) {
  // Latency/skew interleaves ticks at the aggregator but loses nothing:
  // with idempotent ingest the estimates match the ideal transport bit
  // for bit, including the end-of-run flush of still-lagging records.
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 37).ValueOrDie();
  const RunResult ideal =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 43)
          .ValueOrDie();
  FaultOptions faults;
  faults.channel.delay_rate = 0.5;
  faults.channel.delay_ticks_max = 5;
  faults.channel.reorder_rate = 1.0;
  faults.dedup = core::DedupPolicy::kIdempotent;
  const RunResult delayed =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 43,
                  nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_EQ(delayed.estimates, ideal.estimates);
  EXPECT_GT(delayed.delivery.records_delayed, 0);
  EXPECT_EQ(delayed.delivery.records_applied, delayed.delivery.records_sent);
  EXPECT_EQ(delayed.delivery.records_dropped, 0);
}

TEST(RunnerFaultTest, ClientOutagesDropCorrelatedRuns) {
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 53).ValueOrDie();
  FaultOptions faults;
  faults.channel.outage_enter_rate = 0.1;
  faults.channel.outage_exit_rate = 0.3;
  const RunResult run =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 59,
                  nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_GT(run.delivery.client_outages, 0);
  EXPECT_GT(run.delivery.records_outage_dropped, 0);
  EXPECT_LE(run.delivery.records_outage_dropped,
            run.delivery.records_dropped);
  // An outage drops at least the report whose traversal triggered it.
  EXPECT_GE(run.delivery.records_outage_dropped,
            run.delivery.client_outages);
}

TEST(RunnerFaultTest, ValidatesFaultCombinations) {
  const Workload workload =
      Workload::Generate(RunnerWorkload(100), 1).ValueOrDie();
  // Duplicates without dedup would be ingest errors.
  FaultOptions faults;
  faults.channel.duplicate_rate = 0.1;
  EXPECT_FALSE(RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(),
                           workload, 1, nullptr, 0, faults)
                   .ok());
  faults.dedup = core::DedupPolicy::kIdempotent;
  EXPECT_TRUE(RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(),
                          workload, 1, nullptr, 0, faults)
                  .ok());
  // Baselines bypass the batch transport: faults are rejected, not ignored.
  EXPECT_FALSE(RunProtocol(ProtocolKind::kErlingsson, RunnerConfig(),
                           workload, 1, nullptr, 0, faults)
                   .ok());
  EXPECT_FALSE(RunProtocol(ProtocolKind::kNaiveRR, RunnerConfig(), workload,
                           1, nullptr, 0, faults)
                   .ok());
  // Out-of-range rates.
  FaultOptions bad;
  bad.channel.drop_rate = 2.0;
  EXPECT_FALSE(RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(),
                           workload, 1, nullptr, 0, bad)
                   .ok());
  // Corruption needs no dedup: the atomic checksum rejection makes a
  // retransmission under kStrict exact.
  FaultOptions corrupt;
  corrupt.channel.corrupt_rate = 0.1;
  EXPECT_TRUE(corrupt.Validate().ok());
  // Delayed records arrive out of order per client: kIdempotent only.
  FaultOptions delayed;
  delayed.channel.delay_rate = 0.2;
  delayed.channel.delay_ticks_max = 2;
  EXPECT_FALSE(delayed.Validate().ok());
  delayed.dedup = core::DedupPolicy::kIdempotent;
  EXPECT_TRUE(delayed.Validate().ok());
  // The retry budget must allow at least one attempt.
  FaultOptions budget;
  budget.retransmit_budget = 0;
  EXPECT_FALSE(budget.Validate().ok());
  // A bounded dedup window requires kIdempotent; beyond-horizon windows
  // are rejected by the aggregator factory inside the run.
  FaultOptions windowed;
  windowed.dedup_window = core::DedupWindowPolicy{32};
  EXPECT_FALSE(windowed.Validate().ok());
  windowed.dedup = core::DedupPolicy::kIdempotent;
  EXPECT_TRUE(windowed.Validate().ok());
  // The compaction cadence only matters (and is only validated) under
  // delta mode — runner.h documents it as ignored under kFull.
  FaultOptions compact;
  compact.checkpoint_compact_every = 0;
  EXPECT_TRUE(compact.Validate().ok());
  compact.checkpoint_mode = core::CheckpointMode::kDelta;
  EXPECT_FALSE(compact.Validate().ok());
}

TEST(RunnerFaultTest, DeltaCheckpointChainIsBitIdenticalToIdealTransport) {
  const Workload workload =
      Workload::Generate(RunnerWorkload(), 17).ValueOrDie();
  const RunResult ideal =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 41)
          .ValueOrDie();

  // Delta checkpoints every 8 periods with compaction every 3rd, plus a
  // bounded dedup window: the crash-sim replays base + deltas each time
  // and must reproduce the ideal estimates bit for bit.
  FaultOptions faults;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.dedup_window = core::DedupWindowPolicy{32};
  faults.checkpoint_every = 8;
  faults.checkpoint_mode = core::CheckpointMode::kDelta;
  faults.checkpoint_compact_every = 3;
  const RunResult recovered =
      RunProtocol(ProtocolKind::kFutureRand, RunnerConfig(), workload, 41,
                  nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_EQ(recovered.estimates, ideal.estimates);
  EXPECT_EQ(recovered.delivery.checkpoints_taken, 8);
  EXPECT_EQ(recovered.delivery.delta_checkpoints_taken, 5);
  EXPECT_GT(recovered.delivery.delta_checkpoint_bytes, 0);
  EXPECT_LT(recovered.delivery.delta_checkpoint_bytes,
            recovered.delivery.checkpoint_bytes);
}

TEST(ChannelConfigTest, RejectsNegativeDelayTicksMaxUnconditionally) {
  // Regression: the negative-horizon check must fire on its own, not only
  // via the "delay_rate needs a horizon >= 1" rule — a config with
  // delay_rate = 0 but delay_ticks_max = -3 used to depend on check order.
  ChannelConfig config;
  config.delay_ticks_max = -3;
  ASSERT_FALSE(config.Validate().ok());
  EXPECT_NE(config.Validate().message().find("delay_ticks_max"),
            std::string::npos);
  // And still rejected when the delay layer is actually on.
  config.delay_rate = 0.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ChannelModelTest, FlushDelayedIsDeterministicallySorted) {
  // The end-of-run flush must be a function of the records themselves,
  // not of internal submission order: everything still pending comes out
  // sorted by (client id, time).
  ChannelConfig config;
  config.delay_rate = 1.0;
  config.delay_ticks_max = 64;  // long horizon: nothing releases early
  ChannelModel channel(config, 99);
  // Submit clients in descending order so submission order and sorted
  // order disagree. Short delays may release during later ticks; the
  // flush sortedness claim is about what is still pending at the end.
  size_t released_in_band = 0;
  for (int64_t t = 1; t <= 4; ++t) {
    core::ReportBatch sent;
    for (int64_t c = 9; c >= 0; --c) {
      sent.push_back({c, t, int8_t{1}});
    }
    core::ReportBatch delivered;
    channel.Transmit(sent, &delivered);
    released_in_band += delivered.size();
  }
  core::ReportBatch flushed;
  channel.FlushDelayed(&flushed);
  ASSERT_EQ(released_in_band + flushed.size(), 40u);  // nothing lost
  ASSERT_GT(flushed.size(), 1u);  // the sortedness claim is non-vacuous
  for (size_t i = 1; i < flushed.size(); ++i) {
    const core::ReportMessage& prev = flushed[i - 1];
    const core::ReportMessage& next = flushed[i];
    EXPECT_TRUE(prev.client_id < next.client_id ||
                (prev.client_id == next.client_id && prev.time < next.time))
        << "flush not sorted at index " << i;
  }
}

// ---------------------------------------------------------------------------
// The retransmit budget contract: budget N = N total transmissions.

TEST(RetransmitLoopTest, BudgetMeansTotalTransmissions) {
  // An attempt that is always NACKed runs exactly `budget` times — the
  // initial transmission plus budget - 1 resends — then fails kDataLoss.
  DeliveryMetrics delivery;
  int64_t attempts = 0;
  const Status exhausted = RetransmitLoop(
      5,
      [&]() -> Result<bool> {
        ++attempts;
        return false;
      },
      &delivery);
  EXPECT_EQ(exhausted.code(), StatusCode::kDataLoss);
  EXPECT_EQ(attempts, 5);
  EXPECT_EQ(delivery.batches_retransmitted, 4);
}

TEST(RetransmitLoopTest, BudgetOfOneNeverRetransmits) {
  DeliveryMetrics delivery;
  int64_t attempts = 0;
  const Status exhausted = RetransmitLoop(
      1,
      [&]() -> Result<bool> {
        ++attempts;
        return false;
      },
      &delivery);
  EXPECT_EQ(exhausted.code(), StatusCode::kDataLoss);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(delivery.batches_retransmitted, 0);
}

TEST(RetransmitLoopTest, StopsAtFirstAcceptAndCountsResends) {
  DeliveryMetrics delivery;
  int64_t attempts = 0;
  const Status delivered = RetransmitLoop(
      10,
      [&]() -> Result<bool> {
        ++attempts;
        return attempts == 4;  // three NACKs, then accepted
      },
      &delivery);
  EXPECT_TRUE(delivered.ok());
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(delivery.batches_retransmitted, 3);
}

TEST(RetransmitLoopTest, ErrorsPropagateWithoutConsumingBudget) {
  DeliveryMetrics delivery;
  const Status failed = RetransmitLoop(
      10,
      [&]() -> Result<bool> {
        return Status::FailedPrecondition("not retryable");
      },
      &delivery);
  EXPECT_EQ(failed.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(delivery.batches_retransmitted, 0);
}

TEST(RetransmitBudgetTest, DeliveryChargesOneChannelTraversalPerAttempt) {
  // End to end through DeliverEncodedWithRetransmission: corrupt_rate = 1
  // garbles every traversal, so a budget of 3 produces exactly 3 corrupted
  // attempts, 3 checksum rejections, 2 retransmissions, then kDataLoss.
  auto aggregator =
      core::ShardedAggregator::ForProtocol(RunnerConfig(), 1,
                                           core::DedupPolicy::kStrict,
                                           core::DedupWindowPolicy{})
          .ValueOrDie();
  const std::string pristine =
      core::EncodeReportBatch(TestBatch(4, 1), core::WireVersion::kV2)
          .ValueOrDie();
  ChannelConfig config;
  config.corrupt_rate = 1.0;
  ChannelModel channel(config, 3);
  DeliveryMetrics delivery;
  const Status exhausted = DeliverEncodedWithRetransmission(
      aggregator, pristine, &channel, /*retransmit_budget=*/3, nullptr,
      &delivery);
  EXPECT_EQ(exhausted.code(), StatusCode::kDataLoss);
  EXPECT_EQ(channel.stats().batches_corrupted, 3);
  EXPECT_EQ(delivery.batches_checksum_rejected, 3);
  EXPECT_EQ(delivery.batches_retransmitted, 2);
  EXPECT_EQ(delivery.records_applied, 0);  // v2 rejection is atomic
}

}  // namespace
}  // namespace futurerand::sim
