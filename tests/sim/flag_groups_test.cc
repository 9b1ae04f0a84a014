#include "futurerand/sim/flag_groups.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/net/server.h"

namespace futurerand::sim {
namespace {

// Runs Parse over a literal argv.
Status ParseArgs(FlagParser* parser, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parser->Parse(static_cast<int>(args.size()), args.data());
}

// Expects `status` to be an InvalidArgument whose message contains `text`.
void ExpectInvalid(const Status& status, const std::string& text) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(text), std::string::npos)
      << status.ToString();
}

TEST(WorkloadFlagsTest, FullCommandLineFillsEveryField) {
  WorkloadFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser,
                        {"--workload=trend", "--workload_param=0.5",
                         "--churn-join-fraction=0.1",
                         "--churn-leave-fraction=0.2", "--drift-ramp=4",
                         "--shock-time=3", "--shock-fraction=0.5",
                         "--shock-width=2", "--zipf-items=16",
                         "--zipf-exponent=2", "--zipf-track-rank=3",
                         "--replay=trace.csv"})
                  .ok());
  const Result<WorkloadConfig> config = flags.ToConfig(100, 32, 4);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->kind, WorkloadKind::kTrend);
  EXPECT_EQ(config->num_users, 100);
  EXPECT_EQ(config->num_periods, 32);
  EXPECT_EQ(config->max_changes, 4);
  EXPECT_EQ(config->param, 0.5);
  EXPECT_EQ(config->churn_join_fraction, 0.1);
  EXPECT_EQ(config->churn_leave_fraction, 0.2);
  EXPECT_EQ(config->drift_ramp, 4.0);
  EXPECT_EQ(config->shock_time, 3);
  EXPECT_EQ(config->shock_fraction, 0.5);
  EXPECT_EQ(config->shock_width, 2);
  EXPECT_EQ(config->zipf_items, 16);
  EXPECT_EQ(config->zipf_exponent, 2.0);
  EXPECT_EQ(config->zipf_track_rank, 3);
  EXPECT_EQ(config->replay_path, "trace.csv");
}

TEST(WorkloadFlagsTest, ReplayNeedsAPath) {
  WorkloadFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser, {"--workload=replay"}).ok());
  ExpectInvalid(flags.ToConfig(100, 32, 4).status(),
                "--workload=replay needs --replay");
}

TEST(StoreFlagsTest, DefaultsAreTheDenseStore) {
  StoreFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser, {}).ok());
  const Result<core::StoreConfig> config = flags.ToConfig();
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(*config, core::StoreConfig::Dense());
}

TEST(StoreFlagsTest, SketchCommandLineFillsEveryField) {
  StoreFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser, {"--store=sketch", "--sketch-rows=3",
                                  "--sketch-width=256", "--sketch-seed=7"})
                  .ok());
  const Result<core::StoreConfig> config = flags.ToConfig();
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(*config, core::StoreConfig::Sketch(3, 256, 7));
}

TEST(StoreFlagsTest, BadInputsFailWithTheirMessages) {
  const auto to_config = [](std::vector<const char*> args) {
    StoreFlags flags;
    FlagParser parser;
    flags.Register(&parser);
    const Status parsed = ParseArgs(&parser, std::move(args));
    return parsed.ok() ? flags.ToConfig().status() : parsed;
  };
  ExpectInvalid(to_config({"--store=columnar"}), "unknown store kind");
  ExpectInvalid(to_config({"--store=sketch", "--sketch-width=100"}),
                "sketch width must be a power of two");
  // The dense store ignores the sketch knobs, so setting one is an error.
  for (const char* knob :
       {"--sketch-rows=3", "--sketch-width=256", "--sketch-seed=7"}) {
    ExpectInvalid(to_config({knob}), "need --store=sketch");
  }
}

// The fault groups frsim binds, one full command line into FaultOptions.
TEST(FaultFlagsTest, FullCommandLineFillsFaultOptions) {
  ChannelFlags channel_flags;
  DedupFlags dedup_flags;
  CheckpointFlags checkpoint_flags;
  FlagParser parser;
  channel_flags.Register(&parser);
  dedup_flags.Register(&parser);
  checkpoint_flags.Register(&parser);
  ASSERT_TRUE(
      ParseArgs(&parser,
                {"--drop-rate=0.1", "--dup-rate=0.2", "--reorder-rate=0.3",
                 "--corrupt-rate=0.05", "--burst-enter-rate=0.06",
                 "--burst-exit-rate=0.25", "--burst-drop-rate=0.4",
                 "--burst-corrupt-rate=0.6", "--outage-rate=0.01",
                 "--outage-recovery-rate=0.5", "--delay-rate=0.07",
                 "--delay-max-ticks=3", "--retransmit-budget=16", "--dedup",
                 "--dedup-window=128", "--checkpoint-mode=delta",
                 "--checkpoint-compact-every=4"})
          .ok());
  FaultOptions faults;
  ASSERT_TRUE(channel_flags.ApplyTo(&faults).ok());
  ASSERT_TRUE(
      dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window).ok());
  ASSERT_TRUE(checkpoint_flags
                  .ToChain(&faults.checkpoint_mode,
                           &faults.checkpoint_compact_every)
                  .ok());
  EXPECT_TRUE(faults.Validate().ok()) << faults.Validate().ToString();

  const ChannelConfig& channel = faults.channel;
  EXPECT_EQ(channel.drop_rate, 0.1);
  EXPECT_EQ(channel.duplicate_rate, 0.2);
  EXPECT_EQ(channel.reorder_rate, 0.3);
  EXPECT_EQ(channel.corrupt_rate, 0.05);
  EXPECT_EQ(channel.burst_enter_rate, 0.06);
  EXPECT_EQ(channel.burst_exit_rate, 0.25);
  EXPECT_EQ(channel.burst_drop_rate, 0.4);
  EXPECT_EQ(channel.burst_corrupt_rate, 0.6);
  EXPECT_EQ(channel.outage_enter_rate, 0.01);
  EXPECT_EQ(channel.outage_exit_rate, 0.5);
  EXPECT_EQ(channel.delay_rate, 0.07);
  EXPECT_EQ(channel.delay_ticks_max, 3);
  EXPECT_EQ(faults.retransmit_budget, 16);
  EXPECT_EQ(faults.dedup, core::DedupPolicy::kIdempotent);
  EXPECT_EQ(faults.dedup_window, core::DedupWindowPolicy{128});
  EXPECT_EQ(faults.checkpoint_mode, core::CheckpointMode::kDelta);
  EXPECT_EQ(faults.checkpoint_compact_every, 4);
  EXPECT_EQ(faults.checkpoint_every, 0);  // frsim's own flag, not a group's
}

TEST(FaultFlagsTest, DefaultsAreTheIdealTransport) {
  ChannelFlags channel_flags;
  DedupFlags dedup_flags;
  CheckpointFlags checkpoint_flags;
  FlagParser parser;
  channel_flags.Register(&parser);
  dedup_flags.Register(&parser);
  checkpoint_flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser, {}).ok());
  FaultOptions faults;
  faults.retransmit_budget = 0;  // overwritten by the group's default
  ASSERT_TRUE(channel_flags.ApplyTo(&faults).ok());
  ASSERT_TRUE(
      dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window).ok());
  ASSERT_TRUE(checkpoint_flags
                  .ToChain(&faults.checkpoint_mode,
                           &faults.checkpoint_compact_every)
                  .ok());
  const FaultOptions defaults;
  EXPECT_FALSE(faults.active());
  EXPECT_EQ(faults.retransmit_budget, defaults.retransmit_budget);
  EXPECT_EQ(faults.dedup, defaults.dedup);
  EXPECT_EQ(faults.dedup_window, defaults.dedup_window);
  EXPECT_EQ(faults.checkpoint_mode, defaults.checkpoint_mode);
  EXPECT_EQ(faults.checkpoint_compact_every,
            defaults.checkpoint_compact_every);
}

TEST(FaultFlagsTest, BadInputsFailWithTheirMessages) {
  // Parses `args` into the three fault groups and applies them in the
  // order the tools do, returning the first failure.
  const auto to_faults = [](std::vector<const char*> args) {
    ChannelFlags channel_flags;
    DedupFlags dedup_flags;
    CheckpointFlags checkpoint_flags;
    FlagParser parser;
    channel_flags.Register(&parser);
    dedup_flags.Register(&parser);
    checkpoint_flags.Register(&parser);
    FaultOptions faults;
    for (const Status& status :
         {ParseArgs(&parser, std::move(args)), channel_flags.ApplyTo(&faults),
          dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window),
          checkpoint_flags.ToChain(&faults.checkpoint_mode,
                                   &faults.checkpoint_compact_every)}) {
      if (!status.ok()) {
        return status;
      }
    }
    return faults.Validate();
  };
  ExpectInvalid(to_faults({"--checkpoint-mode=bogus"}),
                "--checkpoint-mode must be full or delta");
  ExpectInvalid(to_faults({"--checkpoint-mode=delta",
                           "--checkpoint-compact-every=0"}),
                "checkpoint_compact_every must be >= 1");
  ExpectInvalid(to_faults({"--dup-rate=0.1"}),
                "duplicate/delay faults require");
  ExpectInvalid(to_faults({"--dedup-window=8"}),
                "a bounded dedup window requires");
  ExpectInvalid(to_faults({"--drop-rate=1.5"}),
                "channel rates must be in [0, 1]");
  ExpectInvalid(to_faults({"--retransmit-budget=0"}),
                "retransmit_budget must be >= 1");
}

// The groups frserve binds, into a ServiceConfig.
TEST(ServiceFlagsTest, DedupAndCheckpointGroupsFillServiceConfig) {
  DedupFlags dedup_flags;
  CheckpointFlags checkpoint_flags;
  FlagParser parser;
  dedup_flags.Register(&parser);
  checkpoint_flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser,
                        {"--dedup", "--dedup-window=64",
                         "--checkpoint-mode=delta",
                         "--checkpoint-compact-every=3"})
                  .ok());
  net::ServiceConfig config;
  config.protocol.num_periods = 64;
  config.protocol.max_changes = 4;
  config.protocol.epsilon = 1.0;
  ASSERT_TRUE(
      dedup_flags.ToPolicies(&config.dedup, &config.dedup_window).ok());
  ASSERT_TRUE(checkpoint_flags
                  .ToChain(&config.checkpoint_mode,
                           &config.checkpoint_compact_every)
                  .ok());
  EXPECT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  EXPECT_EQ(config.dedup, core::DedupPolicy::kIdempotent);
  EXPECT_EQ(config.dedup_window, core::DedupWindowPolicy{64});
  EXPECT_EQ(config.checkpoint_mode, core::CheckpointMode::kDelta);
  EXPECT_EQ(config.checkpoint_compact_every, 3);
}

TEST(ServiceFlagsTest, DedupWindowWithoutDedupFails) {
  DedupFlags dedup_flags;
  FlagParser parser;
  dedup_flags.Register(&parser);
  ASSERT_TRUE(ParseArgs(&parser, {"--dedup-window=64"}).ok());
  net::ServiceConfig config;
  ExpectInvalid(dedup_flags.ToPolicies(&config.dedup, &config.dedup_window),
                "a bounded dedup window requires");
}

}  // namespace
}  // namespace futurerand::sim
