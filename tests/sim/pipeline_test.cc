// The ReportSink contract of sim::RunPipeline, the one fleet -> wire ->
// aggregator period loop: the order in which the loop calls its sink
// (registrations, per-tick BeginTick / Deliver / EndTick, joiner
// re-registrations, the post-loop flush of delayed records), and that a
// sink shipping every batch over the real wire encoding lands exactly the
// estimates RunProtocol's in-process record path lands.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/macros.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/wire.h"
#include "futurerand/sim/pipeline.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {
namespace {

constexpr int64_t kPeriods = 16;

core::ProtocolConfig TestProtocolConfig() {
  core::ProtocolConfig config;
  config.num_periods = kPeriods;
  config.max_changes = 3;
  config.epsilon = 1.0;
  return config;
}

Workload MakeWorkload(WorkloadKind kind, uint64_t seed) {
  WorkloadConfig config;
  config.kind = kind;
  config.num_users = 300;
  config.num_periods = kPeriods;
  config.max_changes = 3;
  if (kind == WorkloadKind::kChurn) {
    config.churn_join_fraction = 0.5;
  }
  return Workload::Generate(config, seed).ValueOrDie();
}

enum class Call { kRegister, kBeginTick, kDeliver, kEndTick };

struct Event {
  Call call;
  int64_t tick;  // batch_index for kDeliver

  friend bool operator==(const Event&, const Event&) = default;
};

std::string ToString(const Event& event) {
  static constexpr const char* kNames[] = {"Register", "BeginTick",
                                           "Deliver", "EndTick"};
  return std::string(kNames[static_cast<int>(event.call)]) + "(" +
         std::to_string(event.tick) + ")";
}

std::string ToString(const std::vector<Event>& events) {
  std::string out;
  for (const Event& event : events) {
    out += ToString(event) + " ";
  }
  return out;
}

// Records every call the loop makes, in order.
class RecordingSink final : public ReportSink {
 public:
  Status Register(const std::vector<core::RegistrationMessage>& /*regs*/,
                  int64_t tick) override {
    events.push_back({Call::kRegister, tick});
    return Status::OK();
  }
  void BeginTick(int64_t tick) override {
    events.push_back({Call::kBeginTick, tick});
  }
  Status Deliver(const core::ReportBatch& /*batch*/, int64_t batch_index,
                 ChannelModel* /*channel*/,
                 DeliveryMetrics* /*delivery*/) override {
    events.push_back({Call::kDeliver, batch_index});
    return Status::OK();
  }
  Status EndTick(int64_t tick, DeliveryMetrics* /*delivery*/) override {
    events.push_back({Call::kEndTick, tick});
    return Status::OK();
  }

  std::vector<Event> events;
};

// Register(0), then BeginTick(t) -> Deliver(t-1) -> EndTick(t) per tick.
std::vector<Event> IdealSequence() {
  std::vector<Event> expected = {{Call::kRegister, 0}};
  for (int64_t t = 1; t <= kPeriods; ++t) {
    expected.push_back({Call::kBeginTick, t});
    expected.push_back({Call::kDeliver, t - 1});
    expected.push_back({Call::kEndTick, t});
  }
  return expected;
}

TEST(PipelineSinkContractTest, CallsRegisterThenBeginDeliverEndPerTick) {
  RecordingSink sink;
  const DeliveryMetrics delivery =
      RunPipeline(TestProtocolConfig(),
                  MakeWorkload(WorkloadKind::kUniformChanges, 1), 2, nullptr,
                  FaultOptions{}, sink)
          .ValueOrDie();
  EXPECT_EQ(sink.events, IdealSequence()) << ToString(sink.events);
  EXPECT_EQ(delivery.batches_sent, kPeriods);
}

TEST(PipelineSinkContractTest, JoinerRegistersBeforeItsBeginTick) {
  FaultOptions faults;
  faults.dedup = core::DedupPolicy::kIdempotent;
  RecordingSink sink;
  const DeliveryMetrics delivery =
      RunPipeline(TestProtocolConfig(), MakeWorkload(WorkloadKind::kChurn, 3),
                  4, nullptr, faults, sink)
          .ValueOrDie();
  ASSERT_GT(delivery.registrations_replayed, 0);

  // Every joiner Register(t) sits right after EndTick(t-1) and right
  // before BeginTick(t); without them the sequence is the ideal one.
  std::vector<Event> without_joiners;
  int64_t joiner_calls = 0;
  for (size_t i = 0; i < sink.events.size(); ++i) {
    const Event& event = sink.events[i];
    if (event.call != Call::kRegister || event.tick == 0) {
      without_joiners.push_back(event);
      continue;
    }
    ++joiner_calls;
    ASSERT_LT(i + 1, sink.events.size());
    EXPECT_EQ(sink.events[i + 1], (Event{Call::kBeginTick, event.tick}))
        << ToString(sink.events);
    EXPECT_EQ(sink.events[i - 1], (Event{Call::kEndTick, event.tick - 1}))
        << ToString(sink.events);
  }
  EXPECT_GT(joiner_calls, 0);
  EXPECT_EQ(without_joiners, IdealSequence()) << ToString(sink.events);
}

TEST(PipelineSinkContractTest, DelayedFlushIsDeliveredAfterTheLastEndTick) {
  FaultOptions faults;
  faults.dedup = core::DedupPolicy::kIdempotent;
  faults.channel.delay_rate = 0.5;
  faults.channel.delay_ticks_max = 3;
  ASSERT_TRUE(faults.Validate().ok());
  RecordingSink sink;
  const DeliveryMetrics delivery =
      RunPipeline(TestProtocolConfig(),
                  MakeWorkload(WorkloadKind::kUniformChanges, 5), 6, nullptr,
                  faults, sink)
          .ValueOrDie();
  ASSERT_GT(delivery.records_delayed, 0);

  std::vector<Event> expected = IdealSequence();
  expected.push_back({Call::kDeliver, kPeriods});
  EXPECT_EQ(sink.events, expected) << ToString(sink.events);
}

// Ships every batch over the wire encoding, as the benches do: encode,
// then DeliverEncodedWithRetransmission.
class EncodingSink final : public ReportSink {
 public:
  EncodingSink(const core::ProtocolConfig& config, int num_shards,
               const FaultOptions& faults, ThreadPool* pool)
      : aggregator_(core::ShardedAggregator::ForProtocol(
                        config, num_shards, faults.dedup, faults.dedup_window)
                        .ValueOrDie()),
        retransmit_budget_(faults.retransmit_budget),
        pool_(pool) {}

  Status Register(const std::vector<core::RegistrationMessage>& registrations,
                  int64_t /*tick*/) override {
    return aggregator_.IngestEncoded(
        core::EncodeRegistrationBatch(registrations), pool_);
  }
  Status Deliver(const core::ReportBatch& batch, int64_t /*batch_index*/,
                 ChannelModel* channel, DeliveryMetrics* delivery) override {
    FR_ASSIGN_OR_RETURN(const std::string bytes,
                        core::EncodeReportBatch(batch));
    return DeliverEncodedWithRetransmission(aggregator_, bytes, channel,
                                            retransmit_budget_, pool_,
                                            delivery);
  }

  core::ShardedAggregator& aggregator() { return aggregator_; }

 private:
  core::ShardedAggregator aggregator_;
  int64_t retransmit_budget_;
  ThreadPool* pool_;
};

// Runs every fleet kind both ways and compares them bit for bit; returns
// the NACKed deliveries summed over the kinds.
int64_t ExpectEncodedPathMatchesRunProtocol(ThreadPool* pool,
                                            int num_shards,
                                            const FaultOptions& faults) {
  const Workload workload = MakeWorkload(WorkloadKind::kUniformChanges, 11);
  int64_t fleet_kinds = 0;
  int64_t rejected = 0;
  for (const ProtocolKind kind : AllProtocolKinds()) {
    const Result<rand::RandomizerKind> randomizer =
        RandomizerForProtocol(kind);
    if (!randomizer.ok()) {
      continue;
    }
    ++fleet_kinds;
    SCOPED_TRACE(ProtocolKindToString(kind));
    core::ProtocolConfig config = TestProtocolConfig();
    config.randomizer = *randomizer;
    EncodingSink sink(config, num_shards, faults, pool);
    const DeliveryMetrics delivery =
        RunPipeline(config, workload, 12, pool, faults, sink).ValueOrDie();
    const RunResult reference =
        RunProtocol(kind, TestProtocolConfig(), workload, 12, pool,
                    num_shards, faults)
            .ValueOrDie();
    EXPECT_EQ(sink.aggregator().EstimateAll().ValueOrDie(),
              reference.estimates);
    EXPECT_EQ(delivery.records_sent, reference.reports_submitted);
    EXPECT_EQ(delivery.batches_checksum_rejected,
              reference.delivery.batches_checksum_rejected);
    EXPECT_EQ(delivery.batches_retransmitted,
              reference.delivery.batches_retransmitted);
    rejected += delivery.batches_checksum_rejected;
  }
  EXPECT_EQ(fleet_kinds, 7);
  return rejected;
}

TEST(PipelineEncodedSinkTest, MatchesRunProtocolSerial) {
  ExpectEncodedPathMatchesRunProtocol(nullptr, 1, FaultOptions{});
}

TEST(PipelineEncodedSinkTest, MatchesRunProtocolOnThreadPool) {
  ThreadPool pool(3);
  ExpectEncodedPathMatchesRunProtocol(&pool, 3, FaultOptions{});
}

// Under corruption both sinks draw the same channel (seeded by
// ChannelSeedForRun) over the same bytes, so even the NACK counters agree.
TEST(PipelineEncodedSinkTest, MatchesRunProtocolUnderCorruption) {
  FaultOptions faults;
  faults.channel.corrupt_rate = 0.3;
  ASSERT_TRUE(faults.Validate().ok());
  EXPECT_GT(ExpectEncodedPathMatchesRunProtocol(nullptr, 1, faults), 0);
}

}  // namespace
}  // namespace futurerand::sim
