// Shared helpers for the experiment harnesses.

#ifndef FUTURERAND_BENCH_BENCH_COMMON_H_
#define FUTURERAND_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "futurerand/common/json.h"
#include "futurerand/common/macros.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/wire.h"
#include "futurerand/sim/pipeline.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::bench {

// Flag parsing for protocol / randomizer names goes through the library's
// shared sim::ParseProtocolKind and rand::ParseRandomizerKind (backed by
// the AllProtocolKinds / AllRandomizerKinds arrays) — harnesses never
// re-enumerate the kinds by hand.

/// The shared JSON emitter lives in the library now (the frserve/frload
/// tools emit the same schema); the bench namespace keeps its old name.
using JsonLine = ::futurerand::JsonLine;

inline core::ProtocolConfig MakeConfig(int64_t d, int64_t k, double eps) {
  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  return config;
}

inline sim::WorkloadConfig MakeWorkload(sim::WorkloadKind kind, int64_t n,
                                        int64_t d, int64_t k) {
  sim::WorkloadConfig config;
  config.kind = kind;
  config.num_users = n;
  config.num_periods = d;
  config.max_changes = k;
  return config;
}

/// Mean max-error over `reps` repetitions (fresh workload + protocol seeds).
inline double MeanMaxError(sim::ProtocolKind protocol,
                           const core::ProtocolConfig& config,
                           const sim::WorkloadConfig& workload, int reps,
                           uint64_t seed, ThreadPool* pool) {
  auto stats =
      sim::RunRepeated(protocol, config, workload, reps, seed, pool);
  FR_CHECK_OK(stats.status());
  return stats->max_abs_error.mean();
}

/// Wall seconds per pipeline stage of one sim::RunPipeline run.
struct StageSeconds {
  double create = 0.0;  // ClientFleet::Create
  double states = 0.0;  // stepping the per-user states
  double tick = 0.0;    // ClientFleet::AdvanceTick (+ the channel's draws)
  double encode = 0.0;  // EncodeReportBatch
  double ingest = 0.0;  // IngestEncoded, retransmissions included
};

/// The benches' sim::ReportSink: encodes every batch and ships it into a
/// local ShardedAggregator through sim::DeliverEncodedWithRetransmission
/// (the channel is null on an ideal transport). Each wall-clock interval
/// goes to the stage RunPipeline was in when it ended: construction ->
/// Register(0) is create, Deliver/Register -> BeginTick is states,
/// BeginTick -> Deliver is tick, and Deliver splits into encode and ingest.
/// Construct it right before RunPipeline. Registration bytes count in
/// wire_bytes(), their time in no stage.
class StageTimingSink final : public sim::ReportSink {
 public:
  /// `aggregator` takes the run's dedup settings; `faults` gives the
  /// retransmit budget.
  StageTimingSink(core::ShardedAggregator aggregator,
                  const sim::FaultOptions& faults, ThreadPool* pool)
      : aggregator_(std::move(aggregator)),
        retransmit_budget_(faults.retransmit_budget),
        pool_(pool) {}

  Status Register(const std::vector<core::RegistrationMessage>& registrations,
                  int64_t tick) override {
    Lap(tick == 0 ? seconds_.create : seconds_.states);
    const std::string bytes = core::EncodeRegistrationBatch(registrations);
    wire_bytes_ += static_cast<int64_t>(bytes.size());
    const Status ingested = aggregator_.IngestEncoded(bytes, pool_);
    clock_.Restart();
    return ingested;
  }

  void BeginTick(int64_t /*tick*/) override { Lap(seconds_.states); }

  Status Deliver(const core::ReportBatch& batch, int64_t /*batch_index*/,
                 sim::ChannelModel* channel,
                 sim::DeliveryMetrics* delivery) override {
    Lap(seconds_.tick);
    FR_ASSIGN_OR_RETURN(const std::string bytes,
                        core::EncodeReportBatch(batch));
    wire_bytes_ += static_cast<int64_t>(bytes.size());
    Lap(seconds_.encode);
    const Status delivered = sim::DeliverEncodedWithRetransmission(
        aggregator_, bytes, channel, retransmit_budget_, pool_, delivery);
    Lap(seconds_.ingest);
    return delivered;
  }

  core::ShardedAggregator& aggregator() { return aggregator_; }
  const StageSeconds& seconds() const { return seconds_; }
  /// Encoded bytes shipped: registrations plus every report batch once
  /// (retransmissions resend the same bytes and are not recounted).
  int64_t wire_bytes() const { return wire_bytes_; }

 private:
  // Closes the running interval into `stage` and starts the next one.
  void Lap(double& stage) {
    stage += clock_.ElapsedSeconds();
    clock_.Restart();
  }

  core::ShardedAggregator aggregator_;
  int64_t retransmit_budget_;
  ThreadPool* pool_;
  StageSeconds seconds_;
  int64_t wire_bytes_ = 0;
  WallTimer clock_;
};

}  // namespace futurerand::bench

#endif  // FUTURERAND_BENCH_BENCH_COMMON_H_
