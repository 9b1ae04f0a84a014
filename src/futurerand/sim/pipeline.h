// The one fleet -> wire -> aggregator period loop. RunPipeline plays a
// workload through a core::ClientFleet tick by tick and hands every batch
// to a ReportSink, which holds all that differs between the front ends:
// InProcessSink (below) backs sim::RunProtocol, net::StreamSink
// (net/client.h) backs tools/frload, and bench::StageTimingSink
// (bench/bench_common.h) backs bench_throughput and bench_shootout.
// Sharing the loop keeps the fleet's and the channel's draws in the same
// order, so `frload --verify` holds by construction.

#ifndef FUTURERAND_SIM_PIPELINE_H_
#define FUTURERAND_SIM_PIPELINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {

/// Where RunPipeline's batches go, called in run order.
class ReportSink {
 public:
  virtual ~ReportSink() = default;

  /// Ships a registration batch: the whole fleet's at `tick` 0, then a
  /// churn workload's joiners at their join tick (kIdempotent runs only).
  /// Registrations are control-plane traffic and never cross the channel.
  virtual Status Register(
      const std::vector<core::RegistrationMessage>& registrations,
      int64_t tick) = 0;

  /// Runs once per tick t = 1..d, after the state step and any joiner
  /// Register(t), right before the fleet advances to tick t.
  virtual void BeginTick(int64_t /*tick*/) {}

  /// Delivers one report batch. `batch_index` is t - 1 for tick t and d
  /// for the delayed records flushed after the last tick. `channel` is
  /// null on an ideal transport; otherwise every delivery attempt
  /// re-traverses it for in-flight corruption. Outcome and retransmission
  /// counters accumulate in `delivery`.
  virtual Status Deliver(const core::ReportBatch& batch, int64_t batch_index,
                         ChannelModel* channel,
                         DeliveryMetrics* delivery) = 0;

  /// Runs after tick `tick`'s batch has been delivered.
  virtual Status EndTick(int64_t /*tick*/, DeliveryMetrics* /*delivery*/) {
    return Status::OK();
  }
};

/// Plays `workload` through a ClientFleet built from `config` and `seed`
/// (which also seeds the channel, via ChannelSeedForRun) into `sink`, and
/// returns the transport counters; records_sent is the run's report count.
/// `pool` may be null; `faults` must already be validated.
Result<DeliveryMetrics> RunPipeline(const core::ProtocolConfig& config,
                                    const Workload& workload, uint64_t seed,
                                    ThreadPool* pool,
                                    const FaultOptions& faults,
                                    ReportSink& sink);

/// Ingests into a local ShardedAggregator: as records on an ideal channel,
/// otherwise over the real wire encoding through
/// DeliverEncodedWithRetransmission, so corruption hits actual bytes. With
/// faults.checkpoint_every set, EndTick extends a checkpoint chain and
/// restores a fresh aggregator from it (mid-stream recovery).
class InProcessSink final : public ReportSink {
 public:
  static Result<InProcessSink> Create(const core::ProtocolConfig& config,
                                      int num_shards,
                                      const FaultOptions& faults,
                                      ThreadPool* pool);

  Status Register(const std::vector<core::RegistrationMessage>& registrations,
                  int64_t tick) override;
  Status Deliver(const core::ReportBatch& batch, int64_t batch_index,
                 ChannelModel* channel, DeliveryMetrics* delivery) override;
  Status EndTick(int64_t tick, DeliveryMetrics* delivery) override;

  core::ShardedAggregator& aggregator() { return aggregator_; }

 private:
  InProcessSink(const core::ProtocolConfig& config, int num_shards,
                const FaultOptions& faults, ThreadPool* pool,
                core::ShardedAggregator aggregator)
      : config_(config),
        num_shards_(num_shards),
        faults_(faults),
        pool_(pool),
        aggregator_(std::move(aggregator)) {}

  core::ProtocolConfig config_;
  int num_shards_;
  FaultOptions faults_;
  ThreadPool* pool_;
  core::ShardedAggregator aggregator_;
  // The durable checkpoint chain a crashed collector would replay: the
  // last full (compaction) blob plus every delta taken since.
  std::string checkpoint_base_;
  std::vector<std::string> checkpoint_deltas_;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_PIPELINE_H_
