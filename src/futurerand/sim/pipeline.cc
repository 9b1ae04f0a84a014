#include "futurerand/sim/pipeline.h"

#include <optional>
#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::sim {

Result<DeliveryMetrics> RunPipeline(const core::ProtocolConfig& config,
                                    const Workload& workload, uint64_t seed,
                                    ThreadPool* pool,
                                    const FaultOptions& faults,
                                    ReportSink& sink) {
  const int64_t n = workload.num_users();
  FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                      core::ClientFleet::Create(config, n, seed, pool));
  FR_RETURN_NOT_OK(sink.Register(fleet.registrations(), /*tick=*/0));

  std::optional<ChannelModel> channel;
  if (faults.channel.enabled()) {
    channel.emplace(faults.channel, ChannelSeedForRun(seed));
  }

  DeliveryMetrics delivery;

  // Churn workloads carry per-user presence windows: a joiner (join > 1)
  // re-registers at its join tick, exactly as a device coming online
  // mid-collection would. The duplicate registration is absorbed by
  // kIdempotent dedup (under kStrict it would be an ingest error, so the
  // replay only runs there), and it rides the v-versioned registration
  // framing but NOT the lossy channel — registration is control-plane
  // traffic with its own reliable path, and keeping it off the channel
  // leaves the channel's RNG stream untouched, which is what makes a churn
  // run bit-identical to its truncated-trace twin.
  std::vector<std::vector<int64_t>> joiners_by_tick;
  const bool replay_joins = workload.has_presence() &&
                            faults.dedup == core::DedupPolicy::kIdempotent;
  if (replay_joins) {
    joiners_by_tick.resize(static_cast<size_t>(config.num_periods) + 1);
    const std::vector<PresenceWindow>& presence = workload.presence();
    for (int64_t u = 0; u < n; ++u) {
      const int64_t join = presence[static_cast<size_t>(u)].join;
      if (join > 1) {
        joiners_by_tick[static_cast<size_t>(join)].push_back(u);
      }
    }
  }

  // The workload stores per-user change times; play them as a sequence of
  // state vectors, one tick at a time.
  std::vector<int8_t> states(static_cast<size_t>(n), 0);
  std::vector<size_t> next_change(static_cast<size_t>(n), 0);
  core::ReportBatch batch;
  core::ReportBatch delivered;
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    auto update_states = [&](int64_t begin, int64_t end) {
      for (int64_t u = begin; u < end; ++u) {
        const auto i = static_cast<size_t>(u);
        const std::vector<int64_t>& changes =
            workload.trace(u).change_times;
        if (next_change[i] < changes.size() &&
            changes[next_change[i]] == t) {
          states[i] = static_cast<int8_t>(1 - states[i]);
          ++next_change[i];
        }
      }
    };
    if (pool != nullptr && n > 1) {
      pool->ParallelFor(n, update_states);
    } else {
      update_states(0, n);
    }
    if (replay_joins && !joiners_by_tick[static_cast<size_t>(t)].empty()) {
      // This tick's joiners announce themselves before their first report.
      std::vector<core::RegistrationMessage> reregistrations;
      for (const int64_t u : joiners_by_tick[static_cast<size_t>(t)]) {
        reregistrations.push_back(
            fleet.registrations()[static_cast<size_t>(u)]);
      }
      FR_RETURN_NOT_OK(sink.Register(reregistrations, t));
      delivery.registrations_replayed +=
          static_cast<int64_t>(reregistrations.size());
    }
    FR_RETURN_NOT_OK(fleet.AdvanceTick(states, &batch));
    if (channel.has_value()) {
      channel->Transmit(batch, &delivered);
      FR_RETURN_NOT_OK(sink.Deliver(delivered, t - 1, &*channel, &delivery));
    } else {
      delivery.records_sent += static_cast<int64_t>(batch.size());
      FR_RETURN_NOT_OK(sink.Deliver(batch, t - 1, nullptr, &delivery));
    }
    FR_RETURN_NOT_OK(sink.EndTick(t, &delivery));
  }

  if (channel.has_value() && faults.channel.delay_rate > 0.0) {
    // Records still lagging in the channel after the final tick: deliver
    // them now (late, out of order — kIdempotent absorbs the skew) so
    // latency never silently loses mass.
    channel->FlushDelayed(&delivered);
    if (!delivered.empty()) {
      FR_RETURN_NOT_OK(sink.Deliver(delivered, config.num_periods,
                                    &*channel, &delivery));
    }
  }

  if (channel.has_value()) {
    const DeliveryMetrics& channel_stats = channel->stats();
    delivery.records_sent = channel_stats.records_sent;
    delivery.records_dropped = channel_stats.records_dropped;
    delivery.records_outage_dropped = channel_stats.records_outage_dropped;
    delivery.records_duplicated = channel_stats.records_duplicated;
    delivery.records_delayed = channel_stats.records_delayed;
    delivery.records_delivered = channel_stats.records_delivered;
    delivery.batches_sent = channel_stats.batches_sent;
    delivery.batches_reordered = channel_stats.batches_reordered;
    delivery.batches_corrupted = channel_stats.batches_corrupted;
    delivery.batches_in_burst = channel_stats.batches_in_burst;
    delivery.client_outages = channel_stats.client_outages;
  } else {
    delivery.records_delivered = delivery.records_sent;
    delivery.batches_sent = config.num_periods;
  }
  return delivery;
}

Result<InProcessSink> InProcessSink::Create(const core::ProtocolConfig& config,
                                            int num_shards,
                                            const FaultOptions& faults,
                                            ThreadPool* pool) {
  FR_ASSIGN_OR_RETURN(
      core::ShardedAggregator aggregator,
      core::ShardedAggregator::ForProtocol(config, num_shards, faults.dedup,
                                           faults.dedup_window));
  return InProcessSink(config, num_shards, faults, pool,
                       std::move(aggregator));
}

Status InProcessSink::Register(
    const std::vector<core::RegistrationMessage>& registrations,
    int64_t tick) {
  if (tick == 0) {
    return aggregator_.IngestRegistrations(registrations, pool_);
  }
  // A mid-stream joiner re-registers over the wire framing, as it would
  // from a real device.
  const std::string encoded = core::EncodeRegistrationBatch(registrations);
  core::IngestOutcome outcome;
  return aggregator_.IngestEncoded(encoded, pool_, &outcome);
}

Status InProcessSink::Deliver(const core::ReportBatch& batch,
                              int64_t /*batch_index*/, ChannelModel* channel,
                              DeliveryMetrics* delivery) {
  if (channel == nullptr) {
    core::IngestOutcome outcome;
    FR_RETURN_NOT_OK(aggregator_.IngestReports(batch, pool_, &outcome));
    delivery->records_applied += outcome.applied;
    delivery->records_deduped += outcome.deduped;
    delivery->records_out_of_window += outcome.out_of_window;
    return Status::OK();
  }
  FR_ASSIGN_OR_RETURN(const std::string pristine,
                      core::EncodeReportBatch(batch));
  return DeliverEncodedWithRetransmission(aggregator_, pristine, channel,
                                          faults_.retransmit_budget, pool_,
                                          delivery);
}

Status InProcessSink::EndTick(int64_t tick, DeliveryMetrics* delivery) {
  if (faults_.checkpoint_every <= 0 || tick % faults_.checkpoint_every != 0) {
    return Status::OK();
  }
  // Extend the durable chain: a full compaction blob every
  // checkpoint_compact_every checkpoints (always, under kFull mode and for
  // the very first checkpoint), a delta of the dirtied shards otherwise.
  const bool full =
      faults_.checkpoint_mode == core::CheckpointMode::kFull ||
      checkpoint_base_.empty() ||
      delivery->checkpoints_taken % faults_.checkpoint_compact_every == 0;
  if (full) {
    FR_ASSIGN_OR_RETURN(checkpoint_base_,
                        aggregator_.Checkpoint(core::CheckpointMode::kFull));
    checkpoint_deltas_.clear();
    delivery->checkpoint_bytes += static_cast<int64_t>(checkpoint_base_.size());
  } else {
    FR_ASSIGN_OR_RETURN(std::string delta,
                        aggregator_.Checkpoint(core::CheckpointMode::kDelta));
    delivery->checkpoint_bytes += static_cast<int64_t>(delta.size());
    delivery->delta_checkpoint_bytes += static_cast<int64_t>(delta.size());
    ++delivery->delta_checkpoints_taken;
    checkpoint_deltas_.push_back(std::move(delta));
  }
  ++delivery->checkpoints_taken;
  // Simulated crash/restart: rebuild from scratch and replay the whole
  // chain — base blob first, then every delta in order. The restored
  // aggregator adopts the chain position, so subsequent deltas keep
  // extending it.
  FR_ASSIGN_OR_RETURN(
      core::ShardedAggregator restored,
      core::ShardedAggregator::ForProtocol(config_, num_shards_, faults_.dedup,
                                           faults_.dedup_window));
  FR_RETURN_NOT_OK(restored.Restore(checkpoint_base_));
  for (const std::string& delta : checkpoint_deltas_) {
    FR_RETURN_NOT_OK(restored.Restore(delta));
  }
  aggregator_ = std::move(restored);
  return Status::OK();
}

}  // namespace futurerand::sim
