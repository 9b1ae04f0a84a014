#include "futurerand/sim/runner.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "futurerand/central/tree_mechanism.h"
#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/erlingsson.h"
#include "futurerand/core/naive_rr.h"
#include "futurerand/core/reference.h"
#include "futurerand/core/wire.h"
#include "futurerand/sim/pipeline.h"

namespace futurerand::sim {

namespace {

// One shard per worker thread unless the caller pinned a count. Results are
// bit-identical for any shard count (integer report sums merge
// order-independently), so this is purely a throughput knob.
int EffectiveShards(ThreadPool* pool, int num_shards) {
  if (num_shards > 0) {
    return num_shards;
  }
  return pool != nullptr ? pool->num_threads() : 1;
}

// Collects the first error observed across worker threads.
class FirstError {
 public:
  void Record(Status status) {
    if (status.ok()) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (first_.ok()) {
      first_ = std::move(status);
    }
  }

  // Not synchronized; call after all workers have finished.
  const Status& Get() const { return first_; }

 private:
  std::mutex mutex_;
  Status first_;
};

// Runs a fleet pipeline (Algorithms 1+2, or a memoized longitudinal kind)
// with the sequence randomizer selected in `config`: the shared period loop
// (RunPipeline) streams every tick's batch into a local ShardedAggregator —
// through a lossy ChannelModel and periodic checkpoint/restore round-trips
// when `faults` asks for them.
Result<RunResult> RunHierarchical(const core::ProtocolConfig& config,
                                  const Workload& workload, uint64_t seed,
                                  ThreadPool* pool, int num_shards,
                                  const FaultOptions& faults) {
  FR_ASSIGN_OR_RETURN(
      InProcessSink sink,
      InProcessSink::Create(config, EffectiveShards(pool, num_shards), faults,
                            pool));
  RunResult result;
  FR_ASSIGN_OR_RETURN(result.delivery,
                      RunPipeline(config, workload, seed, pool, faults, sink));
  if (config.consistent_estimation) {
    FR_ASSIGN_OR_RETURN(result.estimates,
                        sink.aggregator().EstimateAllConsistent());
  } else {
    FR_ASSIGN_OR_RETURN(result.estimates, sink.aggregator().EstimateAll());
  }
  result.reports_submitted = result.delivery.records_sent;
  return result;
}

// The Section 6 baseline: clients are played per user (their sparsifying
// state machine is inherently sequential), but all aggregation goes through
// the thread-safe ShardedAggregator — each worker chunk registers its users
// and ingests its report batch, no caller-side shard bookkeeping.
Result<RunResult> RunErlingsson(const core::ProtocolConfig& config,
                                const Workload& workload, uint64_t seed,
                                ThreadPool* pool, int num_shards) {
  FR_ASSIGN_OR_RETURN(std::vector<double> scales,
                      core::ErlingssonLevelScales(config));
  FR_ASSIGN_OR_RETURN(core::ShardedAggregator aggregator,
                      core::ShardedAggregator::WithScales(
                          config.num_periods, std::move(scales),
                          EffectiveShards(pool, num_shards),
                          core::DedupPolicy::kStrict, {}, config.store));

  const Rng base(seed);
  std::atomic<int64_t> reports{0};
  FirstError first_error;
  auto process_range = [&](int64_t begin, int64_t end) {
    // One pass, one live client at a time: both batches are ingested only
    // at chunk end (registrations first), so a client can be created,
    // played through all d periods, and dropped.
    std::vector<core::RegistrationMessage> registrations;
    std::vector<core::ReportMessage> batch;
    registrations.reserve(static_cast<size_t>(end - begin));
    for (int64_t u = begin; u < end; ++u) {
      auto client = core::ErlingssonClient::Create(
          config, base.Fork(static_cast<uint64_t>(u)).NextUint64());
      if (!client.ok()) {
        first_error.Record(client.status());
        return;
      }
      registrations.push_back(
          core::RegistrationMessage{u, client->level()});
      const UserTrace& trace = workload.trace(u);
      size_t next_change = 0;
      int8_t state = 0;
      for (int64_t t = 1; t <= config.num_periods; ++t) {
        if (next_change < trace.change_times.size() &&
            trace.change_times[next_change] == t) {
          state = static_cast<int8_t>(1 - state);
          ++next_change;
        }
        auto report = client->ObserveState(state);
        if (!report.ok()) {
          first_error.Record(report.status());
          return;
        }
        if (report->has_value()) {
          batch.push_back(core::ReportMessage{u, t, **report});
        }
      }
    }
    Status registered = aggregator.IngestRegistrations(registrations);
    if (!registered.ok()) {
      first_error.Record(std::move(registered));
      return;
    }
    Status ingested = aggregator.IngestReports(batch);
    if (!ingested.ok()) {
      first_error.Record(std::move(ingested));
      return;
    }
    reports.fetch_add(static_cast<int64_t>(batch.size()));
  };

  if (pool != nullptr && workload.num_users() > 1) {
    pool->ParallelFor(workload.num_users(), process_range);
  } else {
    process_range(0, workload.num_users());
  }
  FR_RETURN_NOT_OK(first_error.Get());

  RunResult result;
  FR_ASSIGN_OR_RETURN(result.estimates, aggregator.EstimateAll());
  result.reports_submitted = reports.load();
  return result;
}

// The intro strawman. Reports carry no client identity and arrive every
// period, so workers accumulate per-period sums client-side and hand the
// server one batch each (IngestReportSums) — no per-thread server clones.
Result<RunResult> RunNaiveRR(const core::ProtocolConfig& config,
                             const Workload& workload, uint64_t seed,
                             ThreadPool* pool, int /*num_shards*/) {
  FR_ASSIGN_OR_RETURN(core::NaiveRRServer server,
                      core::NaiveRRServer::Create(config));
  std::mutex server_mutex;
  const Rng base(seed);
  std::atomic<int64_t> reports{0};
  FirstError first_error;
  auto process_range = [&](int64_t begin, int64_t end) {
    std::vector<int64_t> sums(static_cast<size_t>(config.num_periods), 0);
    for (int64_t u = begin; u < end; ++u) {
      auto client = core::NaiveRRClient::Create(
          config, base.Fork(static_cast<uint64_t>(u)).NextUint64());
      if (!client.ok()) {
        first_error.Record(client.status());
        return;
      }
      const UserTrace& trace = workload.trace(u);
      size_t next_change = 0;
      int8_t state = 0;
      for (int64_t t = 1; t <= config.num_periods; ++t) {
        if (next_change < trace.change_times.size() &&
            trace.change_times[next_change] == t) {
          state = static_cast<int8_t>(1 - state);
          ++next_change;
        }
        auto report = client->ObserveState(state);
        if (!report.ok()) {
          first_error.Record(report.status());
          return;
        }
        sums[static_cast<size_t>(t - 1)] += *report;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(server_mutex);
      Status ingested = server.IngestReportSums(sums, end - begin);
      if (!ingested.ok()) {
        first_error.Record(std::move(ingested));
        return;
      }
    }
    reports.fetch_add((end - begin) * config.num_periods);
  };

  if (pool != nullptr && workload.num_users() > 1) {
    pool->ParallelFor(workload.num_users(), process_range);
  } else {
    process_range(0, workload.num_users());
  }
  FR_RETURN_NOT_OK(first_error.Get());

  RunResult result;
  FR_ASSIGN_OR_RETURN(result.estimates, server.EstimateAll());
  result.reports_submitted = reports.load();
  return result;
}

Result<RunResult> RunCentralTree(const core::ProtocolConfig& config,
                                 const Workload& workload, uint64_t seed) {
  FR_ASSIGN_OR_RETURN(
      central::TreeMechanism mechanism,
      central::TreeMechanism::Create(config.num_periods, config.max_changes,
                                     config.epsilon, seed));
  // The trusted curator sees the exact aggregate derivative.
  const std::vector<int64_t>& truth = workload.ground_truth();
  int64_t previous = 0;
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    const int64_t current = truth[static_cast<size_t>(t - 1)];
    FR_RETURN_NOT_OK(
        mechanism.ObserveAggregateDerivative(t, current - previous));
    previous = current;
  }
  RunResult result;
  FR_ASSIGN_OR_RETURN(result.estimates, mechanism.EstimateAll());
  result.reports_submitted = config.num_periods;
  return result;
}

Result<RunResult> RunNonPrivate(const core::ProtocolConfig& config,
                                const Workload& workload) {
  FR_ASSIGN_OR_RETURN(core::ReferenceAggregator aggregator,
                      core::ReferenceAggregator::Create(config.num_periods));
  for (int64_t u = 0; u < workload.num_users(); ++u) {
    const UserTrace& trace = workload.trace(u);
    for (size_t i = 0; i < trace.change_times.size(); ++i) {
      FR_RETURN_NOT_OK(aggregator.ObserveDerivative(
          trace.change_times[i], (i % 2 == 0) ? int8_t{1} : int8_t{-1}));
    }
  }
  RunResult result;
  result.estimates.reserve(static_cast<size_t>(config.num_periods));
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    FR_ASSIGN_OR_RETURN(int64_t count, aggregator.CountAt(t));
    result.estimates.push_back(static_cast<double>(count));
  }
  result.reports_submitted = 0;
  return result;
}

}  // namespace

// The retry trigger is the receiver's own verdict (NACK-style): every
// in-flight garble — checksum or header — fails with kDataLoss and nothing
// of the batch is applied, so a resend under any DedupPolicy is exact.
// Every attempt re-traverses the channel: a Gilbert-Elliott burst can
// reject attempts in a row.
Status DeliverEncodedWithRetransmission(core::ShardedAggregator& aggregator,
                                        const std::string& pristine,
                                        ChannelModel* channel,
                                        int64_t retransmit_budget,
                                        ThreadPool* pool,
                                        DeliveryMetrics* delivery) {
  const bool can_corrupt =
      channel != nullptr && channel->config().can_corrupt();
  auto attempt = [&]() -> Result<bool> {
    core::IngestOutcome outcome;
    Status ingested;
    if (can_corrupt) {
      // Corruption mutates a copy so the pristine bytes stay available
      // for a retransmission; skip the copy when no fault can occur.
      std::string bytes = pristine;
      channel->MaybeCorrupt(&bytes);
      ingested = aggregator.IngestEncoded(bytes, pool, &outcome);
    } else {
      ingested = aggregator.IngestEncoded(pristine, pool, &outcome);
    }
    delivery->records_applied += outcome.applied;
    delivery->records_deduped += outcome.deduped;
    delivery->records_out_of_window += outcome.out_of_window;
    if (ingested.ok()) {
      return true;
    }
    if (ingested.code() != StatusCode::kDataLoss) {
      return ingested;
    }
    ++delivery->batches_checksum_rejected;
    return false;
  };
  return RetransmitLoop(retransmit_budget, attempt, delivery);
}

Status RetransmitLoop(int64_t retransmit_budget,
                      const std::function<Result<bool>()>& attempt,
                      DeliveryMetrics* delivery) {
  // Budget semantics (pinned by channel_test.RetransmitBudgetMeans
  // TotalTransmissions): `retransmit_budget` bounds TOTAL transmissions,
  // so the loop runs the initial attempt plus at most budget - 1 resends.
  for (int64_t transmissions = 1;; ++transmissions) {
    FR_ASSIGN_OR_RETURN(const bool accepted, attempt());
    if (accepted) {
      return Status::OK();
    }
    if (transmissions >= retransmit_budget) {
      return Status::DataLoss(
          "retransmit budget exhausted: " +
          std::to_string(retransmit_budget) +
          " consecutive deliveries of one batch were rejected as corrupt "
          "(raise the retransmit budget or shorten the burst)");
    }
    ++delivery->batches_retransmitted;
  }
}

Status FaultOptions::Validate() const {
  FR_RETURN_NOT_OK(channel.Validate());
  FR_RETURN_NOT_OK(dedup_window.Validate(dedup));
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (checkpoint_mode == core::CheckpointMode::kDelta &&
      checkpoint_compact_every < 1) {
    // Only delta mode reads the compaction cadence (runner.h documents it
    // as ignored under kFull).
    return Status::InvalidArgument("checkpoint_compact_every must be >= 1");
  }
  if (retransmit_budget < 1) {
    return Status::InvalidArgument("retransmit_budget must be >= 1");
  }
  if ((channel.duplicate_rate > 0.0 || channel.delay_rate > 0.0) &&
      dedup != core::DedupPolicy::kIdempotent) {
    return Status::InvalidArgument(
        "duplicate/delay faults require DedupPolicy::kIdempotent (both "
        "deliver a client's reports out of order or more than once)");
  }
  return Status::OK();
}

const char* ProtocolKindToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFutureRand:
      return "future_rand";
    case ProtocolKind::kIndependent:
      return "independent";
    case ProtocolKind::kBun:
      return "bun";
    case ProtocolKind::kAdaptive:
      return "adaptive";
    case ProtocolKind::kErlingsson:
      return "erlingsson";
    case ProtocolKind::kNaiveRR:
      return "naive_rr";
    case ProtocolKind::kCentralTree:
      return "central_tree";
    case ProtocolKind::kLGrr:
      return "lgrr";
    case ProtocolKind::kLOlh:
      return "lolh";
    case ProtocolKind::kLoloha:
      return "loloha";
    case ProtocolKind::kNonPrivate:
      return "non_private";
  }
  return "unknown";
}

Result<ProtocolKind> ParseProtocolKind(const std::string& name) {
  for (ProtocolKind kind : AllProtocolKinds()) {
    if (name == ProtocolKindToString(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown protocol: " + name);
}

Result<rand::RandomizerKind> RandomizerForProtocol(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFutureRand:
      return rand::RandomizerKind::kFutureRand;
    case ProtocolKind::kIndependent:
      return rand::RandomizerKind::kIndependent;
    case ProtocolKind::kBun:
      return rand::RandomizerKind::kBun;
    case ProtocolKind::kAdaptive:
      return rand::RandomizerKind::kAdaptive;
    case ProtocolKind::kLGrr:
      return rand::RandomizerKind::kLGrr;
    case ProtocolKind::kLOlh:
      return rand::RandomizerKind::kLOlh;
    case ProtocolKind::kLoloha:
      return rand::RandomizerKind::kLoloha;
    case ProtocolKind::kErlingsson:
    case ProtocolKind::kNaiveRR:
    case ProtocolKind::kCentralTree:
    case ProtocolKind::kNonPrivate:
      break;
  }
  std::string message = ProtocolKindToString(kind);
  message +=
      " has no sequence randomizer; the fleet pipelines are future_rand | "
      "independent | bun | adaptive | lgrr | lolh | loloha";
  return Status::InvalidArgument(std::move(message));
}

Result<RunResult> RunProtocol(ProtocolKind kind,
                              const core::ProtocolConfig& config,
                              const Workload& workload, uint64_t seed,
                              ThreadPool* pool, int num_shards,
                              const FaultOptions& faults) {
  FR_RETURN_NOT_OK(config.Validate());
  FR_RETURN_NOT_OK(faults.Validate());
  if (workload.config().num_periods != config.num_periods) {
    return Status::InvalidArgument("workload/config num_periods mismatch");
  }
  if (num_shards < 0) {
    return Status::InvalidArgument("num_shards must be >= 0");
  }
  // The longitudinal pipelines ride the same fleet -> wire -> aggregator
  // path as the dyadic ones (every client at level 0), so they inherit the
  // whole fault-injection surface for free.
  const Result<rand::RandomizerKind> randomizer = RandomizerForProtocol(kind);
  if (faults.active() && !randomizer.ok()) {
    return Status::InvalidArgument(
        "fault injection is only supported on the hierarchical pipelines");
  }

  WallTimer timer;
  Result<RunResult> outcome = Status::Internal("unreachable");
  if (randomizer.ok()) {
    core::ProtocolConfig effective = config;
    effective.randomizer = *randomizer;
    outcome =
        RunHierarchical(effective, workload, seed, pool, num_shards, faults);
  } else {
    switch (kind) {
      case ProtocolKind::kErlingsson:
        outcome = RunErlingsson(config, workload, seed, pool, num_shards);
        break;
      case ProtocolKind::kNaiveRR:
        outcome = RunNaiveRR(config, workload, seed, pool, num_shards);
        break;
      case ProtocolKind::kCentralTree:
        outcome = RunCentralTree(config, workload, seed);
        break;
      case ProtocolKind::kNonPrivate:
        outcome = RunNonPrivate(config, workload);
        break;
      default:  // the fleet pipelines, handled above
        break;
    }
  }
  FR_ASSIGN_OR_RETURN(RunResult result, std::move(outcome));
  result.wall_seconds = timer.ElapsedSeconds();
  result.metrics =
      ComputeErrorMetrics(result.estimates, workload.ground_truth());
  return result;
}

Result<RepeatedRunStats> RunRepeated(ProtocolKind kind,
                                     const core::ProtocolConfig& config,
                                     const WorkloadConfig& workload_config,
                                     int repetitions, uint64_t base_seed,
                                     ThreadPool* pool, int num_shards,
                                     const FaultOptions& faults) {
  if (repetitions < 1) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  RepeatedRunStats stats;
  for (int r = 0; r < repetitions; ++r) {
    const uint64_t workload_seed =
        base_seed + 2 * static_cast<uint64_t>(r) + 1;
    const uint64_t protocol_seed =
        base_seed + 2 * static_cast<uint64_t>(r) + 2;
    FR_ASSIGN_OR_RETURN(Workload workload,
                        Workload::Generate(workload_config, workload_seed));
    FR_ASSIGN_OR_RETURN(
        RunResult run,
        RunProtocol(kind, config, workload, protocol_seed, pool,
                    num_shards, faults));
    stats.max_abs_error.Add(run.metrics.max_abs);
    stats.mean_abs_error.Add(run.metrics.mean_abs);
    stats.rmse.Add(run.metrics.rmse);
    stats.total_wall_seconds += run.wall_seconds;
    ++stats.repetitions;
  }
  return stats;
}

}  // namespace futurerand::sim
