// The in-process workload, online_scale: the whole fleet -> wire ->
// aggregator pipeline of the online protocol in one process, closed loop.
// Each period steps the workload states, advances the fleet, ships the
// tick's reports as fixed-size wire batches (encode, then IngestEncoded)
// and asks for the period's estimate before the next period starts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "futurerand/analysis/theory.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace futurerand;

struct Shape {
  int64_t n = kClients;
  int64_t d = 256;
  int64_t k = 4;
  double eps = 1.0;
  int64_t batch_records = kBatchRecords;
};

Shape ShapeFor(const Options& options) {
  Shape shape;
  if (options.tiny) {
    shape.n = kTinyClients;
    shape.batch_records = kTinyBatchRecords;
  }
  return shape;
}

class InProcessRun {
 public:
  InProcessRun(const Options& options, const Shape& shape)
      : options_(options),
        shape_(shape),
        tracer_(options.trace),
        log_(tracer_.NewThreadLog()) {
    config_.num_periods = shape.d;
    config_.max_changes = shape.k;
    config_.epsilon = shape.eps;
  }

  Status Run(RunReport* report);

 private:
  Status SetUp(ThreadLog* log, bool with_shadow);
  Status RunPass(ThreadLog* log);
  // Checkpoint(kFull) + Restore into a fresh aggregator, a few times.
  Status Recover(ThreadLog* log);
  Status RestoreFromFile();
  void CheckCorrectness(RunReport* report);

  const Options& options_;
  const Shape shape_;
  core::ProtocolConfig config_;
  Tracer tracer_;
  ThreadLog* log_;  // the main thread's spans; null when untraced
  std::optional<sim::Workload> workload_;

  // The current set-up; replaced before each pass.
  std::optional<core::ClientFleet> fleet_;
  std::optional<core::ShardedAggregator> aggregator_;
  std::optional<core::ShardedAggregator> serial_shadow_;

  std::vector<double> setup_seconds_;
  std::vector<double> create_seconds_;
  std::vector<int64_t> batch_latencies_;  // full batches, ready -> accepted
  std::vector<double> recovery_seconds_;
  std::string checkpoint_;  // the last full checkpoint blob
  int64_t next_batch_id_ = 0;
  int64_t pass_reports_ = 0;
  int64_t pass_applied_ = 0;
  int64_t pass_wire_bytes_ = 0;
  int64_t batches_ = 0;
};

Status InProcessRun::SetUp(ThreadLog* log, bool with_shadow) {
  // Free the previous set-up first, so set-ups never overlap in memory.
  serial_shadow_.reset();
  aggregator_.reset();
  fleet_.reset();
  const uint64_t fleet_seed = DeriveSeed(options_.seed, 1);
  const int64_t start = NowNs();
  {
    SpanScope span(log, "fleet.create", -1, shape_.n);
    FR_ASSIGN_OR_RETURN(
        core::ClientFleet fleet,
        core::ClientFleet::Create(config_, shape_.n, fleet_seed, nullptr));
    fleet_.emplace(std::move(fleet));
  }
  create_seconds_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  FR_ASSIGN_OR_RETURN(
      core::ShardedAggregator aggregator,
      core::ShardedAggregator::ForProtocol(config_, 1));
  aggregator_.emplace(std::move(aggregator));
  std::string registrations;
  {
    SpanScope span(log, "wire.encode_registrations", -1, shape_.n);
    registrations = fleet_->EncodeRegistrations();
  }
  {
    SpanScope span(log, "aggregator.register", -1, shape_.n);
    FR_RETURN_NOT_OK(aggregator_->IngestEncoded(registrations, nullptr));
  }
  setup_seconds_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  if (with_shadow) {
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator shadow,
                        core::ShardedAggregator::ForProtocol(config_, 1));
    serial_shadow_.emplace(std::move(shadow));
    FR_RETURN_NOT_OK(serial_shadow_->IngestEncoded(registrations, nullptr));
  }
  return Status::OK();
}

Status InProcessRun::RunPass(ThreadLog* log) {
  SpanScope pass_span(log, "loop.pass");
  pass_reports_ = 0;
  pass_applied_ = 0;
  pass_wire_bytes_ = 0;
  StateStepper stepper(*workload_);
  core::ReportBatch tick;
  core::ReportBatch chunk;
  const auto batch_size = static_cast<size_t>(shape_.batch_records);
  for (int64_t t = 1; t <= shape_.d; ++t) {
    SpanScope period_span(log, "loop.period", t);
    {
      SpanScope span(log, "workload.states", -1, shape_.n);
      stepper.Advance(t);
    }
    {
      SpanScope span(log, "fleet.tick", -1, shape_.n);
      FR_RETURN_NOT_OK(fleet_->AdvanceTick(stepper.states(), &tick));
    }
    for (size_t offset = 0; offset < tick.size(); offset += batch_size) {
      const size_t end = std::min(offset + batch_size, tick.size());
      const auto records = static_cast<int64_t>(end - offset);
      const int64_t id = next_batch_id_++;
      SpanScope batch_span(log, "loop.batch", id, records);
      {
        SpanScope span(log, "batch.slice", id, records);
        chunk.assign(tick.begin() + static_cast<std::ptrdiff_t>(offset),
                     tick.begin() + static_cast<std::ptrdiff_t>(end));
      }
      std::string bytes;
      {
        SpanScope span(log, "wire.encode", id, records);
        FR_ASSIGN_OR_RETURN(bytes, core::EncodeReportBatch(
                                       chunk, core::WireVersion::kV2));
      }
      core::IngestOutcome outcome;
      const int64_t ready = NowNs();
      if (log == nullptr) {
        FR_RETURN_NOT_OK(aggregator_->IngestEncoded(bytes, nullptr, &outcome));
        if (end - offset == batch_size) {
          batch_latencies_.push_back(NowNs() - ready);
        }
      } else {
        // IngestEncoded is decode + checksum followed by apply; the traced
        // run makes the same two calls itself so each layer gets a span.
        SpanScope span(log, "aggregator.ingest", id, records);
        std::vector<core::ReportMessage> decoded;
        {
          SpanScope decode_span(log, "wire.decode", id, records);
          FR_ASSIGN_OR_RETURN(decoded, core::DecodeReportBatch(bytes));
        }
        SpanScope apply_span(log, "aggregator.apply", id, records);
        FR_RETURN_NOT_OK(
            aggregator_->IngestReports(decoded, nullptr, &outcome));
      }
      if (log != nullptr) {
        if (id % kSerialSampleEvery == 0) {
          SpanScope span(log, "aggregator.ingest_serial", id, records);
          FR_RETURN_NOT_OK(serial_shadow_->IngestEncoded(bytes, nullptr));
        }
        // Query probes after every batch: the estimate a reader would get
        // now, snapshot refresh included.
        {
          SpanScope span(log, "query.estimate_at", id);
          FR_RETURN_NOT_OK(aggregator_->EstimateAt(t).status());
        }
        SpanScope span(log, "query.window_delta", id);
        FR_RETURN_NOT_OK(
            aggregator_->EstimateWindowDelta(WindowStart(t), t).status());
      }
      pass_reports_ += records;
      pass_applied_ += outcome.applied;
      pass_wire_bytes_ += static_cast<int64_t>(bytes.size());
      ++batches_;
    }
    SpanScope span(log, "query.estimate_at", -1);
    FR_RETURN_NOT_OK(aggregator_->EstimateAt(t).status());
  }
  return Status::OK();
}

Status InProcessRun::Recover(ThreadLog* log) {
  for (int r = 0; r < kRecoveryPerPass; ++r) {
    const int64_t start = NowNs();
    {
      SpanScope span(log, "snapshot.checkpoint_full");
      FR_ASSIGN_OR_RETURN(checkpoint_,
                          aggregator_->Checkpoint(core::CheckpointMode::kFull));
    }
    FR_ASSIGN_OR_RETURN(
        core::ShardedAggregator fresh,
        core::ShardedAggregator::ForProtocol(config_, 1));
    {
      SpanScope span(log, "snapshot.restore");
      FR_RETURN_NOT_OK(fresh.Restore(checkpoint_));
    }
    recovery_seconds_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (r == 0) {
      FR_ASSIGN_OR_RETURN(const std::vector<double> live,
                          aggregator_->EstimateAll());
      FR_ASSIGN_OR_RETURN(const std::vector<double> restored,
                          fresh.EstimateAll());
      if (live != restored) {
        return Status::DataLoss("restored estimates differ from the live ones");
      }
    }
  }
  return Status::OK();
}

Status InProcessRun::RestoreFromFile() {
  // The service's durable form: the same blob as one FRS frame in a file.
  std::string framed;
  FR_RETURN_NOT_OK(net::AppendFrame(checkpoint_, &framed));
  const std::string path = options_.run_dir + "/inprocess-" +
                           std::to_string(options_.seed) + ".ckpt";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  const bool written =
      file != nullptr &&
      std::fwrite(framed.data(), 1, framed.size(), file) == framed.size();
  if (file == nullptr || std::fclose(file) != 0 || !written) {
    return Status::IoError("cannot write " + path);
  }
  for (int r = 0; r < kRecoveryPerPass; ++r) {
    FR_ASSIGN_OR_RETURN(
        core::ShardedAggregator fresh,
        core::ShardedAggregator::ForProtocol(config_, 1));
    SpanScope span(log_, "snapshot.file_restore");
    FR_RETURN_NOT_OK(net::RestoreFromCheckpointFile(path, &fresh));
  }
  std::remove(path.c_str());
  return Status::OK();
}

void InProcessRun::CheckCorrectness(RunReport* report) {
  if (pass_applied_ != fleet_->reports_emitted()) {
    report->Fail("applied " + std::to_string(pass_applied_) +
                 " != reports emitted " +
                 std::to_string(fleet_->reports_emitted()));
  }
  if (aggregator_->num_clients() != shape_.n) {
    report->Fail("aggregator holds " +
                 std::to_string(aggregator_->num_clients()) + " clients");
  }
  const auto estimates = aggregator_->EstimateAll();
  if (!estimates.ok()) {
    report->Fail(estimates.status().ToString());
    return;
  }
  const std::vector<int64_t>& truth = workload_->ground_truth();
  double max_error = 0.0;
  for (size_t t = 0; t < truth.size(); ++t) {
    max_error = std::max(
        max_error, std::fabs((*estimates)[t] - static_cast<double>(truth[t])));
  }
  analysis::BoundParams params;
  params.n = static_cast<double>(shape_.n);
  params.d = static_cast<double>(shape_.d);
  params.k = static_cast<double>(shape_.k);
  params.epsilon = shape_.eps;
  params.beta = 1e-9;
  const double gap = rand::ExactCGap(config_.randomizer, shape_.k, shape_.eps,
                                     config_.longitudinal_alpha)
                         .ValueOrDie();
  const double bound = analysis::HoeffdingProtocolBound(params, gap);
  std::printf("  max |estimate - truth| = %.1f (bound %.1f at beta=1e-9)\n",
              max_error, bound);
  if (!(max_error <= bound)) {
    report->Fail("max error " + std::to_string(max_error) +
                 " exceeds the bound " + std::to_string(bound));
  }
}

Status InProcessRun::Run(RunReport* report) {
  sim::WorkloadConfig workload_config;
  workload_config.kind = sim::WorkloadKind::kUniformChanges;
  workload_config.num_users = shape_.n;
  workload_config.num_periods = shape_.d;
  workload_config.max_changes = shape_.k;
  FR_ASSIGN_OR_RETURN(sim::Workload workload,
                      sim::Workload::Generate(workload_config,
                                              DeriveSeed(options_.seed, 0)));
  workload_.emplace(std::move(workload));

  for (int i = 0; i < kWarmSetups; ++i) {
    FR_RETURN_NOT_OK(SetUp(log_, /*with_shadow=*/false));
  }

  // Passes repeat the same inputs until the measured time is used up. A
  // traced run traces passes 1..kTracedPasses; the untraced ones give the
  // overhead's baseline.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  double measured = 0.0;
  double cpu = 0.0;
  int64_t reports = 0;
  std::vector<double> pass_rates;
  for (int pass = 0;
       measured < options_.seconds || (options_.trace && traced_walls.empty());
       ++pass) {
    ThreadLog* log = pass > 0 && pass <= kTracedPasses ? log_ : nullptr;
    FR_RETURN_NOT_OK(SetUp(log_, /*with_shadow=*/log != nullptr));
    const double cpu_start = SelfCpuSeconds();
    const int64_t start = NowNs();
    FR_RETURN_NOT_OK(RunPass(log));
    const double wall = static_cast<double>(NowNs() - start) * 1e-9;
    cpu += SelfCpuSeconds() - cpu_start;
    measured += wall;
    reports += pass_reports_;
    if (log == nullptr) {
      untraced_walls.push_back(wall);
      pass_rates.push_back(static_cast<double>(pass_applied_) / wall);
    } else {
      traced_walls.push_back(wall);
    }
    std::printf("  pass %d: %.3f s, %lld reports%s\n", pass, wall,
                static_cast<long long>(pass_reports_),
                log != nullptr ? " (traced)" : "");
    CheckCorrectness(report);
    FR_RETURN_NOT_OK(Recover(log_));
  }
  report->Attempt(batches_);

  Figures figures;
  figures["recovery_s"] = TrimmedMean(recovery_seconds_);
  figures["setup_s"] = Median(setup_seconds_);
  figures["throughput_rps"] = Median(pass_rates);
  figures["cpu_s_per_mreport"] = cpu / (static_cast<double>(reports) * 1e-6);
  FR_ASSIGN_OR_RETURN(figures["peak_rss_mb"], PeakRssMb(0));
  figures["state_bytes_per_client"] =
      static_cast<double>(aggregator_->ApproxMemoryBytes()) /
      static_cast<double>(shape_.n);
  figures["wire_bytes_per_report"] =
      static_cast<double>(pass_wire_bytes_) /
      static_cast<double>(pass_reports_);

  if (!options_.trace) {
    FR_ASSIGN_OR_RETURN(
        figures["latency_mean_ms"], BatchLatencyMs(batch_latencies_));
    return AddMetrics(kEndToEndMetrics, figures, report);
  }

  FR_RETURN_NOT_OK(RestoreFromFile());
  const TraceSummary trace = Summarize(tracer_);
  auto us = [&](const char* label, const Histogram& h, double q) {
    return Quantile(label, h, q, 1e-3);
  };
  Figures layers;
  layers["workload.states_ns_per_user_period"] =
      trace.NsPerItem("workload.states");
  layers["fleet.create_s"] = Median(create_seconds_);
  layers["fleet.tick_ns_per_user_period"] = trace.NsPerItem("fleet.tick");
  layers["fleet.reports_per_user_period"] =
      static_cast<double>(pass_reports_) /
      static_cast<double>(shape_.n * shape_.d);
  layers["wire.encode_ns_per_report"] = trace.NsPerItem("wire.encode");
  layers["wire.decode_ns_per_report"] = trace.NsPerItem("wire.decode");
  layers["wire.bytes_per_report"] = figures["wire_bytes_per_report"];
  layers["aggregator.ingest_ns_per_report"] =
      trace.NsPerItem("aggregator.ingest");
  layers["aggregator.apply_ns_per_report"] =
      trace.NsPerItem("aggregator.apply");
  layers["aggregator.ingest_serial_ns_per_report"] =
      trace.NsPerItem("aggregator.ingest_serial");
  layers["aggregator.register_ns_per_client"] =
      trace.NsPerItem("aggregator.register");
  layers["aggregator.state_bytes_per_client"] =
      figures["state_bytes_per_client"];
  layers["aggregator.dedup_ratio"] = 0.0;  // exactly-once delivery
  const LayerTotals& estimate_at = trace.Get("query.estimate_at");
  FR_ASSIGN_OR_RETURN(layers["query.estimate_at_us_p50"],
                      us("estimate_at us", estimate_at.durations, 0.5));
  FR_ASSIGN_OR_RETURN(layers["query.estimate_at_us_p99"],
                      us("estimate_at us", estimate_at.durations, 0.99));
  FR_ASSIGN_OR_RETURN(
      layers["query.window_delta_us_p50"],
      us("window_delta us", trace.Get("query.window_delta").durations, 0.5));
  const LayerTotals& checkpoint = trace.Get("snapshot.checkpoint_full");
  const LayerTotals& restore = trace.Get("snapshot.restore");
  const LayerTotals& file_restore = trace.Get("snapshot.file_restore");
  layers["snapshot.checkpoint_full_ms"] =
      static_cast<double>(checkpoint.total_ns) * 1e-6 / checkpoint.count;
  layers["snapshot.restore_ms"] =
      static_cast<double>(restore.total_ns) * 1e-6 / restore.count;
  layers["snapshot.full_bytes_per_client"] =
      static_cast<double>(checkpoint_.size()) / static_cast<double>(shape_.n);
  layers["snapshot.file_restore_ms"] =
      static_cast<double>(file_restore.total_ns) * 1e-6 / file_restore.count;
  // No channel, no network, no server process: delivery is a direct call.
  // net.call is that call (decode + apply) and net.wait the part of it
  // outside decode and apply.
  layers["channel.retransmit_ratio"] = 0.0;
  layers["channel.duplicate_ratio"] = 0.0;
  const LayerTotals& ingest = trace.Get("aggregator.ingest");
  FR_ASSIGN_OR_RETURN(layers["net.call_us_p50"],
                      us("delivery call us", ingest.durations, 0.5));
  FR_ASSIGN_OR_RETURN(layers["net.call_us_p99"],
                      us("delivery call us", ingest.durations, 0.99));
  FR_ASSIGN_OR_RETURN(layers["net.wait_us_p50"],
                      us("delivery wait us", ingest.self_durations, 0.5));
  FR_ASSIGN_OR_RETURN(layers["net.wait_us_p99"],
                      us("delivery wait us", ingest.self_durations, 0.99));
  layers["server.overload_ratio"] = 0.0;
  layers["server.nack_ratio"] = 0.0;
  layers["server.checkpoints_taken"] = 0.0;
  layers["server.checkpoint_bytes"] = 0.0;
  layers["trace.unexplained_share"] = trace.UnexplainedShare();
  layers["trace.overhead_ratio"] =
      Median(traced_walls) / Median(untraced_walls) - 1.0;
  std::printf("  traced blocking path: %.3f s, unexplained share %.4f, "
              "tracing overhead %+.1f%%\n",
              static_cast<double>(trace.blocking_ns) * 1e-9,
              trace.UnexplainedShare(),
              layers["trace.overhead_ratio"] * 100.0);
  if (trace.UnexplainedShare() > 0.10) {
    report->Fail("layer spans explain less than 90% of the traced wall time");
  }
  const std::string trace_path = options_.run_dir + "/trace-" +
                                 options_.workload + "-" +
                                 std::to_string(options_.seed) + ".csv";
  if (!tracer_.WriteCsv(trace_path)) {
    return Status::IoError("cannot write " + trace_path);
  }
  return AddMetrics(kLayerMetrics, layers, report);
}

}  // namespace

Status RunInProcessWorkload(const Options& options, RunReport* report) {
  InProcessRun run(options, ShapeFor(options));
  return run.Run(report);
}

}  // namespace perfbench
