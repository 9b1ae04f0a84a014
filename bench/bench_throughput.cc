// E11 — end-to-end service throughput. Drives the batch-first pipeline the
// production deployment would run:
//
//   ClientFleet.AdvanceTick -> EncodeReportBatch -> wire bytes
//       -> ShardedAggregator.IngestEncoded -> EstimateAll
//
// and reports the wall time and rate of every stage, plus (optionally) a
// full RunProtocol sim pass for any --protocol. With --json the results are
// one machine-readable line, which the `bench-smoke` CTest label greps in
// CI so throughput regressions show up in logs.
//
//   bench_throughput --n=100000 --d=1024 --k=8 --shards=8 --threads=8
//   bench_throughput --n=400 --d=64 --k=2 --json
//
// With --corrupt-rate the ingest stage runs a detection-driven
// retransmission loop (the receiver's kDataLoss verdict triggers the
// resend) and the retransmission count lands in the JSON line.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include <optional>

#include "bench_common.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/simd.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/store.h"
#include "futurerand/core/wire.h"

namespace {

using namespace futurerand;

struct PipelineStats {
  double create_seconds = 0.0;
  double tick_seconds = 0.0;    // AdvanceTick over all d periods
  double encode_seconds = 0.0;  // EncodeReportBatch over all batches
  double ingest_seconds = 0.0;  // IngestEncoded over all batches
  double query_seconds = 0.0;   // EstimateAll
  double checkpoint_seconds = 0.0;  // Checkpoint + Restore round-trip
  double delta_seconds = 0.0;       // delta Checkpoint (--checkpoint-mode)
  int64_t reports = 0;
  int64_t wire_bytes = 0;
  int64_t checksum_rejected = 0;  // ingests NACKed with kDataLoss
  int64_t retransmissions = 0;    // deliveries repeated after a NACK
  int64_t checkpoint_bytes = 0;  // one full blob
  int64_t delta_bytes = 0;       // one delta blob over dirty_shards shards
  int64_t dirty_shards = 0;      // shards dirtied before the delta (~1%)
  int64_t state_bytes = 0;       // ApproxMemoryBytes after the full stream
  double final_estimate = 0.0;  // consume the output so nothing is elided
};

Result<PipelineStats> RunPipeline(const core::ProtocolConfig& config,
                                  int64_t n, int shards, ThreadPool* pool,
                                  uint64_t seed, core::DedupPolicy dedup,
                                  core::DedupWindowPolicy window,
                                  core::CheckpointMode checkpoint_mode,
                                  double corrupt_rate) {
  PipelineStats stats;
  WallTimer timer;
  FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                      core::ClientFleet::Create(config, n, seed, pool));
  stats.create_seconds = timer.ElapsedSeconds();

  FR_ASSIGN_OR_RETURN(
      core::ShardedAggregator aggregator,
      core::ShardedAggregator::ForProtocol(config, shards, dedup, window));
  const std::string registration_bytes = fleet.EncodeRegistrations();
  stats.wire_bytes += static_cast<int64_t>(registration_bytes.size());
  FR_RETURN_NOT_OK(aggregator.IngestEncoded(registration_bytes, pool));

  // With --corrupt-rate the ingest stage ships every batch through the
  // same corruption model and NACK retransmission loop the simulation
  // runner uses — one copy of the delivery policy, so the bench can never
  // drift from what RunProtocol actually does.
  std::optional<sim::ChannelModel> channel;
  sim::DeliveryMetrics delivery;
  if (corrupt_rate > 0.0) {
    sim::ChannelConfig channel_config;
    channel_config.corrupt_rate = corrupt_rate;
    channel.emplace(channel_config, seed * 0x9e3779b97f4a7c15ULL + 1);
  }

  // Synthetic population: user u turns its flag on at period (u % d) + 1
  // and off again half a window later (two changes, within any k >= 2;
  // k = 1 users simply keep the flag on).
  const int64_t d = config.num_periods;
  std::vector<int8_t> states(static_cast<size_t>(n), 0);
  core::ReportBatch batch;
  for (int64_t t = 1; t <= d; ++t) {
    for (int64_t u = 0; u < n; ++u) {
      const int64_t on = (u % d) + 1;
      const bool off_again = config.max_changes >= 2 && t >= on + d / 2;
      states[static_cast<size_t>(u)] =
          (t >= on && !off_again) ? int8_t{1} : int8_t{0};
    }
    timer.Restart();
    FR_RETURN_NOT_OK(fleet.AdvanceTick(states, &batch));
    stats.tick_seconds += timer.ElapsedSeconds();

    timer.Restart();
    FR_ASSIGN_OR_RETURN(const std::string bytes,
                        core::EncodeReportBatch(batch));
    stats.encode_seconds += timer.ElapsedSeconds();
    stats.wire_bytes += static_cast<int64_t>(bytes.size());
    stats.reports += static_cast<int64_t>(batch.size());

    timer.Restart();
    if (channel.has_value()) {
      FR_RETURN_NOT_OK(sim::DeliverEncodedWithRetransmission(
          aggregator, bytes, &*channel, /*retransmit_budget=*/32, pool,
          &delivery));
    } else {
      FR_RETURN_NOT_OK(aggregator.IngestEncoded(bytes, pool));
    }
    stats.ingest_seconds += timer.ElapsedSeconds();
  }
  stats.checksum_rejected = delivery.batches_checksum_rejected;
  stats.retransmissions = delivery.batches_retransmitted;

  timer.Restart();
  FR_ASSIGN_OR_RETURN(const std::vector<double> estimates,
                      aggregator.EstimateAll());
  stats.query_seconds = timer.ElapsedSeconds();
  stats.final_estimate = estimates.back();

  // Memory-footprint stage: what the aggregator holds after the whole
  // stream — the number a DedupWindowPolicy is meant to bound.
  stats.state_bytes = aggregator.ApproxMemoryBytes();

  // Recovery stage: serialize every shard and restore the blob into the
  // same aggregator — the cost of one crash/restart cycle.
  timer.Restart();
  FR_ASSIGN_OR_RETURN(const std::string snapshot, aggregator.Checkpoint());
  FR_RETURN_NOT_OK(aggregator.Restore(snapshot));
  stats.checkpoint_seconds = timer.ElapsedSeconds();
  stats.checkpoint_bytes = static_cast<int64_t>(snapshot.size());

  if (checkpoint_mode == core::CheckpointMode::kDelta) {
    // Delta stage: dirty ~1% of the shards (at least one) with fresh
    // registrations, then serialize only what changed. The delta/full byte
    // ratio is the high-frequency checkpointing win.
    stats.dirty_shards = std::max<int64_t>(1, shards / 100);
    std::vector<core::RegistrationMessage> freshly_registered;
    for (int64_t s = 0; s < stats.dirty_shards; ++s) {
      // The smallest unused id landing on shard s (existing ids are 0..n-1).
      const int64_t id = n + (((s - n) % shards) + shards) % shards;
      freshly_registered.push_back(core::RegistrationMessage{id, 0});
    }
    FR_RETURN_NOT_OK(aggregator.IngestRegistrations(freshly_registered));
    timer.Restart();
    FR_ASSIGN_OR_RETURN(
        const std::string delta,
        aggregator.Checkpoint(core::CheckpointMode::kDelta));
    stats.delta_seconds = timer.ElapsedSeconds();
    stats.delta_bytes = static_cast<int64_t>(delta.size());
  }
  return stats;
}

double Rate(int64_t items, double seconds) {
  if (seconds <= 0.0) {
    return 0.0;
  }
  // A denormal duration from a tiny run can still push the quotient to
  // +inf; report 0 ("no meaningful rate") rather than poisoning the JSON.
  const double rate = static_cast<double>(items) / seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

int Run(int argc, char** argv) {
  int64_t n = 100000;
  int64_t d = 1024;
  int64_t k = 8;
  double eps = 1.0;
  std::string randomizer_name = "future_rand";
  std::string protocol_name;
  int64_t shards = 0;
  int64_t threads = ThreadPool::DefaultThreadCount();
  int64_t seed = 1;
  bool dedup = false;
  int64_t dedup_window = 0;
  std::string checkpoint_mode = "full";
  double corrupt_rate = 0.0;
  const core::StoreConfig sketch_defaults;
  std::string store_name = "dense";
  int64_t sketch_rows = sketch_defaults.sketch_rows;
  int64_t sketch_width = sketch_defaults.sketch_width;
  int64_t sketch_seed = static_cast<int64_t>(sketch_defaults.sketch_seed);
  bool json = false;
  bool help = false;

  FlagParser parser;
  parser.AddInt64("n", &n, "number of users");
  parser.AddInt64("d", &d, "time periods (power of two)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "privacy budget");
  parser.AddString("randomizer", &randomizer_name,
                   "sequence randomizer driving the fleet (future_rand | "
                   "independent | bun | adaptive | lgrr | lolh | loloha)");
  parser.AddString("protocol", &protocol_name,
                   "optionally also time one full RunProtocol sim pass of "
                   "this protocol kind");
  parser.AddInt64("shards", &shards,
                  "aggregator shards (0 = one per worker thread)");
  parser.AddInt64("threads", &threads, "worker threads");
  parser.AddInt64("seed", &seed, "base seed");
  parser.AddBool("dedup", &dedup,
                 "ingest with DedupPolicy::kIdempotent (measures the "
                 "per-client boundary-bitmap overhead)");
  parser.AddInt64("dedup-window", &dedup_window,
                  "bound the dedup bitmaps to this many boundaries behind "
                  "each client's frontier (0 = unbounded); requires --dedup");
  parser.AddString("checkpoint-mode", &checkpoint_mode,
                   "full | delta: delta adds a stage that dirties ~1% of "
                   "the shards and serializes only those");
  parser.AddDouble("corrupt-rate", &corrupt_rate,
                   "P(one bit of an outgoing batch flips): the ingest "
                   "stage then runs the NACK retransmission loop and "
                   "reports the retransmission count");
  parser.AddString("store", &store_name,
                   "per-shard aggregate storage: dense (exact) | sketch "
                   "(count-sketch levels, bounded extra error, O(levels*R*W) "
                   "memory per shard)");
  parser.AddInt64("sketch-rows", &sketch_rows,
                  "count-sketch depth R in [1, 64]; only with --store=sketch");
  parser.AddInt64("sketch-width", &sketch_width,
                  "count-sketch width W, a power of two in [8, 2^30]; only "
                  "with --store=sketch");
  parser.AddInt64("sketch-seed", &sketch_seed,
                  "seed of the per-(level,row) hashes");
  parser.AddBool("json", &json,
                 "print one machine-readable JSON line instead of a table");
  parser.AddBool("help", &help, "print usage");
  const Status parse_status = parser.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n%s", parse_status.ToString().c_str(),
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.Usage("bench_throughput").c_str(), stdout);
    return 0;
  }

  if (threads < 1 || shards < 0) {
    std::fprintf(stderr,
                 "InvalidArgument: --threads must be >= 1 and --shards "
                 ">= 0\n%s",
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }
  const auto randomizer = rand::ParseRandomizerKind(randomizer_name);
  if (!randomizer.ok()) {
    std::fprintf(stderr, "%s\n", randomizer.status().ToString().c_str());
    return 2;
  }
  core::CheckpointMode mode = core::CheckpointMode::kFull;
  if (checkpoint_mode == "delta") {
    mode = core::CheckpointMode::kDelta;
  } else if (checkpoint_mode != "full") {
    std::fprintf(stderr,
                 "InvalidArgument: --checkpoint-mode must be full or "
                 "delta\n%s",
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }
  if (corrupt_rate < 0.0 || corrupt_rate > 1.0) {
    std::fprintf(stderr,
                 "InvalidArgument: --corrupt-rate must be in [0,1]\n%s",
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }

  core::ProtocolConfig config = bench::MakeConfig(d, k, eps);
  config.randomizer = *randomizer;
  const auto store_kind = core::ParseStoreKind(store_name);
  if (!store_kind.ok()) {
    std::fprintf(stderr, "%s\n%s", store_kind.status().ToString().c_str(),
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }
  if (*store_kind == core::StoreKind::kSketch) {
    config.store = core::StoreConfig::Sketch(
        static_cast<int32_t>(sketch_rows), sketch_width,
        static_cast<uint64_t>(sketch_seed));
  }
  if (const Status store_status = config.store.Validate();
      !store_status.ok()) {
    std::fprintf(stderr, "%s\n%s", store_status.ToString().c_str(),
                 parser.Usage("bench_throughput").c_str());
    return 2;
  }
  ThreadPool pool(static_cast<int>(threads));
  const int effective_shards =
      shards > 0 ? static_cast<int>(shards) : pool.num_threads();

  const auto stats = RunPipeline(config, n, effective_shards, &pool,
                                 static_cast<uint64_t>(seed),
                                 dedup ? core::DedupPolicy::kIdempotent
                                       : core::DedupPolicy::kStrict,
                                 core::DedupWindowPolicy{dedup_window},
                                 mode, corrupt_rate);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }

  // Optional second measurement: the full simulation runner (workload
  // generation excluded) for any of the eleven protocol kinds.
  double sim_seconds = 0.0;
  if (!protocol_name.empty()) {
    const auto protocol = sim::ParseProtocolKind(protocol_name);
    if (!protocol.ok()) {
      std::fprintf(stderr, "%s\n", protocol.status().ToString().c_str());
      return 2;
    }
    const auto workload = sim::Workload::Generate(
        bench::MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k),
        static_cast<uint64_t>(seed));
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 1;
    }
    const auto run =
        sim::RunProtocol(*protocol, config, *workload,
                         static_cast<uint64_t>(seed) + 1, &pool,
                         effective_shards);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    sim_seconds = run->wall_seconds;
  }

  const int64_t user_periods = n * d;
  // Per-shard cost of the aggregate cells alone (sans dedup bitmaps),
  // under both backends — the number the sketch exists to shrink.
  const int64_t store_bytes_per_shard =
      core::MakeAggregateStore(config.store, d)->ApproxMemoryBytes();
  if (json) {
    bench::JsonLine line;
    line.Add("bench", "throughput")
        .Add("kernel", simd::ActiveBackendName())
        .Add("n", n)
        .Add("d", d)
        .Add("k", k)
        .Add("eps", eps)
        .Add("randomizer", rand::RandomizerKindToString(*randomizer))
        .Add("store", core::StoreKindToString(*store_kind))
        .Add("sketch_rows", *store_kind == core::StoreKind::kSketch
                                ? static_cast<int64_t>(config.store.sketch_rows)
                                : int64_t{0})
        .Add("sketch_width", *store_kind == core::StoreKind::kSketch
                                 ? config.store.sketch_width
                                 : int64_t{0})
        .Add("store_bytes_per_shard", store_bytes_per_shard)
        .Add("dedup", dedup ? 1 : 0)
        .Add("dedup_window", dedup_window)
        .Add("wire_version", 2)
        .Add("corrupt_rate", corrupt_rate)
        .Add("checksum_rejected", stats->checksum_rejected)
        .Add("batches_retransmitted", stats->retransmissions)
        .Add("shards", effective_shards)
        .Add("threads", static_cast<int64_t>(pool.num_threads()))
        .Add("reports", stats->reports)
        .Add("wire_bytes", stats->wire_bytes)
        .Add("fleet_create_sec", stats->create_seconds)
        .Add("tick_sec", stats->tick_seconds)
        .Add("encode_sec", stats->encode_seconds)
        .Add("ingest_sec", stats->ingest_seconds)
        .Add("estimate_all_sec", stats->query_seconds)
        .Add("checkpoint_sec", stats->checkpoint_seconds)
        .Add("checkpoint_bytes", stats->checkpoint_bytes)
        .Add("state_bytes", stats->state_bytes)
        .Add("user_periods_per_sec", Rate(user_periods, stats->tick_seconds))
        .Add("reports_per_sec", Rate(stats->reports, stats->ingest_seconds))
        // Per-stage records/sec, one field per pipeline stage so the CI
        // regression gate (scripts/check_bench_regression.sh) can compare
        // each stage against the committed baseline independently. "Record"
        // is the stage's natural unit: user-periods for tick, reports for
        // encode/ingest, periods for query.
        .Add("tick_records_per_sec", Rate(user_periods, stats->tick_seconds))
        .Add("encode_records_per_sec",
             Rate(stats->reports, stats->encode_seconds))
        .Add("ingest_records_per_sec",
             Rate(stats->reports, stats->ingest_seconds))
        .Add("query_records_per_sec", Rate(d, stats->query_seconds));
    if (mode == core::CheckpointMode::kDelta) {
      line.Add("dirty_shards", stats->dirty_shards)
          .Add("delta_checkpoint_sec", stats->delta_seconds)
          .Add("delta_checkpoint_bytes", stats->delta_bytes)
          .Add("full_over_delta_bytes",
               stats->delta_bytes > 0
                   ? static_cast<double>(stats->checkpoint_bytes) /
                         static_cast<double>(stats->delta_bytes)
                   : 0.0);
    }
    if (!protocol_name.empty()) {
      line.Add("sim_protocol", protocol_name)
          .Add("sim_sec", sim_seconds)
          .Add("sim_user_periods_per_sec", Rate(user_periods, sim_seconds));
    }
    std::printf("%s\n", line.Str().c_str());
    return 0;
  }

  std::printf("pipeline %s: n=%lld d=%lld k=%lld eps=%g shards=%d "
              "threads=%d store=%s (%lld bytes/shard)\n",
              rand::RandomizerKindToString(*randomizer),
              static_cast<long long>(n), static_cast<long long>(d),
              static_cast<long long>(k), eps, effective_shards,
              pool.num_threads(), core::StoreKindToString(*store_kind),
              static_cast<long long>(store_bytes_per_shard));
  TablePrinter table({"stage", "seconds", "items", "items/sec"});
  table.AddRow({"fleet create",
                TablePrinter::FormatDouble(stats->create_seconds, 4),
                TablePrinter::FormatCount(n),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(n, stats->create_seconds)))});
  table.AddRow({"advance ticks",
                TablePrinter::FormatDouble(stats->tick_seconds, 4),
                TablePrinter::FormatCount(user_periods),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(user_periods, stats->tick_seconds)))});
  table.AddRow({"encode wire",
                TablePrinter::FormatDouble(stats->encode_seconds, 4),
                TablePrinter::FormatCount(stats->wire_bytes),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(stats->wire_bytes, stats->encode_seconds)))});
  table.AddRow({"ingest encoded",
                TablePrinter::FormatDouble(stats->ingest_seconds, 4),
                TablePrinter::FormatCount(stats->reports),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(stats->reports, stats->ingest_seconds)))});
  if (corrupt_rate > 0.0) {
    // Retry cost is folded into the "ingest encoded" row above; this row
    // only counts the NACKed deliveries that were re-sent.
    table.AddRow({"retransmissions",
                  TablePrinter::FormatDouble(0.0, 4),
                  TablePrinter::FormatCount(stats->retransmissions),
                  TablePrinter::FormatCount(0)});
  }
  table.AddRow({"estimate all",
                TablePrinter::FormatDouble(stats->query_seconds, 4),
                TablePrinter::FormatCount(d),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(d, stats->query_seconds)))});
  table.AddRow({"checkpoint+restore",
                TablePrinter::FormatDouble(stats->checkpoint_seconds, 4),
                TablePrinter::FormatCount(stats->checkpoint_bytes),
                TablePrinter::FormatCount(static_cast<int64_t>(
                    Rate(stats->checkpoint_bytes,
                         stats->checkpoint_seconds)))});
  table.AddRow({"state memory",
                TablePrinter::FormatDouble(0.0, 4),
                TablePrinter::FormatCount(stats->state_bytes),
                TablePrinter::FormatCount(0)});
  if (mode == core::CheckpointMode::kDelta) {
    table.AddRow({"delta checkpoint",
                  TablePrinter::FormatDouble(stats->delta_seconds, 4),
                  TablePrinter::FormatCount(stats->delta_bytes),
                  TablePrinter::FormatCount(static_cast<int64_t>(
                      Rate(stats->delta_bytes, stats->delta_seconds)))});
  }
  if (!protocol_name.empty()) {
    table.AddRow({"sim " + protocol_name,
                  TablePrinter::FormatDouble(sim_seconds, 4),
                  TablePrinter::FormatCount(user_periods),
                  TablePrinter::FormatCount(static_cast<int64_t>(
                      Rate(user_periods, sim_seconds)))});
  }
  table.Print(std::cout);
  std::printf("%lld reports, %lld wire bytes (%.2f bytes/report)\n",
              static_cast<long long>(stats->reports),
              static_cast<long long>(stats->wire_bytes),
              stats->reports > 0
                  ? static_cast<double>(stats->wire_bytes) /
                        static_cast<double>(stats->reports)
                  : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
