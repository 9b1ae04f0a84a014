// E11 — end-to-end service throughput. Plays a synthetic population
// through sim::RunPipeline, timed stage by stage by bench::StageTimingSink:
//
//   ClientFleet.AdvanceTick -> EncodeReportBatch -> wire bytes
//       -> ShardedAggregator.IngestEncoded -> EstimateAll
//
// then times the post-stream stages (estimate, state memory,
// checkpoint+restore, delta) and optionally a full RunProtocol sim pass
// for any --protocol. With --json the results are one machine-readable
// line, which the `bench-smoke` CTest label greps in CI so throughput
// regressions show up in logs.
//
//   bench_throughput --n=100000 --d=1024 --k=8 --shards=8 --threads=8
//   bench_throughput --n=400 --d=64 --k=2 --json
//
// With --corrupt-rate every batch crosses the corrupting channel and NACK
// retransmission loop RunProtocol runs at the same seed, and the
// retransmission count lands in the JSON line.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/snapshot.h"
#include "futurerand/core/store.h"
#include "futurerand/sim/flag_groups.h"
#include "futurerand/sim/pipeline.h"

namespace {

using namespace futurerand;

// Synthetic population: user u turns its flag on at period (u % d) + 1
// and off again half a window later (two changes, within any k >= 2;
// k = 1 users simply keep the flag on).
Result<sim::Workload> MakePopulation(int64_t n, int64_t d, int64_t k) {
  std::vector<sim::UserTrace> traces(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    const int64_t on = (u % d) + 1;
    const int64_t off = on + d / 2;
    traces[static_cast<size_t>(u)].change_times =
        k >= 2 && off <= d ? std::vector<int64_t>{on, off}
                           : std::vector<int64_t>{on};
  }
  return sim::Workload::FromTraces(
      bench::MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k),
      std::move(traces));
}

// The stages timed after the stream, on the aggregator it filled.
struct PostStream {
  double query_seconds = 0.0;       // EstimateAll
  double checkpoint_seconds = 0.0;  // Checkpoint + Restore round-trip
  double delta_seconds = 0.0;       // delta Checkpoint (--checkpoint-mode)
  int64_t checkpoint_bytes = 0;  // one full blob
  int64_t delta_bytes = 0;       // one delta blob over dirty_shards shards
  int64_t dirty_shards = 0;      // shards dirtied before the delta (~1%)
  int64_t state_bytes = 0;       // ApproxMemoryBytes after the full stream
};

Result<PostStream> MeasurePostStream(core::ShardedAggregator& aggregator,
                                     int64_t n, int shards,
                                     core::CheckpointMode checkpoint_mode) {
  PostStream stats;
  WallTimer timer;
  FR_RETURN_NOT_OK(aggregator.EstimateAll().status());
  stats.query_seconds = timer.ElapsedSeconds();

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

// Reports a failed run step (exit code 1; flag errors exit 2).
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
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
  sim::DedupFlags dedup_flags;
  std::string checkpoint_mode = "full";
  double corrupt_rate = 0.0;
  sim::StoreFlags store_flags;
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
  dedup_flags.Register(&parser);
  parser.AddString("checkpoint-mode", &checkpoint_mode,
                   "full | delta: delta adds a stage that dirties ~1% of "
                   "the shards and serializes only those");
  parser.AddDouble("corrupt-rate", &corrupt_rate,
                   "P(one bit of an outgoing batch flips): the ingest "
                   "stage then runs the NACK retransmission loop and "
                   "reports the retransmission count");
  store_flags.Register(&parser);
  parser.AddBool("json", &json,
                 "print one machine-readable JSON line instead of a table");
  parser.AddBool("help", &help, "print usage");

  // Every flag error exits 2 with the Status text and usage.
  const auto flag_error = [&parser](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("bench_throughput").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return flag_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("bench_throughput").c_str(), stdout);
    return 0;
  }

  if (threads < 1 || shards < 0) {
    return flag_error(Status::InvalidArgument(
        "--threads must be >= 1 and --shards >= 0"));
  }
  const auto randomizer = rand::ParseRandomizerKind(randomizer_name);
  if (!randomizer.ok()) {
    return flag_error(randomizer.status());
  }
  const auto mode = core::ParseCheckpointMode(checkpoint_mode);
  if (!mode.ok()) {
    return flag_error(mode.status());
  }
  const auto store = store_flags.ToConfig();
  if (!store.ok()) {
    return flag_error(store.status());
  }
  sim::FaultOptions faults;
  faults.channel.corrupt_rate = corrupt_rate;
  core::ProtocolConfig config = bench::MakeConfig(d, k, eps);
  config.randomizer = *randomizer;
  config.store = *store;
  for (const Status& status :
       {dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window),
        config.Validate()}) {
    if (!status.ok()) {
      return flag_error(status);
    }
  }
  if (const Status valid = faults.Validate(); !valid.ok()) {
    return flag_error(valid);
  }
  const auto population = MakePopulation(n, d, k);
  if (!population.ok()) {
    return Fail(population.status());
  }
  ThreadPool pool(static_cast<int>(threads));
  const int effective_shards =
      shards > 0 ? static_cast<int>(shards) : pool.num_threads();

  auto aggregator = core::ShardedAggregator::ForProtocol(
      config, effective_shards, faults.dedup, faults.dedup_window);
  if (!aggregator.ok()) {
    return Fail(aggregator.status());
  }
  bench::StageTimingSink sink(std::move(*aggregator), faults, &pool);
  const auto delivery =
      sim::RunPipeline(config, *population, static_cast<uint64_t>(seed),
                       &pool, faults, sink);
  if (!delivery.ok()) {
    return Fail(delivery.status());
  }
  const auto post =
      MeasurePostStream(sink.aggregator(), n, effective_shards, *mode);
  if (!post.ok()) {
    return Fail(post.status());
  }
  const bench::StageSeconds& stages = sink.seconds();
  const int64_t reports = delivery->records_sent;
  const int64_t wire_bytes = sink.wire_bytes();

  // Optional second measurement: the full simulation runner (workload
  // generation excluded) for any of the eleven protocol kinds.
  double sim_seconds = 0.0;
  if (!protocol_name.empty()) {
    const auto protocol = sim::ParseProtocolKind(protocol_name);
    if (!protocol.ok()) {
      return flag_error(protocol.status());
    }
    const auto workload = sim::Workload::Generate(
        bench::MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k),
        static_cast<uint64_t>(seed));
    if (!workload.ok()) {
      return Fail(workload.status());
    }
    const auto run =
        sim::RunProtocol(*protocol, config, *workload,
                         static_cast<uint64_t>(seed) + 1, &pool,
                         effective_shards);
    if (!run.ok()) {
      return Fail(run.status());
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
        .Add("n", n)
        .Add("d", d)
        .Add("k", k)
        .Add("eps", eps)
        .Add("randomizer", rand::RandomizerKindToString(*randomizer))
        .Add("store", core::StoreKindToString(config.store.kind))
        .Add("sketch_rows", config.store.kind == core::StoreKind::kSketch
                                ? static_cast<int64_t>(config.store.sketch_rows)
                                : int64_t{0})
        .Add("sketch_width", config.store.kind == core::StoreKind::kSketch
                                 ? config.store.sketch_width
                                 : int64_t{0})
        .Add("store_bytes_per_shard", store_bytes_per_shard)
        .Add("dedup", dedup_flags.dedup ? 1 : 0)
        .Add("dedup_window", dedup_flags.dedup_window)
        .Add("wire_version", 2)
        .Add("corrupt_rate", corrupt_rate)
        .Add("checksum_rejected", delivery->batches_checksum_rejected)
        .Add("batches_retransmitted", delivery->batches_retransmitted)
        .Add("shards", effective_shards)
        .Add("threads", static_cast<int64_t>(pool.num_threads()))
        .Add("reports", reports)
        .Add("wire_bytes", wire_bytes)
        .Add("fleet_create_sec", stages.create)
        .Add("states_sec", stages.states)
        .Add("tick_sec", stages.tick)
        .Add("encode_sec", stages.encode)
        .Add("ingest_sec", stages.ingest)
        .Add("estimate_all_sec", post->query_seconds)
        .Add("checkpoint_sec", post->checkpoint_seconds)
        .Add("checkpoint_bytes", post->checkpoint_bytes)
        .Add("state_bytes", post->state_bytes)
        .Add("user_periods_per_sec", Rate(user_periods, stages.tick))
        .Add("reports_per_sec", Rate(reports, stages.ingest))
        // Per-stage records/sec, one field per pipeline stage so the CI
        // regression gate (scripts/check_bench_regression.sh) can compare
        // each stage against the committed baseline independently. "Record"
        // is the stage's natural unit: user-periods for tick, reports for
        // encode/ingest, periods for query.
        .Add("tick_records_per_sec", Rate(user_periods, stages.tick))
        .Add("encode_records_per_sec",
             Rate(reports, stages.encode))
        .Add("ingest_records_per_sec",
             Rate(reports, stages.ingest))
        .Add("query_records_per_sec", Rate(d, post->query_seconds));
    if (*mode == core::CheckpointMode::kDelta) {
      line.Add("dirty_shards", post->dirty_shards)
          .Add("delta_checkpoint_sec", post->delta_seconds)
          .Add("delta_checkpoint_bytes", post->delta_bytes)
          .Add("full_over_delta_bytes",
               post->delta_bytes > 0
                   ? static_cast<double>(post->checkpoint_bytes) /
                         static_cast<double>(post->delta_bytes)
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
              pool.num_threads(), core::StoreKindToString(config.store.kind),
              static_cast<long long>(store_bytes_per_shard));
  TablePrinter table({"stage", "seconds", "items", "items/sec"});
  auto add_row = [&table](const std::string& stage, double seconds,
                          int64_t items) {
    table.AddRow({stage, TablePrinter::FormatDouble(seconds, 4),
                  TablePrinter::FormatCount(items),
                  TablePrinter::FormatCount(
                      static_cast<int64_t>(Rate(items, seconds)))});
  };
  add_row("fleet create", stages.create, n);
  add_row("step states", stages.states, user_periods);
  add_row("advance ticks", stages.tick, user_periods);
  add_row("encode wire", stages.encode, wire_bytes);
  add_row("ingest encoded", stages.ingest, reports);
  if (corrupt_rate > 0.0) {
    // Retry cost is folded into the "ingest encoded" row above; this row
    // only counts the NACKed deliveries that were re-sent.
    add_row("retransmissions", 0.0, delivery->batches_retransmitted);
  }
  add_row("estimate all", post->query_seconds, d);
  add_row("checkpoint+restore", post->checkpoint_seconds,
          post->checkpoint_bytes);
  add_row("state memory", 0.0, post->state_bytes);
  if (*mode == core::CheckpointMode::kDelta) {
    add_row("delta checkpoint", post->delta_seconds, post->delta_bytes);
  }
  if (!protocol_name.empty()) {
    add_row("sim " + protocol_name, sim_seconds, user_periods);
  }
  table.Print(std::cout);
  std::printf("%lld reports, %lld wire bytes (%.2f bytes/report)\n",
              static_cast<long long>(reports),
              static_cast<long long>(wire_bytes),
              reports > 0
                  ? static_cast<double>(wire_bytes) /
                        static_cast<double>(reports)
                  : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
