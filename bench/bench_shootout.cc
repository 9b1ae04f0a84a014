// Cross-protocol shootout: every wire-transport pipeline (the dyadic
// FutureRand family and the memoized longitudinal L-GRR / L-OLH / LOLOHA)
// over the simulator's period loop (sim::RunPipeline through
// bench::StageTimingSink: fleet -> encode -> decode -> aggregate) per grid
// point, sweeping one axis at a time (eps, d, n) around a base point.
//
// Per (protocol, grid point) one JSON line reports the accuracy AND the
// systems cost of the protocol on identical workloads:
//
//   {"bench":"shootout","axis":"eps","protocol":"lolh","n":...,"d":...,
//    "eps":...,"alpha":...,"reps":...,"mean_max_error":...,
//    "mean_abs_error":...,"reports_per_user":...,"bytes_per_report":...,
//    "client_us_per_report":...,"server_us_per_report":...}
//
// bytes_per_report divides the encoded v2 batch bytes actually shipped by
// the report count; client/server CPU are the sink's tick+encode and
// ingest(+estimate) stage times on a single thread. The longitudinal
// protocols trade ~log d fewer reports per user for an every-tick cadence
// — this bench is where that trade is visible in one table.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/pipeline.h"
#include "futurerand/sim/flag_groups.h"

namespace {

using namespace futurerand;

// Runs `reps` repetitions of `protocol` at one grid point through the
// simulator's period loop (serial, one shard) and appends the accuracy and
// per-report cost fields to `line`.
Status AddMeasurements(sim::ProtocolKind protocol,
                       const core::ProtocolConfig& base,
                       const sim::WorkloadConfig& workload_config, int reps,
                       uint64_t seed, JsonLine& line) {
  core::ProtocolConfig config = base;
  FR_ASSIGN_OR_RETURN(config.randomizer, sim::RandomizerForProtocol(protocol));
  FR_RETURN_NOT_OK(config.Validate());
  const sim::FaultOptions ideal;
  double mean_max_error = 0.0;
  double mean_abs_error = 0.0;
  int64_t reports = 0;
  int64_t bytes = 0;
  double client_seconds = 0.0;  // tick + encode
  double server_seconds = 0.0;  // decode + ingest + estimate
  for (int r = 0; r < reps; ++r) {
    // The RunRepeated seed convention, so errors here match the harness.
    const uint64_t workload_seed = seed + static_cast<uint64_t>(2 * r + 1);
    const uint64_t protocol_seed = seed + static_cast<uint64_t>(2 * r + 2);
    FR_ASSIGN_OR_RETURN(const sim::Workload workload,
                        sim::Workload::Generate(workload_config,
                                                workload_seed));
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator aggregator,
                        core::ShardedAggregator::ForProtocol(config, 1));
    bench::StageTimingSink sink(std::move(aggregator), ideal, nullptr);
    FR_ASSIGN_OR_RETURN(const sim::DeliveryMetrics delivery,
                        sim::RunPipeline(config, workload, protocol_seed,
                                         nullptr, ideal, sink));
    WallTimer timer;
    FR_ASSIGN_OR_RETURN(const std::vector<double> estimates,
                        sink.aggregator().EstimateAll());
    server_seconds += sink.seconds().ingest + timer.ElapsedSeconds();
    client_seconds += sink.seconds().tick + sink.seconds().encode;
    reports += delivery.records_sent;
    bytes += sink.wire_bytes();
    const sim::ErrorMetrics errors =
        sim::ComputeErrorMetrics(estimates, workload.ground_truth());
    mean_max_error += errors.max_abs / reps;
    mean_abs_error += errors.mean_abs / reps;
  }
  const double per_report =
      reports > 0 ? 1.0 / static_cast<double>(reports) : 0.0;
  line.Add("mean_max_error", mean_max_error)
      .Add("mean_abs_error", mean_abs_error)
      .Add("reports_per_user",
           static_cast<double>(reports) /
               (static_cast<double>(workload_config.num_users) *
                static_cast<double>(reps)))
      .Add("bytes_per_report", static_cast<double>(bytes) * per_report)
      .Add("client_us_per_report", client_seconds * 1e6 * per_report)
      .Add("server_us_per_report", server_seconds * 1e6 * per_report);
  return Status::OK();
}

struct GridPoint {
  const char* axis;  // which sweep this point belongs to
  int64_t n;
  int64_t d;
  double eps;
};

int Run(int argc, char** argv) {
  int64_t n = 4000;
  int64_t d = 64;
  int64_t k = 4;
  double eps = 1.0;
  double alpha = 0.5;
  int64_t reps = 2;
  int64_t seed = 1;
  bool json = false;
  bool help = false;
  sim::WorkloadFlags workload_flags;

  FlagParser parser;
  workload_flags.Register(&parser);
  parser.AddInt64("n", &n, "base number of users (n sweep: n/4, n, 4n)");
  parser.AddInt64("d", &d, "base time periods (d sweep: d/2, d, 2d)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "base privacy budget (eps sweep: eps/4, "
                   "eps/2, eps)");
  parser.AddDouble("alpha", &alpha,
                   "longitudinal eps_1/eps_perm split in (0, 1)");
  parser.AddInt64("reps", &reps, "repetitions per grid point");
  parser.AddInt64("seed", &seed, "base seed (deterministic)");
  parser.AddBool("json", &json,
                 "emit one JSON line per (protocol, grid point)");
  parser.AddBool("help", &help, "print usage");
  if (const Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("bench_shootout").c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.Usage("bench_shootout").c_str(), stdout);
    return 0;
  }
  if (reps < 1) {
    std::fprintf(stderr, "%s\n%s",
                 Status::InvalidArgument("--reps must be >= 1")
                     .ToString()
                     .c_str(),
                 parser.Usage("bench_shootout").c_str());
    return 2;
  }

  // A replay series pins (n, d) — a recorded run has a fixed horizon and
  // population — so only the eps sweep applies there; every generated
  // workload takes the full three-axis grid.
  const bool replay = workload_flags.workload ==
                      sim::WorkloadKindToString(sim::WorkloadKind::kReplay);

  // One-axis-at-a-time sweeps around the base point; the base point itself
  // appears once per axis so each sweep is self-contained.
  std::vector<GridPoint> grid;
  for (const double e : {eps / 4.0, eps / 2.0, eps}) {
    grid.push_back(GridPoint{"eps", n, d, e});
  }
  if (!replay) {
    for (const int64_t periods : {d / 2, d, d * 2}) {
      grid.push_back(GridPoint{"d", n, periods, eps});
    }
    for (const int64_t users : {n / 4, n, n * 4}) {
      grid.push_back(GridPoint{"n", users, d, eps});
    }
  }

  if (!json) {
    std::printf(
        "shootout: error + bytes/report + CPU/report per protocol\n"
        "(base n=%lld d=%lld k=%lld eps=%.3g alpha=%.3g, %s workload, "
        "%lld reps)\n\n",
        static_cast<long long>(n), static_cast<long long>(d),
        static_cast<long long>(k), eps, alpha,
        workload_flags.workload.c_str(), static_cast<long long>(reps));
  }
  for (const GridPoint& point : grid) {
    const auto workload_config = workload_flags.ToConfig(point.n, point.d, k);
    if (!workload_config.ok()) {
      std::fprintf(stderr, "%s\n",
                   workload_config.status().ToString().c_str());
      return 2;
    }
    // Every pipeline with a batch wire transport to measure: dyadic kinds
    // first, longitudinal kinds last (enum order).
    for (const sim::ProtocolKind protocol : sim::AllProtocolKinds()) {
      if (!sim::RandomizerForProtocol(protocol).ok()) {
        continue;
      }
      core::ProtocolConfig config =
          bench::MakeConfig(point.d, k, point.eps);
      config.longitudinal_alpha = alpha;
      JsonLine line;
      line.Add("bench", "shootout")
          .Add("axis", point.axis)
          .Add("workload", workload_flags.workload)
          .Add("protocol", sim::ProtocolKindToString(protocol))
          .Add("n", point.n)
          .Add("d", point.d)
          .Add("k", k)
          .Add("eps", point.eps)
          .Add("alpha", alpha)
          .Add("reps", reps);
      if (const Status status =
              AddMeasurements(protocol, config, *workload_config,
                              static_cast<int>(reps),
                              static_cast<uint64_t>(seed), line);
          !status.ok()) {
        std::fprintf(stderr, "%s @ %s: %s\n",
                     sim::ProtocolKindToString(protocol), point.axis,
                     status.ToString().c_str());
        return 1;
      }
      std::printf("%s\n", line.Str().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
