// Cross-protocol shootout: every wire-transport pipeline (the dyadic
// FutureRand family and the memoized longitudinal L-GRR / L-OLH / LOLOHA)
// over one measured fleet -> encode -> decode -> aggregate run per grid
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
// the report count; client/server CPU are the tick+encode and decode+ingest
// wall times on a single thread. The longitudinal protocols trade ~log d
// fewer reports per user for an every-tick cadence — this bench is where
// that trade is visible in one table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/workload_flags.h"

namespace {

using namespace futurerand;

// One measured end-to-end run, accumulated over `reps` repetitions.
struct Measured {
  double mean_max_error = 0.0;
  double mean_abs_error = 0.0;
  int64_t reports = 0;
  int64_t bytes = 0;
  double client_seconds = 0.0;  // tick + randomize + encode
  double server_seconds = 0.0;  // decode + ingest + estimate
};

Result<Measured> RunOnce(sim::ProtocolKind protocol,
                         const core::ProtocolConfig& base,
                         const sim::WorkloadConfig& workload_config,
                         int reps, uint64_t seed) {
  core::ProtocolConfig config = base;
  FR_ASSIGN_OR_RETURN(config.randomizer, sim::RandomizerForProtocol(protocol));
  FR_RETURN_NOT_OK(config.Validate());
  const int64_t n = workload_config.num_users;
  Measured total;
  for (int r = 0; r < reps; ++r) {
    // The RunRepeated seed convention, so errors here match the harness.
    const uint64_t workload_seed = seed + static_cast<uint64_t>(2 * r + 1);
    const uint64_t protocol_seed = seed + static_cast<uint64_t>(2 * r + 2);
    FR_ASSIGN_OR_RETURN(const sim::Workload workload,
                        sim::Workload::Generate(workload_config,
                                                workload_seed));
    FR_ASSIGN_OR_RETURN(core::ClientFleet fleet,
                        core::ClientFleet::Create(config, n, protocol_seed));
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator aggregator,
                        core::ShardedAggregator::ForProtocol(config, 1));
    {
      WallTimer timer;
      const std::string registrations = fleet.EncodeRegistrations();
      total.bytes += static_cast<int64_t>(registrations.size());
      total.client_seconds += timer.ElapsedSeconds();
      timer.Restart();
      FR_RETURN_NOT_OK(aggregator.IngestEncoded(registrations));
      total.server_seconds += timer.ElapsedSeconds();
    }
    std::vector<int8_t> states(static_cast<size_t>(n));
    for (int64_t t = 1; t <= config.num_periods; ++t) {
      for (int64_t u = 0; u < n; ++u) {
        states[static_cast<size_t>(u)] = workload.trace(u).StateAt(t);
      }
      WallTimer timer;
      FR_ASSIGN_OR_RETURN(const std::string encoded,
                          fleet.AdvanceTickEncoded(states));
      total.client_seconds += timer.ElapsedSeconds();
      total.bytes += static_cast<int64_t>(encoded.size());
      timer.Restart();
      FR_RETURN_NOT_OK(aggregator.IngestEncoded(encoded));
      total.server_seconds += timer.ElapsedSeconds();
    }
    total.reports += fleet.reports_emitted();
    WallTimer timer;
    FR_ASSIGN_OR_RETURN(const std::vector<double> estimates,
                        aggregator.EstimateAll());
    total.server_seconds += timer.ElapsedSeconds();
    double max_error = 0.0;
    double abs_error_sum = 0.0;
    const std::vector<int64_t>& truth = workload.ground_truth();
    for (size_t t = 0; t < truth.size(); ++t) {
      const double error =
          std::abs(estimates[t] - static_cast<double>(truth[t]));
      max_error = std::max(max_error, error);
      abs_error_sum += error;
    }
    total.mean_max_error += max_error / reps;
    total.mean_abs_error +=
        abs_error_sum / static_cast<double>(truth.size()) / reps;
  }
  return total;
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
      const auto measured =
          RunOnce(protocol, config, *workload_config, static_cast<int>(reps),
                  static_cast<uint64_t>(seed));
      if (!measured.ok()) {
        std::fprintf(stderr, "%s @ %s: %s\n",
                     sim::ProtocolKindToString(protocol), point.axis,
                     measured.status().ToString().c_str());
        return 1;
      }
      const double per_report =
          measured->reports > 0 ? 1.0 / static_cast<double>(measured->reports)
                                : 0.0;
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
          .Add("reps", reps)
          .Add("mean_max_error", measured->mean_max_error)
          .Add("mean_abs_error", measured->mean_abs_error)
          .Add("reports_per_user",
               static_cast<double>(measured->reports) /
                   (static_cast<double>(point.n) * static_cast<double>(reps)))
          .Add("bytes_per_report",
               static_cast<double>(measured->bytes) * per_report)
          .Add("client_us_per_report",
               measured->client_seconds * 1e6 * per_report)
          .Add("server_us_per_report",
               measured->server_seconds * 1e6 * per_report);
      std::printf("%s\n", line.Str().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
