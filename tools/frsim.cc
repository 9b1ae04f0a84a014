// frsim: command-line simulator for the longitudinal LDP protocols.
//
//   frsim --protocol=future_rand --workload=trend --n=50000 --d=256
//         --k=8 --eps=1.0 --reps=3 --seed=1 --csv=/tmp/run.csv
//
// Runs the chosen protocol over a synthetic population and prints the error
// metrics (optionally dumping the per-period trace of the last repetition
// to CSV for plotting).

#include <cstdio>
#include <iostream>
#include <string>

#include "futurerand/common/flags.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/config.h"
#include "futurerand/sim/flag_groups.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/trace.h"
#include "futurerand/sim/workload.h"

namespace {

using namespace futurerand;

int Run(int argc, char** argv) {
  std::string protocol_name = "future_rand";
  sim::WorkloadFlags workload_flags;
  int64_t n = 20000;
  int64_t d = 256;
  int64_t k = 8;
  double eps = 1.0;
  double alpha = 0.5;
  int64_t reps = 3;
  int64_t seed = 1;
  int64_t threads = ThreadPool::DefaultThreadCount();
  int64_t shards = 0;
  bool adapt_support = false;
  sim::StoreFlags store_flags;
  sim::ChannelFlags channel_flags;
  sim::DedupFlags dedup_flags;
  int64_t checkpoint_every = 0;
  sim::CheckpointFlags checkpoint_flags;
  std::string csv_path;
  bool help = false;

  FlagParser parser;
  parser.AddString("protocol", &protocol_name,
                   "future_rand | independent | bun | adaptive | erlingsson "
                   "| naive_rr | central_tree | lgrr | lolh | loloha | "
                   "non_private");
  workload_flags.Register(&parser);
  parser.AddInt64("n", &n, "number of users");
  parser.AddInt64("d", &d, "time periods (power of two)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "privacy budget (0 < eps <= 1)");
  parser.AddDouble("alpha", &alpha,
                   "longitudinal eps_1/eps_perm split in (0, 1); only the "
                   "lgrr | lolh | loloha protocols read it");
  parser.AddInt64("reps", &reps, "independent repetitions");
  parser.AddInt64("seed", &seed, "base seed (deterministic)");
  parser.AddInt64("threads", &threads, "worker threads");
  parser.AddInt64("shards", &shards,
                  "aggregator server shards (0 = one per worker thread); "
                  "estimates are identical for any value");
  parser.AddBool("adapt_support", &adapt_support,
                 "enable per-level support adaptation (extension)");
  store_flags.Register(&parser);
  channel_flags.Register(&parser);
  dedup_flags.Register(&parser);
  parser.AddInt64("checkpoint-every", &checkpoint_every,
                  "checkpoint + restore the aggregator every this many "
                  "periods (0 = never)");
  checkpoint_flags.Register(&parser);
  parser.AddString("csv", &csv_path,
                   "optional path for the last repetition's t,truth,"
                   "estimate,abs_error trace");
  parser.AddBool("help", &help, "print usage");

  // Every flag error exits 2 with the Status text and usage.
  const auto flag_error = [&parser](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("frsim").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return flag_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("frsim").c_str(), stdout);
    return 0;
  }

  if (threads < 1) {
    return flag_error(Status::InvalidArgument("--threads must be >= 1"));
  }
  const auto protocol = sim::ParseProtocolKind(protocol_name);
  if (!protocol.ok()) {
    return flag_error(protocol.status());
  }
  const auto workload_config = workload_flags.ToConfig(n, d, k);
  if (!workload_config.ok()) {
    return flag_error(workload_config.status());
  }

  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  config.longitudinal_alpha = alpha;
  config.adapt_support_per_level = adapt_support;
  const auto store = store_flags.ToConfig();
  if (!store.ok()) {
    return flag_error(store.status());
  }
  config.store = *store;

  sim::FaultOptions faults;
  faults.checkpoint_every = checkpoint_every;
  for (const Status& status :
       {channel_flags.ApplyTo(&faults),
        dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window),
        checkpoint_flags.ToChain(&faults.checkpoint_mode,
                                 &faults.checkpoint_compact_every)}) {
    if (!status.ok()) {
      return flag_error(status);
    }
  }
  if (const Status fault_status = faults.Validate(); !fault_status.ok()) {
    return flag_error(fault_status);
  }

  ThreadPool pool(static_cast<int>(threads));
  TablePrinter table({"rep", "max_error", "mean_error", "rmse", "argmax_t",
                      "reports", "seconds"});
  for (int64_t r = 0; r < reps; ++r) {
    const uint64_t workload_seed = static_cast<uint64_t>(seed + 2 * r + 1);
    const uint64_t protocol_seed = static_cast<uint64_t>(seed + 2 * r + 2);
    const auto workload =
        sim::Workload::Generate(*workload_config, workload_seed);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 1;
    }
    const auto result =
        sim::RunProtocol(*protocol, config, *workload, protocol_seed, &pool,
                         static_cast<int>(shards), faults);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (faults.active()) {
      std::printf("rep %lld %s\n", static_cast<long long>(r),
                  result->delivery.ToString().c_str());
    }
    table.AddRow(
        {std::to_string(r), TablePrinter::FormatDouble(result->metrics.max_abs),
         TablePrinter::FormatDouble(result->metrics.mean_abs),
         TablePrinter::FormatDouble(result->metrics.rmse),
         std::to_string(result->metrics.argmax_time),
         TablePrinter::FormatCount(result->reports_submitted),
         TablePrinter::FormatDouble(result->wall_seconds, 3)});
    if (!csv_path.empty() && r == reps - 1) {
      const Status written = sim::WriteRunCsv(csv_path, *result, *workload);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("trace written to %s\n", csv_path.c_str());
    }
  }
  std::printf("%s over %s: %s\n", protocol_name.c_str(),
              workload_flags.workload.c_str(), config.ToString().c_str());
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
