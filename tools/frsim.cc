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
#include "futurerand/core/store.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/trace.h"
#include "futurerand/sim/workload.h"
#include "futurerand/sim/workload_flags.h"

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
  const core::StoreConfig sketch_defaults;  // defaults carry the sketch knobs
  std::string store_name = "dense";
  int64_t sketch_rows = sketch_defaults.sketch_rows;
  int64_t sketch_width = sketch_defaults.sketch_width;
  int64_t sketch_seed = static_cast<int64_t>(sketch_defaults.sketch_seed);
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double reorder_rate = 0.0;
  double corrupt_rate = 0.0;
  double burst_enter_rate = 0.0;
  double burst_exit_rate = 0.0;
  double burst_drop_rate = 0.0;
  double burst_corrupt_rate = 0.0;
  double outage_rate = 0.0;
  double outage_recovery_rate = 0.0;
  double delay_rate = 0.0;
  int64_t delay_max_ticks = 0;
  int64_t retransmit_budget = 32;
  bool dedup = false;
  int64_t dedup_window = 0;
  int64_t checkpoint_every = 0;
  std::string checkpoint_mode = "full";
  int64_t checkpoint_compact_every = 8;
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
  parser.AddString("store", &store_name,
                   "per-shard aggregate storage: dense (exact, O(d) per "
                   "shard) | sketch (count-sketch levels, O(levels*R*W) "
                   "per shard, bounded extra error)");
  parser.AddInt64("sketch-rows", &sketch_rows,
                  "count-sketch depth R (rows per sketched level), in "
                  "[1, 64]; only with --store=sketch");
  parser.AddInt64("sketch-width", &sketch_width,
                  "count-sketch width W (buckets per row), a power of two "
                  "in [8, 2^30]; only with --store=sketch");
  parser.AddInt64("sketch-seed", &sketch_seed,
                  "seed of the per-(level,row) hashes; part of the store "
                  "identity (merges require equal seeds)");
  parser.AddDouble("drop-rate", &drop_rate,
                   "P(report lost in the channel), hierarchical only");
  parser.AddDouble("dup-rate", &dup_rate,
                   "P(report delivered twice); requires --dedup");
  parser.AddDouble("reorder-rate", &reorder_rate,
                   "P(delivered batch arrives shuffled)");
  parser.AddDouble("corrupt-rate", &corrupt_rate,
                   "P(one bit of the encoded batch flips)");
  parser.AddDouble("burst-enter-rate", &burst_enter_rate,
                   "Gilbert-Elliott P(good->bad) per channel traversal; "
                   "enables the burst layer");
  parser.AddDouble("burst-exit-rate", &burst_exit_rate,
                   "Gilbert-Elliott P(bad->good); expected burst length is "
                   "1/rate traversals");
  parser.AddDouble("burst-drop-rate", &burst_drop_rate,
                   "drop rate while the channel is in the bad state "
                   "(replaces --drop-rate there)");
  parser.AddDouble("burst-corrupt-rate", &burst_corrupt_rate,
                   "corrupt rate while in the bad state (replaces "
                   "--corrupt-rate there)");
  parser.AddDouble("outage-rate", &outage_rate,
                   "P(a client goes dark, losing its reports), evaluated "
                   "per report — per-client fault correlation");
  parser.AddDouble("outage-recovery-rate", &outage_recovery_rate,
                   "P(a dark client recovers), evaluated per report");
  parser.AddDouble("delay-rate", &delay_rate,
                   "P(a delivered report is delayed into a later tick's "
                   "batch); requires --dedup");
  parser.AddInt64("delay-max-ticks", &delay_max_ticks,
                  "uniform delay bound in ticks (>= 1 when --delay-rate "
                  "is set)");
  parser.AddInt64("retransmit-budget", &retransmit_budget,
                  "max delivery attempts per batch before the run fails "
                  "(size against the expected burst length)");
  parser.AddBool("dedup", &dedup,
                 "idempotent ingest: duplicates/retries are absorbed, "
                 "making at-least-once delivery exact");
  parser.AddInt64("dedup-window", &dedup_window,
                  "evict per-client dedup bits older than this many "
                  "boundaries behind each client's newest report "
                  "(0 = keep everything); requires --dedup");
  parser.AddInt64("checkpoint-every", &checkpoint_every,
                  "checkpoint + restore the aggregator every this many "
                  "periods (0 = never)");
  parser.AddString("checkpoint-mode", &checkpoint_mode,
                   "full | delta (delta serializes only dirtied shards, "
                   "with periodic full compaction blobs)");
  parser.AddInt64("checkpoint-compact-every", &checkpoint_compact_every,
                  "under --checkpoint-mode=delta, take a full compaction "
                  "blob every this many checkpoints");
  parser.AddString("csv", &csv_path,
                   "optional path for the last repetition's t,truth,"
                   "estimate,abs_error trace");
  parser.AddBool("help", &help, "print usage");

  const Status parse_status = parser.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n%s", parse_status.ToString().c_str(),
                 parser.Usage("frsim").c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.Usage("frsim").c_str(), stdout);
    return 0;
  }

  if (threads < 1) {
    std::fprintf(stderr, "InvalidArgument: --threads must be >= 1\n%s",
                 parser.Usage("frsim").c_str());
    return 2;
  }
  const auto protocol = sim::ParseProtocolKind(protocol_name);
  if (!protocol.ok()) {
    std::fprintf(stderr, "%s\n", protocol.status().ToString().c_str());
    return 2;
  }
  const auto workload_config = workload_flags.ToConfig(n, d, k);
  if (!workload_config.ok()) {
    std::fprintf(stderr, "%s\n%s", workload_config.status().ToString().c_str(),
                 parser.Usage("frsim").c_str());
    return 2;
  }

  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  config.longitudinal_alpha = alpha;
  config.adapt_support_per_level = adapt_support;
  const auto store_kind = core::ParseStoreKind(store_name);
  if (!store_kind.ok()) {
    std::fprintf(stderr, "%s\n%s", store_kind.status().ToString().c_str(),
                 parser.Usage("frsim").c_str());
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
                 parser.Usage("frsim").c_str());
    return 2;
  }

  sim::FaultOptions faults;
  faults.channel.drop_rate = drop_rate;
  faults.channel.duplicate_rate = dup_rate;
  faults.channel.reorder_rate = reorder_rate;
  faults.channel.corrupt_rate = corrupt_rate;
  faults.channel.burst_enter_rate = burst_enter_rate;
  faults.channel.burst_exit_rate = burst_exit_rate;
  faults.channel.burst_drop_rate = burst_drop_rate;
  faults.channel.burst_corrupt_rate = burst_corrupt_rate;
  faults.channel.outage_enter_rate = outage_rate;
  faults.channel.outage_exit_rate = outage_recovery_rate;
  faults.channel.delay_rate = delay_rate;
  faults.channel.delay_ticks_max = delay_max_ticks;
  faults.retransmit_budget = retransmit_budget;
  faults.dedup = dedup ? core::DedupPolicy::kIdempotent
                       : core::DedupPolicy::kStrict;
  faults.dedup_window = core::DedupWindowPolicy{dedup_window};
  faults.checkpoint_every = checkpoint_every;
  if (checkpoint_mode == "full") {
    faults.checkpoint_mode = core::CheckpointMode::kFull;
  } else if (checkpoint_mode == "delta") {
    faults.checkpoint_mode = core::CheckpointMode::kDelta;
  } else {
    std::fprintf(stderr,
                 "InvalidArgument: --checkpoint-mode must be full or "
                 "delta\n%s",
                 parser.Usage("frsim").c_str());
    return 2;
  }
  faults.checkpoint_compact_every = checkpoint_compact_every;
  if (const Status fault_status = faults.Validate(); !fault_status.ok()) {
    std::fprintf(stderr, "%s\n%s", fault_status.ToString().c_str(),
                 parser.Usage("frsim").c_str());
    return 2;
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
