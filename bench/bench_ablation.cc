// Ablation of three library-level choices made on top of the paper:
//   (a) adaptive randomizer selection (max-c_gap certified construction)
//       vs always-FutureRand, across the small-k crossover;
//   (b) per-level support adaptation (min(k, L) instead of k at high
//       levels) vs the paper-faithful constant-k parameterization;
//   (c) GLS consistency post-processing (the offline extension) vs the raw
//       online estimates.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"

int main() {
  using namespace futurerand;
  using namespace futurerand::bench;

  const int64_t n = 10000;
  const int64_t d = 128;
  const double eps = 1.0;
  const int reps = 3;
  ThreadPool pool(ThreadPool::DefaultThreadCount());

  std::printf(
      "Ablation (a): adaptive randomizer choice vs fixed constructions\n"
      "(n=%lld, d=%lld, eps=%.2f, uniform workload, %d reps)\n\n",
      static_cast<long long>(n), static_cast<long long>(d), eps, reps);
  TablePrinter choice(
      {"k", "future_rand", "independent", "adaptive", "adaptive_wins"});
  for (int64_t k : {1, 4, 16, 64, 128}) {
    const auto config = MakeConfig(d, k, eps);
    const auto workload =
        MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k);
    const double future = MeanMaxError(sim::ProtocolKind::kFutureRand, config,
                                       workload, reps, 31, &pool);
    const double independent =
        MeanMaxError(sim::ProtocolKind::kIndependent, config, workload, reps,
                     32, &pool);
    const double adaptive = MeanMaxError(sim::ProtocolKind::kAdaptive, config,
                                         workload, reps, 33, &pool);
    const bool wins = adaptive <= 1.15 * std::min(future, independent);
    choice.AddRow({std::to_string(k), TablePrinter::FormatDouble(future),
                   TablePrinter::FormatDouble(independent),
                   TablePrinter::FormatDouble(adaptive),
                   wins ? "yes" : "~"});
  }
  choice.Print(std::cout);

  std::printf(
      "\nAblation (b): per-level support adaptation (extension) vs "
      "paper-faithful\n\n");
  TablePrinter support({"k", "paper_faithful", "per_level_adapted", "gain"});
  for (int64_t k : {16, 32, 64, 128}) {
    auto faithful_config = MakeConfig(d, k, eps);
    auto adapted_config = MakeConfig(d, k, eps);
    adapted_config.adapt_support_per_level = true;
    const auto workload =
        MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k);
    const double faithful =
        MeanMaxError(sim::ProtocolKind::kFutureRand, faithful_config,
                     workload, reps, 41, &pool);
    const double adapted =
        MeanMaxError(sim::ProtocolKind::kFutureRand, adapted_config, workload,
                     reps, 42, &pool);
    support.AddRow({std::to_string(k), TablePrinter::FormatDouble(faithful),
                    TablePrinter::FormatDouble(adapted),
                    TablePrinter::FormatDouble(faithful / adapted, 3)});
  }
  support.Print(std::cout);

  std::printf(
      "\nAblation (c): GLS consistency post-processing (offline extension) "
      "vs raw online estimates\n\n");
  TablePrinter consistency({"k", "online_raw", "offline_consistent", "gain"});
  for (int64_t k : {4, 16, 64}) {
    auto raw_config = MakeConfig(d, k, eps);
    auto consistent_config = MakeConfig(d, k, eps);
    consistent_config.consistent_estimation = true;
    const auto workload =
        MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k);
    const double raw = MeanMaxError(sim::ProtocolKind::kFutureRand,
                                    raw_config, workload, reps, 51, &pool);
    const double consistent =
        MeanMaxError(sim::ProtocolKind::kFutureRand, consistent_config,
                     workload, reps, 51, &pool);
    consistency.AddRow({std::to_string(k), TablePrinter::FormatDouble(raw),
                        TablePrinter::FormatDouble(consistent),
                        TablePrinter::FormatDouble(raw / consistent, 3)});
  }
  consistency.Print(std::cout);

  std::printf(
      "\nExpected shape: (a) adaptive tracks the better column on both\n"
      "sides of the crossover; (b) per-level adaptation helps once k\n"
      "exceeds the report counts of high levels (gain >= 1);\n"
      "(c) consistency post-processing gives a constant-factor gain for\n"
      "free (pure post-processing, same privacy).\n");
  return 0;
}
