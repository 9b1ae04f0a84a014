// E3 — error vs the number of time periods d (Theorem 4.1: polylog in d).
//
// Two modes:
//
//   bench_error_vs_d [--store=dense|sketch] [--json]
//     Sweeps d over {16..1024} and reports the max error of future_rand vs
//     the Erlingsson baseline under the chosen aggregate store, next to
//     the per-shard store footprint of both backends.
//
//   bench_error_vs_d --huge-d=268435456 --store=sketch --json
//     Memory smoke for domains dense storage cannot hold: builds one
//     sketch shard at d >= 2^24, exercises point adds/reads across the
//     whole domain, and reports the measured sketch bytes against the
//     analytic dense footprint (2d-1 counters x 8 bytes). Dense is
//     rejected here by construction — the point is the allocation that
//     would OOM.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.h"
#include "futurerand/analysis/theory.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/math.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/common/timer.h"
#include "futurerand/core/store.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/flag_groups.h"

namespace {

using namespace futurerand;
using namespace futurerand::bench;

int64_t DenseBytesAnalytic(int64_t d) {
  return (2 * d - 1) * static_cast<int64_t>(sizeof(int64_t));
}

// One shard at a domain size only the sketch can afford: construct, touch
// cells across the full index range, and report the footprint. Keeps no
// O(d) scratch anywhere, so it runs where the dense arena (and the sim's
// per-period estimate vectors) cannot.
int RunHugeDomainSmoke(const core::StoreConfig& store, int64_t huge_d,
                       bool json) {
  if (store.kind != core::StoreKind::kSketch) {
    std::fprintf(stderr,
                 "InvalidArgument: --huge-d requires --store=sketch (dense "
                 "would allocate %lld bytes per shard)\n",
                 static_cast<long long>(DenseBytesAnalytic(huge_d)));
    return 2;
  }
  if (!IsPowerOfTwo(huge_d) || huge_d < (int64_t{1} << 24)) {
    std::fprintf(stderr,
                 "InvalidArgument: --huge-d must be a power of two >= 2^24 "
                 "(smaller domains are covered by the sweep mode)\n");
    return 2;
  }
  WallTimer timer;
  const std::unique_ptr<core::AggregateStore> shard =
      core::MakeAggregateStore(store, huge_d);
  const double construct_seconds = timer.ElapsedSeconds();

  // Touch the whole domain: adds at a fixed stride across every level's
  // index range, then read each one back so both hot paths run at 2^28
  // scale. The checksum foils dead-code elimination.
  const int64_t kTouches = 1 << 12;
  const int64_t stride = huge_d / kTouches;
  timer.Restart();
  int64_t checksum = 0;
  for (int64_t i = 0; i < kTouches; ++i) {
    shard->Add(/*order=*/0, /*index=*/i * stride + 1, /*delta=*/+1);
  }
  for (int64_t i = 0; i < kTouches; ++i) {
    checksum += shard->Value(/*order=*/0, /*index=*/i * stride + 1);
  }
  const double touch_seconds = timer.ElapsedSeconds();

  const int64_t sketch_bytes = shard->ApproxMemoryBytes();
  const int64_t dense_bytes = DenseBytesAnalytic(huge_d);
  if (json) {
    JsonLine line;
    line.Add("bench", "error_vs_d_huge")
        .Add("store", core::StoreKindToString(store.kind))
        .Add("d", huge_d)
        .Add("sketch_rows", static_cast<int64_t>(store.sketch_rows))
        .Add("sketch_width", store.sketch_width)
        .Add("store_bytes_per_shard", sketch_bytes)
        .Add("dense_bytes_per_shard_analytic", dense_bytes)
        .Add("dense_over_sketch_bytes",
             static_cast<double>(dense_bytes) /
                 static_cast<double>(sketch_bytes))
        .Add("construct_sec", construct_seconds)
        .Add("touch_sec", touch_seconds)
        .Add("touch_checksum", checksum);
    std::printf("%s\n", line.Str().c_str());
    return 0;
  }
  std::printf(
      "huge-d smoke: d=%lld sketch(R=%d, W=%lld) holds %lld bytes/shard; "
      "dense would need %lld bytes (%.0fx more). construct %.3fs, "
      "%lld adds+reads %.3fs (checksum %lld)\n",
      static_cast<long long>(huge_d), store.sketch_rows,
      static_cast<long long>(store.sketch_width),
      static_cast<long long>(sketch_bytes),
      static_cast<long long>(dense_bytes),
      static_cast<double>(dense_bytes) / static_cast<double>(sketch_bytes),
      construct_seconds, static_cast<long long>(kTouches), touch_seconds,
      static_cast<long long>(checksum));
  return 0;
}

int Run(int argc, char** argv) {
  int64_t n = 10000;
  int64_t k = 8;
  double eps = 1.0;
  int64_t reps = 2;
  int64_t huge_d = 0;
  sim::StoreFlags store_flags;
  bool json = false;
  bool help = false;

  FlagParser parser;
  parser.AddInt64("n", &n, "number of users (sweep mode)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "privacy budget");
  parser.AddInt64("reps", &reps, "repetitions per d (sweep mode)");
  parser.AddInt64("huge-d", &huge_d,
                  "memory-smoke domain size (a power of two >= 2^24, "
                  "sketch only; 0 = run the error sweep instead)");
  store_flags.Register(&parser);
  parser.AddBool("json", &json,
                 "machine-readable JSON lines instead of the table");
  parser.AddBool("help", &help, "print usage");

  // Every flag error exits 2 with the Status text and usage.
  const auto flag_error = [&parser](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("bench_error_vs_d").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return flag_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("bench_error_vs_d").c_str(), stdout);
    return 0;
  }
  const auto store_config = store_flags.ToConfig();
  if (!store_config.ok()) {
    return flag_error(store_config.status());
  }
  const core::StoreConfig& store = *store_config;

  if (huge_d > 0) {
    return RunHugeDomainSmoke(store, huge_d, json);
  }

  ThreadPool pool(ThreadPool::DefaultThreadCount());
  if (!json) {
    std::printf(
        "E3: max error vs d   (n=%lld, k=%lld, eps=%.2f, store=%s, uniform "
        "workload, %lld reps)\n\n",
        static_cast<long long>(n), static_cast<long long>(k), eps,
        core::StoreKindToString(store.kind), static_cast<long long>(reps));
  }

  TablePrinter table({"d", "future_rand", "erlingsson", "ours/log2(d)",
                      "bound46_ours", "store_bytes"});
  for (int64_t d : {16, 32, 64, 128, 256, 512, 1024}) {
    auto config = MakeConfig(d, k, eps);
    config.store = store;
    const auto workload =
        MakeWorkload(sim::WorkloadKind::kUniformChanges, n, d, k);
    const double ours =
        MeanMaxError(sim::ProtocolKind::kFutureRand, config, workload,
                     static_cast<int>(reps), 100 + d, &pool);
    const double erlingsson =
        MeanMaxError(sim::ProtocolKind::kErlingsson, config, workload,
                     static_cast<int>(reps), 200 + d, &pool);
    const int64_t store_bytes =
        core::MakeAggregateStore(config.store, d)->ApproxMemoryBytes();
    analysis::BoundParams params;
    params.n = static_cast<double>(n);
    params.d = static_cast<double>(d);
    params.k = static_cast<double>(k);
    params.epsilon = eps;
    params.beta = 0.05;
    const double our_gap =
        rand::ExactCGap(rand::RandomizerKind::kFutureRand, k, eps)
            .ValueOrDie();
    const double bound = analysis::HoeffdingProtocolBound(params, our_gap);
    if (json) {
      JsonLine line;
      line.Add("bench", "error_vs_d")
          .Add("store", core::StoreKindToString(store.kind))
          .Add("d", d)
          .Add("n", n)
          .Add("max_error_future_rand", ours)
          .Add("max_error_erlingsson", erlingsson)
          .Add("hoeffding_bound", bound)
          .Add("store_bytes_per_shard", store_bytes)
          .Add("dense_bytes_per_shard_analytic", DenseBytesAnalytic(d));
      std::printf("%s\n", line.Str().c_str());
      continue;
    }
    table.AddRow(
        {std::to_string(d), TablePrinter::FormatDouble(ours),
         TablePrinter::FormatDouble(erlingsson),
         TablePrinter::FormatDouble(ours / std::log2(static_cast<double>(d)),
                                    4),
         TablePrinter::FormatDouble(bound),
         TablePrinter::FormatCount(store_bytes)});
  }
  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\nExpected shape: 'ours/log2(d)' roughly flat (error polylog in "
        "d);\na 64x growth in d should raise the error by only a small "
        "factor.\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
