// The paper's error-vs-parameter figures as presets of one harness: each
// row of kPresets names a swept axis and its values, the fixed (n, d, k,
// eps, reps), the measured protocol columns with their seed rules, and the
// derived columns. One loop runs any preset through sim::RunRepeated and
// prints a table, or with --json one line per (point, protocol):
//
//   {"bench":"<preset>","workload":"uniform","protocol":"future_rand",
//    "n":...,"d":...,"k":...,"eps":...,"reps":...,"mean_max_error":...}
//
// A numeric flag overrides a fixed value, never the swept axis. Every grid
// point is validated before any runs: bench_figures --preset=error_vs_k

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "futurerand/analysis/theory.h"
#include "futurerand/common/flags.h"
#include "futurerand/common/table_printer.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::bench {
namespace {

using sim::ProtocolKind;

enum class Axis { kK, kEps, kN, kD, kWorkload };
const char* const kAxisNames[] = {"k", "eps", "n", "d", "workload"};  // by Axis

// A measured column: the protocol's mean max error over the reps, from base
// seed uint64_t(seed_offset + seed_scale * x), x being the point's value on
// the swept axis (a WorkloadKind's enumerator on the workload axis).
struct Column {
  ProtocolKind protocol;
  const char* header;
  double seed_offset;
  double seed_scale;
};

enum class Derive {
  kRatio,        // measured[a] / measured[b]
  kTimesEps,     // measured[0] * eps
  kOverSqrtN,    // measured[0] / sqrt(n)
  kBoundOurs,    // Lemma 4.6 Hoeffding bound at FutureRand's exact c_gap
  kBoundErl,     // the same bound at Erlingsson's effective gap, c_gap / k
  kWithinBound,  // whether measured[0] <= kBoundOurs
};

struct DerivedColumn {
  const char* header;
  Derive derive;
  int a = 0;  // kRatio's operands
  int b = 0;
};

struct Preset {
  const char* name;
  const char* title;
  Axis axis;
  std::vector<double> values;  // every WorkloadKind on the workload axis
  int64_t n, d, k;             // the swept one is unused
  double eps;
  int64_t reps;
  std::vector<Column> columns;
  std::vector<DerivedColumn> derived;
  const char* footer;
};

const Preset kPresets[] = {
    {.name = "error_vs_k", .title = "E2: max error vs k", .axis = Axis::kK,
     .values = {1, 2, 4, 8, 16, 32, 64, 128},
     .n = 20000, .d = 256, .k = 0, .eps = 1.0, .reps = 3,
     .columns = {{ProtocolKind::kFutureRand, "future_rand", 100, 1},
                 {ProtocolKind::kErlingsson, "erlingsson", 200, 1},
                 {ProtocolKind::kIndependent, "independent", 300, 1}},
     .derived = {{"erl/ours", Derive::kRatio, 1, 0},
                 {"bound46_ours", Derive::kBoundOurs},
                 {"bound46_erl", Derive::kBoundErl}},
     .footer =
         "Expected shape: 'erl/ours' grows ~ sqrt(k) once past the small-k\n"
         "crossover; 'independent' tracks 'erlingsson' (both linear in k).\n"},
    {.name = "error_vs_eps", .title = "E4: max error vs eps",
     .axis = Axis::kEps, .values = {0.1, 0.2, 0.4, 0.6, 0.8, 1.0},
     .n = 20000, .d = 128, .k = 8, .eps = 0, .reps = 3,
     .columns = {{ProtocolKind::kFutureRand, "future_rand", 0, 1000},
                 {ProtocolKind::kErlingsson, "erlingsson", 0, 2000}},
     .derived = {{"ours*eps", Derive::kTimesEps},
                 {"bound46_ours", Derive::kBoundOurs}},
     .footer = "Expected shape: 'ours*eps' roughly constant (error ~ 1/eps).\n"},
    {.name = "error_vs_n", .title = "E5: max error vs n", .axis = Axis::kN,
     .values = {1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000},
     .n = 0, .d = 256, .k = 8, .eps = 1.0, .reps = 2,
     .columns = {{ProtocolKind::kFutureRand, "future_rand", 0, 1}},
     .derived = {{"ours/sqrt(n)", Derive::kOverSqrtN},
                 {"lemma4.6_bound", Derive::kBoundOurs},
                 {"within_bound", Derive::kWithinBound}},
     .footer =
         "Expected shape: 'ours/sqrt(n)' roughly constant; every row within\n"
         "the Lemma 4.6 bound.\n"},
    {.name = "central_vs_local", .title = "E8: central model vs local model",
     .axis = Axis::kN, .values = {2000, 8000, 32000, 128000},
     .n = 0, .d = 128, .k = 8, .eps = 1.0, .reps = 3,
     .columns = {{ProtocolKind::kCentralTree, "central_tree", 0, 1},
                 {ProtocolKind::kFutureRand, "future_rand(LDP)", 1, 1}},
     .derived = {{"local/central", Derive::kRatio, 1, 0}},
     .footer =
         "Expected shape: the central error is flat in n; the LDP error\n"
         "grows ~ sqrt(n), so 'local/central' widens — the price of not\n"
         "trusting the server.\n"},
    {.name = "naive_decay", .title = "E9: naive repetition decay",
     .axis = Axis::kD, .values = {8, 16, 32, 64, 128, 256, 512},
     .n = 5000, .d = 0, .k = 2, .eps = 1.0, .reps = 3,
     .columns = {{ProtocolKind::kNaiveRR, "naive_rr(eps/d)", 100, 1},
                 {ProtocolKind::kFutureRand, "future_rand", 200, 1}},
     .derived = {{"naive/ours", Derive::kRatio, 0, 1}},
     .footer =
         "Expected shape: the naive column grows ~ linearly in d (its c_gap\n"
         "shrinks like eps/d); ours grows only polylogarithmically, so\n"
         "'naive/ours' keeps widening.\n"},
    {.name = "workloads", .title = "E10: workload ablation",
     .axis = Axis::kWorkload, .values = {},
     .n = 10000, .d = 128, .k = 32, .eps = 1.0, .reps = 3,
     .columns = {{ProtocolKind::kFutureRand, "future_rand", 17, 0},
                 {ProtocolKind::kErlingsson, "erlingsson", 18, 0},
                 {ProtocolKind::kIndependent, "independent", 19, 0},
                 {ProtocolKind::kLGrr, "lgrr", 20, 0}},
     .derived = {{"erl/ours", Derive::kRatio, 1, 0}},
     .footer =
         "Expected shape: 'erl/ours' is about 2-3 on every row: the noise\n"
         "floor depends on (n, d, k, eps), not on where the changes fall.\n"
         "'independent' is close to ours and lower on most rows, since k=32\n"
         "sits just below the exact c_gap crossover (k=32..64 at eps=1).\n"
         "'lgrr' is far lower, but its eps is certified only for repeated\n"
         "reports of one unchanged value; its loss over a changing sequence\n"
         "grows with d, so it is not an equal-privacy column.\n"},
};

struct Point {
  core::ProtocolConfig config;
  sim::WorkloadConfig workload;
  double x = 0;  // the value on the swept axis
  std::string label;
};

// A preset with the flag overrides applied, every grid point validated.
struct Plan {
  Preset preset;
  std::vector<Point> points;
};

// `flags` holds the numeric overrides, 0 meaning "the preset's value".
Result<Plan> MakePlan(const std::string& name, const Preset& flags,
                      const std::string& replay_path) {
  const auto* found = std::find_if(
      std::begin(kPresets), std::end(kPresets),
      [&](const Preset& preset) { return name == preset.name; });
  if (found == std::end(kPresets)) {
    return Status::InvalidArgument(
        "--preset must name one of the figures below, not '" + name + "'");
  }
  Plan plan{*found, {}};
  Preset& p = plan.preset;
  const int axis = static_cast<int>(p.axis);
  const double axis_flags[] = {static_cast<double>(flags.k), flags.eps,
                               static_cast<double>(flags.n),
                               static_cast<double>(flags.d), 0};
  if (axis_flags[axis] != 0) {
    return Status::InvalidArgument(std::string("--") + kAxisNames[axis] +
                                   " is the swept axis of --preset=" + name);
  }
  if (!replay_path.empty() && p.axis != Axis::kWorkload) {
    return Status::InvalidArgument("--replay needs --preset=workloads");
  }
  p.n = flags.n != 0 ? flags.n : p.n;
  p.d = flags.d != 0 ? flags.d : p.d;
  p.k = flags.k != 0 ? flags.k : p.k;
  p.eps = flags.eps != 0 ? flags.eps : p.eps;
  p.reps = flags.reps != 0 ? flags.reps : p.reps;
  if (p.reps < 1) {
    return Status::InvalidArgument("--reps must be >= 1");
  }
  if (p.axis == Axis::kWorkload) {
    for (sim::WorkloadKind kind : sim::AllWorkloadKinds()) {
      // A replay row needs a recorded series to replay.
      if (kind != sim::WorkloadKind::kReplay || !replay_path.empty()) {
        p.values.push_back(static_cast<double>(kind));
      }
    }
  }
  for (double value : p.values) {
    int64_t n = p.n;
    int64_t d = p.d;
    int64_t k = p.k;
    double eps = p.eps;
    auto kind = sim::WorkloadKind::kUniformChanges;
    Point point;
    point.x = value;
    switch (p.axis) {
      case Axis::kK:
        k = static_cast<int64_t>(value);
        point.label = std::to_string(k);
        break;
      case Axis::kEps:
        eps = value;
        point.label = TablePrinter::FormatDouble(eps, 3);
        break;
      case Axis::kN:
        n = static_cast<int64_t>(value);
        point.label = TablePrinter::FormatCount(n);
        break;
      case Axis::kD:
        d = static_cast<int64_t>(value);
        point.label = std::to_string(d);
        break;
      case Axis::kWorkload:
        kind = static_cast<sim::WorkloadKind>(value);
        point.label = sim::WorkloadKindToString(kind);
        break;
    }
    point.config = MakeConfig(d, k, eps);
    point.workload = MakeWorkload(kind, n, d, k);
    if (kind == sim::WorkloadKind::kReplay) {
      point.workload.replay_path = replay_path;
    }
    FR_RETURN_NOT_OK(point.workload.Validate());
    FR_RETURN_NOT_OK(point.config.Validate());
    plan.points.push_back(std::move(point));
  }
  return plan;
}

std::string DerivedCell(const DerivedColumn& column, const Point& point,
                        const std::vector<double>& measured) {
  const int64_t k = point.config.max_changes;
  const double eps = point.config.epsilon;
  analysis::BoundParams params;
  params.n = static_cast<double>(point.workload.num_users);
  params.d = static_cast<double>(point.config.num_periods);
  params.k = static_cast<double>(k);
  params.epsilon = eps;
  params.beta = 0.05;
  auto our_bound = [&] {
    return analysis::HoeffdingProtocolBound(
        params, rand::ExactCGap(rand::RandomizerKind::kFutureRand, k, eps)
                    .ValueOrDie());
  };
  switch (column.derive) {
    case Derive::kRatio:
      return TablePrinter::FormatDouble(
          measured[column.a] / measured[column.b], 3);
    case Derive::kTimesEps:
      return TablePrinter::FormatDouble(measured[0] * eps, 4);
    case Derive::kOverSqrtN:
      return TablePrinter::FormatDouble(measured[0] / std::sqrt(params.n), 4);
    case Derive::kBoundOurs:
      return TablePrinter::FormatDouble(our_bound());
    case Derive::kBoundErl: {
      // The Erlingsson estimator's per-report scale carries the extra
      // factor k, i.e. an effective gap of c_gap/k.
      const double erl_gap = (std::exp(eps / 2.0) - 1.0) /
                             (std::exp(eps / 2.0) + 1.0) /
                             static_cast<double>(k);
      return TablePrinter::FormatDouble(
          analysis::HoeffdingProtocolBound(params, erl_gap));
    }
    case Derive::kWithinBound:
      return measured[0] <= our_bound() ? "yes" : "NO";
  }
  return "";
}

int RunPlan(const Plan& plan, bool json) {
  const Preset& p = plan.preset;
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  if (!json) {  // the title: every fixed parameter
    auto fixed = [&](Axis axis, const char* format, auto value) {
      if (axis != p.axis) {
        std::printf(format, value);
      }
    };
    std::printf("%s   (", p.title);
    fixed(Axis::kN, "n=%lld, ", static_cast<long long>(p.n));
    fixed(Axis::kD, "d=%lld, ", static_cast<long long>(p.d));
    fixed(Axis::kK, "k=%lld, ", static_cast<long long>(p.k));
    fixed(Axis::kEps, "eps=%.2f, ", p.eps);
    fixed(Axis::kWorkload, "%s workload, ",
          sim::WorkloadKindToString(sim::WorkloadKind::kUniformChanges));
    std::printf("%lld reps)\n\n", static_cast<long long>(p.reps));
  }
  std::vector<std::string> headers = {kAxisNames[static_cast<int>(p.axis)]};
  for (const Column& column : p.columns) {
    headers.push_back(column.header);
  }
  for (const DerivedColumn& column : p.derived) {
    headers.push_back(column.header);
  }
  TablePrinter table(headers);
  for (const Point& point : plan.points) {
    std::vector<double> measured;
    std::vector<std::string> row = {point.label};
    for (const Column& column : p.columns) {
      const auto seed = static_cast<uint64_t>(column.seed_offset +
                                              column.seed_scale * point.x);
      auto stats = sim::RunRepeated(column.protocol, point.config,
                                    point.workload, static_cast<int>(p.reps),
                                    seed, &pool);
      if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
        return 1;
      }
      measured.push_back(stats->max_abs_error.mean());
      row.push_back(TablePrinter::FormatDouble(measured.back()));
      if (json) {
        JsonLine line;
        line.Add("bench", p.name)
            .Add("workload", sim::WorkloadKindToString(point.workload.kind))
            .Add("protocol", sim::ProtocolKindToString(column.protocol))
            .Add("n", point.workload.num_users)
            .Add("d", point.config.num_periods)
            .Add("k", point.config.max_changes)
            .Add("eps", point.config.epsilon)
            .Add("reps", p.reps)
            .Add("mean_max_error", measured.back());
        std::printf("%s\n", line.Str().c_str());
      }
    }
    for (const DerivedColumn& column : p.derived) {
      row.push_back(DerivedCell(column, point, measured));
    }
    table.AddRow(row);
  }
  if (!json) {
    table.Print(std::cout);
    std::printf("\n%s", p.footer);
  }
  return 0;
}

}  // namespace
}  // namespace futurerand::bench

int main(int argc, char** argv) {
  using namespace futurerand;
  using namespace futurerand::bench;

  std::string preset_name;
  Preset flags{};
  std::string replay_path;
  bool json = false;
  bool help = false;
  std::string figures = "figure to run:";
  for (const Preset& preset : kPresets) {
    figures += std::string(" ") + preset.name;
  }
  FlagParser parser;
  parser.AddString("preset", &preset_name, figures);
  parser.AddInt64("n", &flags.n, "number of users (0 = the preset's)");
  parser.AddInt64("d", &flags.d, "periods, a power of two (0 = the preset's)");
  parser.AddInt64("k", &flags.k, "per-user change budget (0 = the preset's)");
  parser.AddDouble("eps", &flags.eps, "privacy budget (0 = the preset's)");
  parser.AddInt64("reps", &flags.reps,
                  "repetitions per (point, protocol) (0 = the preset's)");
  parser.AddString("replay", &replay_path,
                   "recorded t,truth series (exactly d rows); adds the "
                   "replay row to --preset=workloads");
  parser.AddBool("json", &json, "emit one JSON line per (point, protocol)");
  parser.AddBool("help", &help, "print usage");
  const Status status = parser.Parse(argc, argv);
  if (status.ok() && help) {
    std::fputs(parser.Usage("bench_figures").c_str(), stdout);
    return 0;
  }
  const Result<Plan> plan = status.ok()
                                ? MakePlan(preset_name, flags, replay_path)
                                : Result<Plan>(status);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n%s", plan.status().ToString().c_str(),
                 parser.Usage("bench_figures").c_str());
    return 2;
  }
  return RunPlan(*plan, json);
}
