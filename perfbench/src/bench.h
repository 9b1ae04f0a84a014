// Shared pieces of the benchmark runner: options, the run report that
// becomes the final JSON line, and small measurement helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/sim/workload.h"
#include "histogram.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;    // smoke shape: small fleet, small batches
  std::string frserve;  // path of the frserve binary
  std::string run_dir;  // run files, inside the checkout
};

/// Everything a run reports; printed as the last line of stdout.
class RunReport {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check: the run's operations count as
  /// failed and `correct` becomes false.
  void Fail(const std::string& what);
  void Attempt(int64_t operations) { attempted_ += operations; }
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int64_t failures_ = 0;
  int64_t attempted_ = 0;
};

// Run structure shared by every workload.
//
// The fleet: FutureRand, d=256, k=4, eps=1. At 10^5 or 10^6 clients the
// fleet and aggregator state lives in the host's shared last-level cache
// and DRAM, whose speed drifted by 25-100% from minute to minute with
// other tenants' load; 10^4 clients keep the state close to the core's
// own L2 cache, and the figures hold still.
constexpr int64_t kClients = 10'000;
// Each tick's reports ship as wire batches of this many records (every
// tick fills at least one); the last, partial batch of a tick counts
// toward throughput, not latency.
constexpr int64_t kBatchRecords = 1024;
// The smoke shape (--tiny).
constexpr int64_t kTinyClients = 2000;
constexpr int64_t kTinyBatchRecords = 64;
//
// Set-ups before the first pass. The first set-up in a process is cold
// (fresh heap pages), so setup_s is the median over these and the
// per-pass set-ups.
constexpr int kWarmSetups = 3;
// A traced run traces passes 1..kTracedPasses; the others run untraced,
// so the span logs stay small however many passes --seconds allows.
constexpr int kTracedPasses = 3;
// Recovery rounds after each pass; recovery_s is the trimmed mean over all
// of them, so its samples spread over the whole run.
constexpr int kRecoveryPerPass = 6;
// The traced run also ingests every this-many-th batch serially into a
// one-shard shadow aggregator: IngestEncoded as one call, beside the
// decode + apply pair the traced run makes instead.
constexpr int64_t kSerialSampleEvery = 16;
// Window queries span this many trailing periods.
constexpr int64_t kWindowPeriods = 16;

/// The first period of the query window ending at t.
inline int64_t WindowStart(int64_t t) {
  return t > kWindowPeriods ? t - kWindowPeriods + 1 : 1;
}

// The runner calls every layer on its own thread, without a ThreadPool
// (pool = nullptr), and gives aggregators one shard. With three pool
// threads on the 4-vCPU host every ParallelFor waited for whichever
// thread another tenant had slowed, and throughput spread by 24-31%
// between runs; with one, the hand-offs to it took a varying share of a
// tick.

/// A reported metric's name and unit. kEndToEndMetrics and kLayerMetrics
/// list, in print order, what every workload reports without and with
/// tracing; BENCHMARK.json names the same metrics.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kLayerMetrics;

/// Measured values by metric name.
using Figures = std::map<std::string, double>;

/// Adds every metric of `specs` to `report` from `figures`; fails naming
/// the first metric a workload did not measure.
futurerand::Status AddMetrics(const std::vector<MetricSpec>& specs,
                              const Figures& figures, RunReport* report);

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// Mean of a non-empty sample without its lowest and highest tenth.
/// Recovery times fall into two clusters about 40% apart, and which of
/// them a run's median lands in changed from run to run; the mean over
/// both moves far less, and the trim drops one-off stalls.
double TrimmedMean(std::vector<double> values);

/// The q-quantile of `histogram` times `scale` (1e-6 turns ns into ms).
/// Prints it with its sample count; fails when fewer than
/// Histogram::kMinBeyond samples lie beyond it.
futurerand::Result<double> Quantile(const char* label,
                                    const Histogram& histogram, double q,
                                    double scale);

/// Latency samples are cut into consecutive groups of this many, in
/// completion order; a reported percentile is the median over the groups
/// of each group's percentile. A burst of interference from outside then
/// moves only the groups it overlaps, not the run's figure. 1024 samples
/// leave 10 beyond a group's p99.
constexpr size_t kLatencyGroup = 1024;

/// The q-quantile of each group of kLatencyGroup consecutive samples (a
/// trailing partial group counts only when it is the only one), times
/// `scale`; returns the median over groups and prints it with the sample
/// and group counts. Fails when a group has too few samples beyond q.
futurerand::Result<double> GroupedQuantile(const char* label,
                                           std::span<const int64_t> samples,
                                           double q, double scale);

/// The batch latency metric: the mean of the full batches' latencies
/// without the lowest and highest tenth, in ms. The grouped p50, p90 and
/// p99 go to the run log. Per-batch times cluster by tick, and the p50
/// and p90 jumped between clusters from run to run by up to 50%; the
/// mean moves only as far as the times themselves.
futurerand::Result<double> BatchLatencyMs(std::span<const int64_t> samples);

/// User + system CPU seconds of this process so far.
double SelfCpuSeconds();
/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
futurerand::Result<double> PeakRssMb(int pid);
/// User + system CPU seconds of another process, from /proc/<pid>/stat.
futurerand::Result<double> ProcessCpuSeconds(int pid);

/// Replays a generated workload's traces as per-period Boolean states.
class StateStepper {
 public:
  explicit StateStepper(const futurerand::sim::Workload& workload);
  /// Moves every user to period t; call with t = 1, 2, ... in order.
  void Advance(int64_t t);
  std::span<const int8_t> states() const { return states_; }

 private:
  const futurerand::sim::Workload& workload_;
  std::vector<int8_t> states_;
  std::vector<uint32_t> next_change_;
};

/// Derives an independent seed for `stream` from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

futurerand::Status RunInProcessWorkload(const Options& options,
                                        RunReport* report);
futurerand::Status RunServiceWorkload(const Options& options,
                                      RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
