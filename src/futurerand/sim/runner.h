// End-to-end experiment runner: plays a workload through a chosen protocol
// and reports the estimate series plus error metrics. Client-side work is
// batch-advanced by a core::ClientFleet (or chunked per user for the
// sequential baselines) and all aggregation flows through the thread-safe
// core::ShardedAggregator — the runner itself owns no shards and merges
// nothing.

#ifndef FUTURERAND_SIM_RUNNER_H_
#define FUTURERAND_SIM_RUNNER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/common/stats.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/server.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {

/// Every end-to-end pipeline the harness can run.
enum class ProtocolKind {
  kFutureRand,   // Algorithms 1+2 with the Section 5 randomizer
  kIndependent,  // Algorithms 1+2 with the Example 4.2 randomizer
  kBun,          // Algorithms 1+2 with the Appendix A.2 randomizer
  kAdaptive,     // Algorithms 1+2 with the max-c_gap randomizer (extension)
  kErlingsson,   // the Section 6 online baseline
  kNaiveRR,      // repeated randomized response at eps/d (intro strawman)
  kCentralTree,  // central-model binary-tree mechanism (Section 6 reference)
  kLGrr,         // memoized longitudinal L-GRR (randomizer/longitudinal.h)
  kLOlh,         // memoized longitudinal L-OLH (optimal-g L-LH)
  kLoloha,       // memoized longitudinal OLOLOHA (shared permanent seed)
  kNonPrivate,   // exact dyadic pipeline (sanity reference; keep last)
};

/// Every ProtocolKind, in enum order — the single source of truth for code
/// that enumerates pipelines (flag parsing, sweeps, tests).
inline constexpr ProtocolKind kAllProtocolKinds[] = {
    ProtocolKind::kFutureRand,  ProtocolKind::kIndependent,
    ProtocolKind::kBun,         ProtocolKind::kAdaptive,
    ProtocolKind::kErlingsson,  ProtocolKind::kNaiveRR,
    ProtocolKind::kCentralTree, ProtocolKind::kLGrr,
    ProtocolKind::kLOlh,        ProtocolKind::kLoloha,
    ProtocolKind::kNonPrivate,
};
static_assert(std::size(kAllProtocolKinds) ==
                  static_cast<size_t>(ProtocolKind::kNonPrivate) + 1,
              "extend kAllProtocolKinds when adding a ProtocolKind");

constexpr std::span<const ProtocolKind> AllProtocolKinds() {
  return kAllProtocolKinds;
}

const char* ProtocolKindToString(ProtocolKind kind);

/// Parses a display name (as produced by ProtocolKindToString) back to its
/// kind by scanning AllProtocolKinds() — the one parser every flag surface
/// shares.
Result<ProtocolKind> ParseProtocolKind(const std::string& name);

/// The sequence randomizer a fleet pipeline runs: the one
/// ProtocolKind -> RandomizerKind mapping, shared by RunProtocol, frload
/// and the benches. The baselines that run no ClientFleet (erlingsson,
/// naive_rr, central_tree, non_private) fail with kInvalidArgument.
Result<rand::RandomizerKind> RandomizerForProtocol(ProtocolKind kind);

/// Fault-tolerance knobs for a protocol run: a lossy channel between the
/// fleet and the aggregator, the aggregator's dedup policy, and periodic
/// checkpoint/restore round-trips. Defaults model the paper's ideal
/// transport (perfect channel, strict dedup, no checkpoints). Only the
/// fleet pipelines (the kinds RandomizerForProtocol maps: FutureRand /
/// Independent / Bun / Adaptive / L-GRR / L-OLH / LOLOHA) support
/// non-default options — the baselines bypass the batch transport.
struct FaultOptions {
  ChannelConfig channel;
  /// Max TOTAL transmissions per batch before the run fails with kDataLoss
  /// (>= 1): a budget of N allows exactly N deliveries of one batch — the
  /// initial transmission plus up to N - 1 retransmissions (so N - 1 is
  /// the most that ever lands in batches_retransmitted for one batch, and
  /// a budget of 1 means "never retransmit"). This contract is pinned by
  /// RetransmitLoop and shared verbatim by the network client's NACK loop
  /// (net::DeliverEncodedOverStream). Every attempt re-traverses the
  /// channel, so a Gilbert-Elliott burst can reject several attempts in a
  /// row; size the budget against the expected burst length (see
  /// docs/ARCHITECTURE.md "Operations").
  int64_t retransmit_budget = 32;
  core::DedupPolicy dedup = core::DedupPolicy::kStrict;
  /// Bounds the aggregator's per-client dedup memory (kIdempotent only);
  /// see core::DedupWindowPolicy. Reports older than a client's evicted
  /// horizon are dropped and show up in DeliveryMetrics as
  /// records_out_of_window.
  core::DedupWindowPolicy dedup_window;
  /// Every this many ticks the runner checkpoints the aggregator and
  /// restores a freshly built one from the checkpoint chain, proving
  /// mid-stream recovery on the live pipeline. 0 disables.
  int64_t checkpoint_every = 0;
  /// kFull serializes every shard each time; kDelta serializes only the
  /// shards dirtied since the previous checkpoint, with every
  /// `checkpoint_compact_every`-th checkpoint a full compaction blob that
  /// restarts the chain.
  core::CheckpointMode checkpoint_mode = core::CheckpointMode::kFull;
  /// Compaction cadence of kDelta mode, in checkpoints (>= 1; 1 degrades
  /// to all-full). Ignored under kFull.
  int64_t checkpoint_compact_every = 8;

  /// True iff any option deviates from the ideal-transport default.
  bool active() const {
    return channel.enabled() || dedup != core::DedupPolicy::kStrict ||
           dedup_window.bounded() || checkpoint_every > 0;
  }

  /// Checks rates and cross-option consistency: duplicate faults require
  /// kIdempotent (under kStrict a duplicate is an ingest error), as do
  /// delayed records (they arrive out of order per client) and a bounded
  /// dedup window. Corrupt faults (steady or burst) need no dedup: the
  /// checksum rejects a corrupted batch atomically before any record is
  /// decoded, so retransmission is exact even under kStrict.
  Status Validate() const;
};

/// Ships one encoded batch into `aggregator` with detection-driven
/// (NACK-style) retransmission — the single copy of the delivery policy
/// shared by RunProtocol and bench_throughput. Each attempt re-traverses
/// `channel` (nullable = no corruption possible), and an attempt the
/// aggregator rejects with kDataLoss is retransmitted. Gives up after
/// `retransmit_budget` attempts with kDataLoss. `delivery` (required) accumulates the applied/deduped/
/// out-of-window record counts and the checksum-NACK/retransmission
/// batch counters.
Status DeliverEncodedWithRetransmission(core::ShardedAggregator& aggregator,
                                        const std::string& pristine,
                                        ChannelModel* channel,
                                        int64_t retransmit_budget,
                                        ThreadPool* pool,
                                        DeliveryMetrics* delivery);

/// The single copy of the NACK/retransmit budget policy, shared by the
/// in-process delivery above and the network client
/// (net::DeliverEncodedOverStream) so the two can never drift. Calls
/// `attempt` up to `retransmit_budget` times TOTAL — budget N = the
/// initial transmission plus at most N - 1 retransmissions. `attempt`
/// returns true when the batch was accepted (loop ends OK), false when the
/// receiver NACKed it (loop retries, bumping
/// delivery->batches_retransmitted), or an error Status for any verdict
/// that retransmission cannot fix (propagated as-is). Exhausting the
/// budget fails with kDataLoss.
Status RetransmitLoop(int64_t retransmit_budget,
                      const std::function<Result<bool>()>& attempt,
                      DeliveryMetrics* delivery);

/// The outcome of one protocol run on one workload.
struct RunResult {
  std::vector<double> estimates;  // a_hat[t], t = 1..d
  ErrorMetrics metrics;           // vs the workload's exact ground truth
  DeliveryMetrics delivery;       // transport counters (see FaultOptions)
  double wall_seconds = 0.0;
  int64_t reports_submitted = 0;
};

/// Runs `kind` over `workload`. `config.randomizer` is overridden to match
/// `kind` where applicable; `seed` drives all protocol randomness (clients
/// fork per-user streams from it). `pool` may be null for single-threaded
/// execution. `num_shards` sets the ShardedAggregator's shard count
/// (0 = one shard per worker thread); estimates are bit-identical for any
/// value, so it is purely a throughput knob. `faults` injects transport
/// faults and recovery round-trips (hierarchical pipelines only).
Result<RunResult> RunProtocol(ProtocolKind kind,
                              const core::ProtocolConfig& config,
                              const Workload& workload, uint64_t seed,
                              ThreadPool* pool = nullptr,
                              int num_shards = 0,
                              const FaultOptions& faults = {});

/// Aggregated error statistics over repeated runs with fresh workload and
/// protocol randomness per repetition.
struct RepeatedRunStats {
  RunningStat max_abs_error;
  RunningStat mean_abs_error;
  RunningStat rmse;
  double total_wall_seconds = 0.0;
  int64_t repetitions = 0;
};

/// Runs `repetitions` independent (workload, protocol) pairs and aggregates
/// the error metrics. Repetition r uses workload seed base_seed*2r+1 and
/// protocol seed base_seed*2r+2 (all derived deterministically).
Result<RepeatedRunStats> RunRepeated(ProtocolKind kind,
                                     const core::ProtocolConfig& config,
                                     const WorkloadConfig& workload_config,
                                     int repetitions, uint64_t base_seed,
                                     ThreadPool* pool = nullptr,
                                     int num_shards = 0,
                                     const FaultOptions& faults = {});

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_RUNNER_H_
