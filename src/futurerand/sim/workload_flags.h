// The one command-line surface for choosing a workload: every tool that
// takes --workload (frsim, frload, bench_shootout) binds
// this struct to its FlagParser instead of hand-rolling a kind list, so a
// new WorkloadKind shows up everywhere by extending workload.{h,cc} alone.

#ifndef FUTURERAND_SIM_WORKLOAD_FLAGS_H_
#define FUTURERAND_SIM_WORKLOAD_FLAGS_H_

#include <cstdint>
#include <string>

#include "futurerand/common/flags.h"
#include "futurerand/common/result.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {

/// Caller-owned storage for the --workload flag family. Defaults mirror
/// WorkloadConfig's.
struct WorkloadFlags {
  std::string workload = "uniform";
  double workload_param = -1.0;
  double churn_join_fraction = 0.25;
  double churn_leave_fraction = 0.25;
  double drift_ramp = 8.0;
  int64_t shock_time = 0;
  double shock_fraction = 0.25;
  int64_t shock_width = 0;
  int64_t zipf_items = 64;
  double zipf_exponent = 1.1;
  int64_t zipf_track_rank = 1;
  std::string replay_path;

  /// Registers --workload plus every shape flag on `parser`. This struct
  /// must outlive the parser's Parse call.
  void Register(FlagParser* parser);

  /// Resolves the parsed flags into a validated WorkloadConfig for a
  /// population of `num_users` users over `num_periods` periods with a
  /// `max_changes` budget.
  Result<WorkloadConfig> ToConfig(int64_t num_users, int64_t num_periods,
                                  int64_t max_changes) const;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_WORKLOAD_FLAGS_H_
