// The one command-line surface for the flag families several tools share.
// Each family is a struct that owns its flag storage, registers its flags
// on a FlagParser, and converts the parsed values into the library's
// config types with validation. Tools bind whole groups instead of
// hand-copying flag blocks, so a family's names, defaults, help text and
// checks live only here:
//
//   WorkloadFlags    --workload + shape knobs   frsim, frload, bench_shootout
//   StoreFlags       --store, --sketch-*        frsim, bench_throughput,
//                                               bench_error_vs_d
//   DedupFlags       --dedup, --dedup-window    frsim, frload, frserve,
//                                               bench_throughput
//   ChannelFlags     12 fault rates,            frsim, frload
//                    --retransmit-budget
//   CheckpointFlags  --checkpoint-mode,         frsim, frserve
//                    --checkpoint-compact-every
//
// A tool that holds only part of a family (bench_throughput's lone
// --corrupt-rate and --checkpoint-mode) keeps that flag itself and parses
// it through the shared core::Parse* function.

#ifndef FUTURERAND_SIM_FLAG_GROUPS_H_
#define FUTURERAND_SIM_FLAG_GROUPS_H_

#include <cstdint>
#include <string>

#include "futurerand/common/flags.h"
#include "futurerand/common/result.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/server.h"
#include "futurerand/core/store.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::sim {

/// Caller-owned storage for the --workload flag family. Defaults mirror
/// WorkloadConfig's. Every group below must outlive the Parse call of the
/// parser it registers on.
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

  /// Registers --workload plus every shape flag on `parser`.
  void Register(FlagParser* parser);

  /// Resolves the parsed flags into a validated WorkloadConfig for a
  /// population of `num_users` users over `num_periods` periods with a
  /// `max_changes` budget.
  Result<WorkloadConfig> ToConfig(int64_t num_users, int64_t num_periods,
                                  int64_t max_changes) const;
};

/// --store and its count-sketch knobs. Defaults mirror core::StoreConfig's.
struct StoreFlags {
  std::string store = "dense";
  int64_t sketch_rows = core::StoreConfig().sketch_rows;
  int64_t sketch_width = core::StoreConfig().sketch_width;
  int64_t sketch_seed = static_cast<int64_t>(core::StoreConfig().sketch_seed);

  void Register(FlagParser* parser);

  /// Resolves the parsed flags into a validated StoreConfig. A --sketch-*
  /// value other than its default is an error under the dense store,
  /// which would silently ignore it.
  Result<core::StoreConfig> ToConfig() const;
};

/// --dedup and --dedup-window.
struct DedupFlags {
  bool dedup = false;
  int64_t dedup_window = 0;

  void Register(FlagParser* parser);

  /// Resolves the parsed flags into the policy pair sim::FaultOptions and
  /// net::ServiceConfig both carry. Fails as DedupWindowPolicy::Validate
  /// does: a bounded --dedup-window needs --dedup.
  Status ToPolicies(core::DedupPolicy* policy,
                    core::DedupWindowPolicy* window) const;
};

/// The twelve channel fault rates plus --retransmit-budget, bound straight
/// into a ChannelConfig. Defaults mirror ChannelConfig's and
/// FaultOptions'.
struct ChannelFlags {
  ChannelConfig channel;
  int64_t retransmit_budget = FaultOptions().retransmit_budget;

  void Register(FlagParser* parser);

  /// Copies the channel and the budget into `faults` and checks the
  /// channel on its own. The rules that span families (duplicates and
  /// delays need --dedup, the budget's range) are FaultOptions::Validate's:
  /// run it once every group is applied.
  Status ApplyTo(FaultOptions* faults) const;
};

/// --checkpoint-mode and --checkpoint-compact-every: the shape of a
/// durable checkpoint chain (see core::NextCheckpointMode).
struct CheckpointFlags {
  std::string checkpoint_mode = "full";
  int64_t checkpoint_compact_every = FaultOptions().checkpoint_compact_every;

  void Register(FlagParser* parser);

  /// Resolves the parsed flags into the chain fields sim::FaultOptions and
  /// net::ServiceConfig both carry, via core::ParseCheckpointMode and
  /// core::ValidateCheckpointChain.
  Status ToChain(core::CheckpointMode* mode, int64_t* compact_every) const;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_FLAG_GROUPS_H_
