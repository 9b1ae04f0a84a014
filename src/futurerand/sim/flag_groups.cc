#include "futurerand/sim/flag_groups.h"

#include "futurerand/common/macros.h"

namespace futurerand::sim {

void WorkloadFlags::Register(FlagParser* parser) {
  std::string kinds;
  for (WorkloadKind kind : AllWorkloadKinds()) {
    if (!kinds.empty()) {
      kinds += " | ";
    }
    kinds += WorkloadKindToString(kind);
  }
  parser->AddString("workload", &workload, kinds);
  parser->AddDouble("workload_param", &workload_param,
                    "legacy shape knob, bursty/trend/static only "
                    "(see workload.h)");
  parser->AddDouble("churn-join-fraction", &churn_join_fraction,
                    "churn: fraction of users joining mid-stream, in [0, 1]");
  parser->AddDouble("churn-leave-fraction", &churn_leave_fraction,
                    "churn: fraction of present users leaving before the "
                    "end, in [0, 1]");
  parser->AddDouble("drift-ramp", &drift_ramp,
                    "drift: end/start change-intensity ratio (> 0; 1 = "
                    "uniform, > 1 = heating, < 1 = cooling)");
  parser->AddInt64("shock-time", &shock_time,
                   "shock: flash-crowd tick in [1, d] (0 picks d/2)");
  parser->AddDouble("shock-fraction", &shock_fraction,
                    "shock: population fraction hit by the flash crowd, "
                    "in [0, 1]");
  parser->AddInt64("shock-width", &shock_width,
                   "shock: revert window in ticks (0 picks max(1, d/16))");
  parser->AddInt64("zipf-items", &zipf_items,
                   "zipf: item-universe size (>= 1)");
  parser->AddDouble("zipf-exponent", &zipf_exponent,
                    "zipf: skew exponent s (> 0; larger = heavier head)");
  parser->AddInt64("zipf-track-rank", &zipf_track_rank,
                   "zipf: 1-based popularity rank of the tracked item");
  parser->AddString("replay", &replay_path,
                    "replay: path of a recorded t,truth series (the CSV "
                    "--csv / WriteRunCsv emits)");
}

Result<WorkloadConfig> WorkloadFlags::ToConfig(int64_t num_users,
                                               int64_t num_periods,
                                               int64_t max_changes) const {
  FR_ASSIGN_OR_RETURN(const WorkloadKind kind, ParseWorkloadKind(workload));
  WorkloadConfig config;
  config.kind = kind;
  config.num_users = num_users;
  config.num_periods = num_periods;
  config.max_changes = max_changes;
  config.param = workload_param;
  config.churn_join_fraction = churn_join_fraction;
  config.churn_leave_fraction = churn_leave_fraction;
  config.drift_ramp = drift_ramp;
  config.shock_time = shock_time;
  config.shock_fraction = shock_fraction;
  config.shock_width = shock_width;
  config.zipf_items = zipf_items;
  config.zipf_exponent = zipf_exponent;
  config.zipf_track_rank = zipf_track_rank;
  config.replay_path = replay_path;
  FR_RETURN_NOT_OK(config.Validate());
  if (kind == WorkloadKind::kReplay && config.replay_path.empty()) {
    return Status::InvalidArgument(
        "--workload=replay needs --replay=<path to a recorded t,truth "
        "series>");
  }
  return config;
}

void StoreFlags::Register(FlagParser* parser) {
  parser->AddString("store", &store,
                    "per-shard aggregate storage: dense (exact, O(d) per "
                    "shard) | sketch (count-sketch levels, O(levels*R*W) "
                    "per shard, bounded extra error)");
  parser->AddInt64("sketch-rows", &sketch_rows,
                   "count-sketch depth R (rows per sketched level), in "
                   "[1, 64]; only with --store=sketch");
  parser->AddInt64("sketch-width", &sketch_width,
                   "count-sketch width W (buckets per row), a power of two "
                   "in [8, 2^30]; only with --store=sketch");
  parser->AddInt64("sketch-seed", &sketch_seed,
                   "seed of the per-(level,row) hashes; part of the store "
                   "identity (merges require equal seeds); only with "
                   "--store=sketch");
}

Result<core::StoreConfig> StoreFlags::ToConfig() const {
  FR_ASSIGN_OR_RETURN(const core::StoreKind kind,
                      core::ParseStoreKind(store));
  const StoreFlags defaults;
  const bool sketch_knob_set = sketch_rows != defaults.sketch_rows ||
                               sketch_width != defaults.sketch_width ||
                               sketch_seed != defaults.sketch_seed;
  if (kind == core::StoreKind::kDense && sketch_knob_set) {
    return Status::InvalidArgument(
        "--sketch-rows, --sketch-width and --sketch-seed need "
        "--store=sketch");
  }
  const core::StoreConfig config =
      kind == core::StoreKind::kSketch
          ? core::StoreConfig::Sketch(static_cast<int32_t>(sketch_rows),
                                      sketch_width,
                                      static_cast<uint64_t>(sketch_seed))
          : core::StoreConfig::Dense();
  FR_RETURN_NOT_OK(config.Validate());
  return config;
}

void DedupFlags::Register(FlagParser* parser) {
  parser->AddBool("dedup", &dedup,
                  "idempotent ingest: duplicates/retries are absorbed, "
                  "making at-least-once delivery exact (frload and its "
                  "frserve must agree)");
  parser->AddInt64("dedup-window", &dedup_window,
                   "evict per-client dedup bits older than this many "
                   "boundaries behind each client's newest report (0 = "
                   "keep everything, which needs --d <= 8192; at most "
                   "8192); requires --dedup");
}

Status DedupFlags::ToPolicies(core::DedupPolicy* policy,
                              core::DedupWindowPolicy* window) const {
  *policy = dedup ? core::DedupPolicy::kIdempotent
                  : core::DedupPolicy::kStrict;
  *window = core::DedupWindowPolicy{dedup_window};
  return window->Validate(*policy);
}

void ChannelFlags::Register(FlagParser* parser) {
  parser->AddDouble("drop-rate", &channel.drop_rate,
                    "P(report lost in the channel); fleet protocols only");
  parser->AddDouble("dup-rate", &channel.duplicate_rate,
                    "P(report delivered twice); requires --dedup");
  parser->AddDouble("reorder-rate", &channel.reorder_rate,
                    "P(delivered batch arrives shuffled)");
  parser->AddDouble("corrupt-rate", &channel.corrupt_rate,
                    "P(one bit of the encoded batch flips); the receiver "
                    "NACKs it and the sender retransmits");
  parser->AddDouble("burst-enter-rate", &channel.burst_enter_rate,
                    "Gilbert-Elliott P(good->bad) per channel traversal; "
                    "enables the burst layer");
  parser->AddDouble("burst-exit-rate", &channel.burst_exit_rate,
                    "Gilbert-Elliott P(bad->good); expected burst length "
                    "is 1/rate traversals");
  parser->AddDouble("burst-drop-rate", &channel.burst_drop_rate,
                    "drop rate while the channel is in the bad state "
                    "(replaces --drop-rate there)");
  parser->AddDouble("burst-corrupt-rate", &channel.burst_corrupt_rate,
                    "corrupt rate while in the bad state (replaces "
                    "--corrupt-rate there)");
  parser->AddDouble("outage-rate", &channel.outage_enter_rate,
                    "P(a client goes dark, losing its reports), evaluated "
                    "per report — per-client fault correlation");
  parser->AddDouble("outage-recovery-rate", &channel.outage_exit_rate,
                    "P(a dark client recovers), evaluated per report");
  parser->AddDouble("delay-rate", &channel.delay_rate,
                    "P(a delivered report is delayed into a later tick's "
                    "batch); requires --dedup");
  parser->AddInt64("delay-max-ticks", &channel.delay_ticks_max,
                   "uniform delay bound in ticks (>= 1 when --delay-rate "
                   "is set)");
  parser->AddInt64("retransmit-budget", &retransmit_budget,
                   "max TOTAL transmissions per batch (the initial one plus "
                   "up to N-1 resends) before the run fails; size it "
                   "against the expected burst length");
}

Status ChannelFlags::ApplyTo(FaultOptions* faults) const {
  faults->channel = channel;
  faults->retransmit_budget = retransmit_budget;
  return channel.Validate();
}

void CheckpointFlags::Register(FlagParser* parser) {
  parser->AddString("checkpoint-mode", &checkpoint_mode,
                    "full | delta (delta checkpoints serialize only the "
                    "dirtied shards, with periodic full compactions)");
  parser->AddInt64("checkpoint-compact-every", &checkpoint_compact_every,
                   "under --checkpoint-mode=delta, take a full compaction "
                   "every this many checkpoints");
}

Status CheckpointFlags::ToChain(core::CheckpointMode* mode,
                                int64_t* compact_every) const {
  FR_ASSIGN_OR_RETURN(*mode, core::ParseCheckpointMode(checkpoint_mode));
  *compact_every = checkpoint_compact_every;
  return core::ValidateCheckpointChain(*mode, *compact_every);
}

}  // namespace futurerand::sim
