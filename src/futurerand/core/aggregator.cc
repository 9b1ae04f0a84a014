#include "futurerand/core/aggregator.h"

#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/core/snapshot.h"

namespace futurerand::core {

Result<CheckpointMode> ParseCheckpointMode(const std::string& name) {
  if (name == "full") {
    return CheckpointMode::kFull;
  }
  if (name == "delta") {
    return CheckpointMode::kDelta;
  }
  return Status::InvalidArgument("--checkpoint-mode must be full or delta");
}

Status ValidateCheckpointChain(CheckpointMode mode, int64_t compact_every) {
  if (mode == CheckpointMode::kDelta && compact_every < 1) {
    return Status::InvalidArgument("checkpoint_compact_every must be >= 1");
  }
  return Status::OK();
}

CheckpointMode NextCheckpointMode(CheckpointMode mode, int64_t compact_every,
                                  bool has_base, int64_t checkpoints_taken) {
  const bool full = mode == CheckpointMode::kFull || !has_base ||
                    checkpoints_taken % compact_every == 0;
  return full ? CheckpointMode::kFull : CheckpointMode::kDelta;
}

ShardedAggregator::ShardedAggregator(int64_t num_periods,
                                     std::vector<double> level_scales,
                                     DedupPolicy dedup,
                                     DedupWindowPolicy window,
                                     StoreConfig store,
                                     EstimatorSpec estimator,
                                     std::vector<Shard> shards,
                                     Server snapshot)
    : num_periods_(num_periods),
      level_scales_(std::move(level_scales)),
      dedup_policy_(dedup),
      dedup_window_(window),
      store_config_(store.Canonical()),
      estimator_spec_(estimator),
      shards_(std::move(shards)),
      checkpoint_mutex_(std::make_unique<std::mutex>()),
      snapshot_mutex_(std::make_unique<std::mutex>()),
      snapshot_(std::move(snapshot)) {}

Result<ShardedAggregator> ShardedAggregator::ForProtocol(
    const ProtocolConfig& config, int num_shards, DedupPolicy dedup,
    DedupWindowPolicy window) {
  FR_ASSIGN_OR_RETURN(std::vector<double> scales,
                      ProtocolLevelScales(config));
  FR_ASSIGN_OR_RETURN(EstimatorSpec estimator, ProtocolEstimatorSpec(config));
  return WithScales(config.num_periods, std::move(scales), num_shards, dedup,
                    window, config.store, estimator);
}

Result<ShardedAggregator> ShardedAggregator::WithScales(
    int64_t num_periods, std::vector<double> level_scales, int num_shards,
    DedupPolicy dedup, DedupWindowPolicy window, StoreConfig store,
    EstimatorSpec estimator) {
  if (num_shards < 1) {
    return Status::InvalidArgument("need at least one shard");
  }
  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    FR_ASSIGN_OR_RETURN(
        Server server,
        Server::WithScales(num_periods, level_scales, dedup, window, store,
                           estimator));
    shards.push_back(Shard{std::make_unique<std::mutex>(),
                           std::move(server)});
  }
  // The snapshot shares the policy and store so MergeAggregatesOnly stays
  // compatible; it never ingests, so the policy is otherwise inert there.
  FR_ASSIGN_OR_RETURN(
      Server snapshot,
      Server::WithScales(num_periods, level_scales, dedup, window, store,
                         estimator));
  return ShardedAggregator(num_periods, std::move(level_scales), dedup,
                           window, store, estimator, std::move(shards),
                           std::move(snapshot));
}

int ShardedAggregator::ShardIndex(int64_t client_id) const {
  const auto shards = static_cast<int64_t>(shards_.size());
  return static_cast<int>(((client_id % shards) + shards) % shards);
}

void ShardedAggregator::MarkDirty() {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  snapshot_dirty_ = true;
}

template <typename Message, typename Apply>
Status ShardedAggregator::IngestBatch(std::span<const Message> batch,
                                      ThreadPool* pool,
                                      IngestOutcome* outcome,
                                      const Apply& apply) {
  if (outcome != nullptr) {
    *outcome = IngestOutcome{};
  }
  if (batch.empty()) {
    return Status::OK();
  }
  // Group record indices per shard so each shard mutex is taken once per
  // batch; per-shard record order is preserved (the counting sort below is
  // stable), which keeps Server's monotone-report-time validation
  // meaningful. One flat index array + per-shard offsets instead of a
  // vector-of-vectors: a single allocation, written sequentially. With one
  // shard the whole batch already belongs to it, so the sort (and the two
  // extra memory passes it costs on a large batch) is skipped entirely and
  // `apply` sees indices == nullptr, meaning the identity over the batch.
  const size_t num_shards = shards_.size();
  std::vector<size_t> index_by_shard;
  std::vector<size_t> offsets(num_shards + 1, 0);
  if (num_shards == 1) {
    offsets[1] = batch.size();
  } else {
    std::vector<uint32_t> shard_of(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto s = static_cast<uint32_t>(ShardIndex(batch[i].client_id));
      shard_of[i] = s;
      ++offsets[s + 1];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      offsets[s + 1] += offsets[s];
    }
    index_by_shard.resize(batch.size());
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      index_by_shard[cursor[shard_of[i]]++] = i;
    }
  }
  std::vector<Status> shard_status(num_shards);
  std::vector<IngestOutcome> shard_outcome(num_shards);
  auto ingest_shard = [&](size_t s) {
    const size_t count = offsets[s + 1] - offsets[s];
    if (count == 0) {
      return;
    }
    const size_t* indices =
        num_shards == 1 ? nullptr : index_by_shard.data() + offsets[s];
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    const int64_t dropped_before = shard.server.duplicates_dropped();
    const int64_t stale_before = shard.server.out_of_window_dropped();
    int64_t accepted = 0;
    {
      Status status = apply(shard.server, indices, count, &accepted);
      if (!status.ok()) {
        shard_status[s] = std::move(status);
      }
    }
    // Dirty for the next delta checkpoint iff anything stuck: every
    // accepted record either mutated server state or moved a drop
    // counter (which snapshots serialize). Rejected records mutate
    // nothing (Server validates before mutating), so an all-rejected
    // batch must not force this shard into every subsequent delta.
    if (accepted > 0) {
      ++shard.version;
    }
    // An accepted record either mutated state or was absorbed (as a
    // retransmission or behind the eviction watermark); the shard's drop
    // counters tell the cases apart.
    const int64_t deduped =
        shard.server.duplicates_dropped() - dropped_before;
    const int64_t out_of_window =
        shard.server.out_of_window_dropped() - stale_before;
    shard_outcome[s] =
        IngestOutcome{accepted - deduped - out_of_window, deduped,
                      out_of_window};
  };
  if (pool != nullptr && shards_.size() > 1) {
    pool->ParallelFor(static_cast<int64_t>(shards_.size()),
                      [&](int64_t begin, int64_t end) {
                        for (int64_t s = begin; s < end; ++s) {
                          ingest_shard(static_cast<size_t>(s));
                        }
                      });
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) {
      ingest_shard(s);
    }
  }
  if (outcome != nullptr) {
    for (const IngestOutcome& shard : shard_outcome) {
      outcome->applied += shard.applied;
      outcome->deduped += shard.deduped;
      outcome->out_of_window += shard.out_of_window;
    }
  }
  // Dirty even on error: a prefix of the batch may have been applied.
  MarkDirty();
  for (const Status& status : shard_status) {
    FR_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Status ShardedAggregator::IngestRegistrations(
    std::span<const RegistrationMessage> batch, ThreadPool* pool,
    IngestOutcome* outcome) {
  return IngestBatch(
      batch, pool, outcome,
      [&batch](Server& server, const size_t* indices, size_t count,
               int64_t* accepted) {
        if (indices == nullptr) {
          return server.RegisterClients(batch.first(count), accepted);
        }
        return server.RegisterClients(
            batch, std::span<const size_t>(indices, count), accepted);
      });
}

Status ShardedAggregator::IngestReports(std::span<const ReportMessage> batch,
                                        ThreadPool* pool,
                                        IngestOutcome* outcome) {
  // SubmitReports batches the per-level tree updates within same-time runs,
  // so a shard's dyadic counters are touched once per (level, time) instead
  // of once per record.
  return IngestBatch(batch, pool, outcome,
                     [&batch](Server& server, const size_t* indices,
                              size_t count, int64_t* accepted) {
                       if (indices == nullptr) {
                         return server.SubmitReports(batch.first(count),
                                                     accepted);
                       }
                       return server.SubmitReports(
                           batch, std::span<const size_t>(indices, count),
                           accepted);
                     });
}

Status ShardedAggregator::IngestEncoded(std::string_view bytes,
                                        ThreadPool* pool,
                                        IngestOutcome* outcome) {
  if (outcome != nullptr) {
    *outcome = IngestOutcome{};
  }
  FR_ASSIGN_OR_RETURN(WireBatchKind kind, PeekBatchKind(bytes));
  switch (kind) {
    case WireBatchKind::kRegistrationV2: {
      // The decoder verifies the FNV-1a trailer before returning any
      // record, so a corrupted batch is rejected here atomically with
      // kDataLoss — the NACK a sender retransmits on — and never reaches
      // a shard.
      FR_ASSIGN_OR_RETURN(std::vector<RegistrationMessage> batch,
                          DecodeRegistrationBatch(bytes));
      return IngestRegistrations(batch, pool, outcome);
    }
    case WireBatchKind::kReportV2:
    case WireBatchKind::kReportPackedV2: {
      FR_ASSIGN_OR_RETURN(std::vector<ReportMessage> batch,
                          DecodeReportBatch(bytes));
      return IngestReports(batch, pool, outcome);
    }
    case WireBatchKind::kServerState:
    case WireBatchKind::kServerStateSketch:
    case WireBatchKind::kAggregatorState:
    case WireBatchKind::kAggregatorDelta:
    case WireBatchKind::kFleetLongState:
      return Status::InvalidArgument(
          "snapshot blob is not an ingestible batch; use Restore");
  }
  return Status::Internal("unreachable wire batch kind");
}

namespace {

// The epoch is a fingerprint of the captured state, not a counter: a
// collector that restores an older full blob and keeps checkpointing can
// never mint an epoch that collides with a *different* base state, so a
// delta can never chain onto the wrong base. (Zero is reserved for "no
// chain anchor".)
uint64_t EpochFingerprint(const std::vector<std::string>& shard_states) {
  std::string digest;
  for (const std::string& state : shard_states) {
    wire_internal::PutFixed64(wire_internal::Fnv1a64(state), &digest);
  }
  const uint64_t epoch = wire_internal::Fnv1a64(digest);
  return epoch == 0 ? 1 : epoch;
}

}  // namespace

Result<std::string> ShardedAggregator::Checkpoint(CheckpointMode mode) {
  const std::lock_guard<std::mutex> checkpoint_lock(*checkpoint_mutex_);
  if (mode == CheckpointMode::kFull) {
    std::vector<std::string> shard_states;
    shard_states.reserve(shards_.size());
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(*shard.mutex);
      shard_states.push_back(EncodeServerState(shard.server));
      shard.checkpointed_version = shard.version;
    }
    checkpoint_epoch_ = EpochFingerprint(shard_states);
    checkpoint_seq_ = 0;
    return EncodeAggregatorState(shard_states, checkpoint_epoch_);
  }
  if (checkpoint_epoch_ == 0) {
    return Status::FailedPrecondition(
        "delta checkpoint needs a full checkpoint as its base");
  }
  ++checkpoint_seq_;
  AggregatorDeltaBlob delta;
  delta.num_shards = static_cast<int64_t>(shards_.size());
  delta.epoch = checkpoint_epoch_;
  delta.seq = checkpoint_seq_;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    if (shard.version == shard.checkpointed_version) {
      continue;  // untouched since the last checkpoint: not in the delta
    }
    delta.shards.push_back(ShardDelta{static_cast<int64_t>(s),
                                      EncodeServerState(shard.server)});
    shard.checkpointed_version = shard.version;
  }
  return EncodeAggregatorDelta(delta);
}

Result<Server> ShardedAggregator::DecodeAndValidateShard(
    std::string_view state) const {
  FR_ASSIGN_OR_RETURN(Server server, DecodeServerState(state));
  if (server.num_periods() != num_periods_) {
    return Status::InvalidArgument(
        "checkpoint num_periods mismatches aggregator");
  }
  if (server.level_scales() != level_scales_) {
    return Status::InvalidArgument(
        "checkpoint level scales mismatch aggregator");
  }
  if (server.dedup_policy() != dedup_policy_) {
    return Status::InvalidArgument(
        "checkpoint dedup policy mismatches aggregator");
  }
  if (server.dedup_window() != dedup_window_) {
    return Status::InvalidArgument(
        "checkpoint dedup window mismatches aggregator");
  }
  if (server.store_config() != store_config_) {
    return Status::InvalidArgument(
        "checkpoint store config mismatches aggregator");
  }
  if (server.estimator() != estimator_spec_) {
    return Status::InvalidArgument(
        "checkpoint estimator spec mismatches aggregator");
  }
  return server;
}

Status ShardedAggregator::Restore(std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(const WireBatchKind kind, PeekBatchKind(bytes));
  switch (kind) {
    case WireBatchKind::kAggregatorState:
      return RestoreFull(bytes);
    case WireBatchKind::kAggregatorDelta:
      return RestoreDelta(bytes);
    default:
      return Status::InvalidArgument(
          "not an aggregator checkpoint blob; cannot restore");
  }
}

Status ShardedAggregator::RestoreFull(std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(AggregatorStateBlob blob,
                      DecodeAggregatorState(bytes));
  // A chain-anchoring epoch must be the fingerprint of the state it
  // anchors: Checkpoint() always stamps it that way, so a mismatch means
  // a tool minted the blob through EncodeAggregatorState with a guessed
  // epoch. Adopting it verbatim could let a delta from a *different* base
  // chain onto this state, so refuse instead (pass epoch 0 — "no chain
  // anchor" — when exporting state no delta will extend).
  if (blob.epoch != 0 && blob.epoch != EpochFingerprint(blob.shards)) {
    return Status::InvalidArgument(
        "full checkpoint epoch does not fingerprint its own shard state; "
        "encode with epoch 0 unless the blob came from Checkpoint()");
  }
  // Decode and validate everything before touching any shard: Restore
  // either replaces the whole aggregator or leaves it unchanged.
  std::vector<Server> servers;
  servers.reserve(blob.shards.size());
  for (const std::string& state : blob.shards) {
    FR_ASSIGN_OR_RETURN(Server server, DecodeAndValidateShard(state));
    servers.push_back(std::move(server));
  }
  const bool resharded = servers.size() != shards_.size();
  if (resharded) {
    // Elastic resharding: re-bucket every client onto this aggregator's
    // id-mod-M layout. Estimates are bit-identical (queries sum shards).
    FR_ASSIGN_OR_RETURN(
        servers, ReshardServerStates(std::move(servers), num_shards()));
  }
  const std::lock_guard<std::mutex> checkpoint_lock(*checkpoint_mutex_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    shard.server = std::move(servers[s]);
    ++shard.version;
    // A same-layout restore leaves each shard exactly as the blob captured
    // it, so the chain may continue with deltas; a resharded restore broke
    // the blob's shard layout, so the chain restarts at the next kFull.
    shard.checkpointed_version = resharded ? shard.version - 1
                                           : shard.version;
  }
  checkpoint_epoch_ = resharded ? 0 : blob.epoch;
  checkpoint_seq_ = 0;
  MarkDirty();
  return Status::OK();
}

Status ShardedAggregator::RestoreDelta(std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(AggregatorDeltaBlob delta,
                      DecodeAggregatorDelta(bytes));
  if (delta.num_shards != static_cast<int64_t>(shards_.size())) {
    return Status::InvalidArgument(
        "delta checkpoint cannot change the shard count; restore a full "
        "checkpoint instead");
  }
  std::vector<Server> servers;
  servers.reserve(delta.shards.size());
  for (const ShardDelta& entry : delta.shards) {
    FR_ASSIGN_OR_RETURN(Server server, DecodeAndValidateShard(entry.state));
    servers.push_back(std::move(server));
  }
  const std::lock_guard<std::mutex> checkpoint_lock(*checkpoint_mutex_);
  if (delta.epoch != checkpoint_epoch_ ||
      delta.seq != checkpoint_seq_ + 1) {
    return Status::FailedPrecondition(
        "delta checkpoint does not extend this aggregator's chain "
        "position; restore its base full checkpoint and every prior delta "
        "in order first");
  }
  // The chain position alone is not enough: ingestion does not move it,
  // so an aggregator that ingested since its last checkpoint/restore has
  // diverged from the state the delta extends — applying it would mix
  // the two timelines shard by shard. Every shard must be clean.
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    if (shard.version != shard.checkpointed_version) {
      return Status::FailedPrecondition(
          "aggregator ingested since its checkpoint chain position; "
          "restore the base full checkpoint (and prior deltas) first");
    }
  }
  for (size_t e = 0; e < delta.shards.size(); ++e) {
    Shard& shard =
        shards_[static_cast<size_t>(delta.shards[e].shard_index)];
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    shard.server = std::move(servers[e]);
    ++shard.version;
    shard.checkpointed_version = shard.version;
  }
  checkpoint_seq_ = delta.seq;
  MarkDirty();
  return Status::OK();
}

Status ShardedAggregator::RefreshSnapshotLocked() const {
  if (!snapshot_dirty_) {
    return Status::OK();
  }
  FR_ASSIGN_OR_RETURN(Server fresh,
                      Server::WithScales(num_periods_, level_scales_,
                                         dedup_policy_, dedup_window_,
                                         store_config_, estimator_spec_));
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    // Aggregates only: the snapshot never ingests reports itself, and
    // re-registering every client per refresh would make each
    // query-after-ingest O(population) instead of O(d log d).
    FR_RETURN_NOT_OK(fresh.MergeAggregatesOnly(shard.server));
  }
  snapshot_ = std::move(fresh);
  snapshot_dirty_ = false;
  return Status::OK();
}

Result<double> ShardedAggregator::EstimateAt(int64_t t) const {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  FR_RETURN_NOT_OK(RefreshSnapshotLocked());
  return snapshot_.EstimateAt(t);
}

Result<std::vector<double>> ShardedAggregator::EstimateAll() const {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  FR_RETURN_NOT_OK(RefreshSnapshotLocked());
  return snapshot_.EstimateAll();
}

Result<std::vector<double>> ShardedAggregator::EstimateAllConsistent() const {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  FR_RETURN_NOT_OK(RefreshSnapshotLocked());
  return snapshot_.EstimateAllConsistent();
}

Result<double> ShardedAggregator::EstimateWindowDelta(int64_t l,
                                                      int64_t r) const {
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  FR_RETURN_NOT_OK(RefreshSnapshotLocked());
  return snapshot_.EstimateWindowDelta(l, r);
}

int64_t ShardedAggregator::num_clients() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    total += shard.server.num_clients();
  }
  return total;
}

int64_t ShardedAggregator::duplicates_dropped() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    total += shard.server.duplicates_dropped();
  }
  return total;
}

int64_t ShardedAggregator::out_of_window_dropped() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    total += shard.server.out_of_window_dropped();
  }
  return total;
}

int64_t ShardedAggregator::ApproxMemoryBytes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(*shard.mutex);
    total += shard.server.ApproxMemoryBytes();
  }
  const std::lock_guard<std::mutex> lock(*snapshot_mutex_);
  return total + snapshot_.ApproxMemoryBytes();
}

}  // namespace futurerand::core
