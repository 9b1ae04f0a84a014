// Batch-first, thread-safe aggregation service: a façade over K Server
// shards keyed by client id.
//
// Ingestion takes whole batches — decoded messages or raw wire bytes — and
// groups them per shard so each shard's mutex is taken once per batch;
// independent batches ingest concurrently from any number of threads. The
// query surface (EstimateAt / EstimateAll / EstimateAllConsistent /
// EstimateWindowDelta) answers from a lazily merged snapshot of the shards,
// rebuilt only when a dirty flag says ingestion happened since the last
// query. Estimates are bit-identical for any shard count: the shards hold
// integer report sums, and integer addition is order-independent.
//
// Durability is elastic (see docs/ARCHITECTURE.md "Operations"): full
// checkpoints serialize every shard, delta checkpoints only the shards
// dirtied since the previous one, and Restore() accepts either — including
// a full checkpoint from an aggregator with a different shard count, which
// is re-bucketed by client id on the way in.

#ifndef FUTURERAND_CORE_AGGREGATOR_H_
#define FUTURERAND_CORE_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/config.h"
#include "futurerand/core/server.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {

/// How far a batch ingest got: filled (when requested) by every Ingest*
/// call, including failed ones, so callers can resume precisely. On an
/// error, each shard stops at its first bad record; `applied` counts the
/// records that mutated shard state across all shards. Under
/// DedupPolicy::kIdempotent the safe retry after any error is to resend the
/// whole batch — already-applied records land in `deduped` instead of
/// double-counting.
struct IngestOutcome {
  int64_t applied = 0;        // records that mutated shard state
  int64_t deduped = 0;        // retransmissions absorbed (kIdempotent only)
  int64_t out_of_window = 0;  // dropped behind an eviction watermark
};

/// What a Checkpoint() call serializes.
enum class CheckpointMode {
  /// Every shard, into one self-contained kAggregatorState blob. Starts a
  /// new checkpoint epoch that subsequent deltas chain to.
  kFull,
  /// Only the shards dirtied since the previous checkpoint (either kind),
  /// into a kAggregatorDelta blob. Errors (FailedPrecondition) unless a
  /// full checkpoint was taken or restored first — a delta needs a base.
  /// The chain advances when the delta is TAKEN, not when it is stored:
  /// if persisting the returned blob fails, take a kFull next (further
  /// deltas would leave an unrecoverable seq gap).
  kDelta,
};

/// Thread-safe sharded aggregator. Move-only (but moving is NOT thread-safe:
/// quiesce all other calls first). Safe for concurrent Ingest*, Estimate*,
/// Checkpoint and Restore calls; a query or checkpoint concurrent with an
/// in-flight ingest may see a prefix of that batch, but every call issued
/// after an ingest returns sees all of it.
class ShardedAggregator {
 public:
  /// Builds `num_shards` Server shards (>= 1) for the protocol
  /// configuration, with the exact per-level debiasing scales; every shard
  /// holds its counters in the aggregate store config.store selects (dense
  /// by default, count-sketch for huge domains — see core/store.h). With
  /// DedupPolicy::kIdempotent, at-least-once delivery (duplicates, retries,
  /// reordering) produces estimates bit-identical to exactly-once; `window`
  /// optionally bounds the per-client dedup memory (see DedupWindowPolicy).
  /// Invalid sketch parameters fail here, at construction time.
  static Result<ShardedAggregator> ForProtocol(
      const ProtocolConfig& config, int num_shards,
      DedupPolicy dedup = DedupPolicy::kStrict,
      DedupWindowPolicy window = {});

  /// Builds shards with externally supplied per-level report scales (for
  /// baseline protocols whose estimators carry extra factors, e.g. the
  /// Erlingsson server). `store` injects the per-shard aggregate backend
  /// (default dense), validated at construction time like Server::WithScales.
  /// `estimator` selects the query-time estimator every shard (and the
  /// merged snapshot) runs — kDirect for the longitudinal protocols.
  static Result<ShardedAggregator> WithScales(
      int64_t num_periods, std::vector<double> level_scales, int num_shards,
      DedupPolicy dedup = DedupPolicy::kStrict,
      DedupWindowPolicy window = {}, StoreConfig store = {},
      EstimatorSpec estimator = {});

  ShardedAggregator(ShardedAggregator&&) = default;
  ShardedAggregator& operator=(ShardedAggregator&&) = default;
  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Registers a batch of clients (id + sampled level). With a pool, shards
  /// ingest their slices concurrently. Batches are not atomic: on error,
  /// records before the offending one (per shard) stay applied and the
  /// first error (in shard order) is returned; `*outcome`, if given, is
  /// filled either way.
  Status IngestRegistrations(std::span<const RegistrationMessage> batch,
                             ThreadPool* pool = nullptr,
                             IngestOutcome* outcome = nullptr);

  /// Ingests a batch of perturbed reports; same concurrency and error
  /// semantics as IngestRegistrations.
  Status IngestReports(std::span<const ReportMessage> batch,
                       ThreadPool* pool = nullptr,
                       IngestOutcome* outcome = nullptr);

  /// Ingests raw wire bytes — a registration or report batch, detected
  /// from the header — with exactly one decode and no caller-side
  /// fan-out. Snapshot and delta blobs are rejected: restoring state is
  /// Restore's job, not an ingestion side effect.
  ///
  /// Corruption verdict (the NACK a sender keys retransmission off): a
  /// batch garbled in flight fails with StatusCode::kDataLoss (the FNV-1a
  /// trailer is verified before any record is decoded, so nothing is
  /// applied).
  Status IngestEncoded(std::string_view bytes, ThreadPool* pool = nullptr,
                       IngestOutcome* outcome = nullptr);

  /// Serializes shard state into one versioned, checksummed blob (see
  /// core/snapshot.h and docs/FORMATS.md): every shard under kFull, only
  /// the dirtied shards under kDelta. Shards are captured one at a time:
  /// concurrent ingestion is safe but lands in the checkpoint only
  /// partially — quiesce ingestion for a point-in-time snapshot.
  /// Concurrent Checkpoint/Restore calls serialize against each other.
  Result<std::string> Checkpoint(CheckpointMode mode = CheckpointMode::kFull);

  /// Replaces shard state from a Checkpoint blob, full or delta.
  ///
  /// A full blob must match this aggregator's shape (num_periods, scales,
  /// dedup policy and window); its shard count may differ, in which case
  /// every client's state is re-bucketed by id onto this aggregator's
  /// shards (elastic resharding) — estimates stay bit-identical either
  /// way, and ingestion resumes exactly where the checkpoint left off. A
  /// resharded restore breaks the delta chain: take a full checkpoint
  /// before the next kDelta.
  ///
  /// A delta blob applies only on top of its exact base: same shard
  /// count, a chain position (epoch, seq) this aggregator is at, and no
  /// ingestion since that position — restore the base full blob, then
  /// each delta in order, before resuming ingest. Anything else is a
  /// FailedPrecondition.
  ///
  /// On any error the aggregator is unchanged. Like Checkpoint, quiesce
  /// ingestion first: shards are swapped one at a time, so a batch
  /// ingested concurrently with Restore may survive on some shards and be
  /// wiped on others.
  Status Restore(std::string_view bytes);

  /// The online estimate a_hat[t]; see Server::EstimateAt.
  Result<double> EstimateAt(int64_t t) const;

  /// Estimates for every t in [1..d]; see Server::EstimateAll.
  Result<std::vector<double>> EstimateAll() const;

  /// Offline estimates with GLS tree-consistency post-processing; see
  /// Server::EstimateAllConsistent.
  Result<std::vector<double>> EstimateAllConsistent() const;

  /// Net population change over [l..r]; see Server::EstimateWindowDelta.
  Result<double> EstimateWindowDelta(int64_t l, int64_t r) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t num_periods() const { return num_periods_; }

  DedupPolicy dedup_policy() const { return dedup_policy_; }

  /// The dedup eviction policy every shard was built with.
  const DedupWindowPolicy& dedup_window() const { return dedup_window_; }

  /// The aggregate-store configuration every shard was built with
  /// (canonical form). Restored checkpoints must match it.
  const StoreConfig& store_config() const { return store_config_; }

  /// The estimator every shard was built with. Restored checkpoints must
  /// match it.
  const EstimatorSpec& estimator() const { return estimator_spec_; }

  /// Registered clients, summed over shards.
  int64_t num_clients() const;

  /// Retransmissions absorbed under kIdempotent, summed over shards.
  int64_t duplicates_dropped() const;

  /// Reports dropped behind the eviction watermark, summed over shards.
  /// Always 0 under an unbounded DedupWindowPolicy.
  int64_t out_of_window_dropped() const;

  /// Estimated heap footprint of all shard state plus the query snapshot,
  /// in bytes; see Server::ApproxMemoryBytes.
  int64_t ApproxMemoryBytes() const;

  /// The shard a client id maps to (id mod num_shards, non-negative).
  int ShardIndex(int64_t client_id) const;

 private:
  struct Shard {
    std::unique_ptr<std::mutex> mutex;
    Server server;
    // Checkpoint dirtiness, guarded by `mutex`: `version` bumps on every
    // mutation (ingest or restore), `checkpointed_version` records the
    // version the last checkpoint captured. They differ iff the shard
    // belongs in the next delta.
    uint64_t version = 0;
    uint64_t checkpointed_version = 0;
  };

  ShardedAggregator(int64_t num_periods, std::vector<double> level_scales,
                    DedupPolicy dedup, DedupWindowPolicy window,
                    StoreConfig store, EstimatorSpec estimator,
                    std::vector<Shard> shards, Server snapshot);

  // Re-merges every shard into snapshot_ if ingestion happened since the
  // last refresh. Caller holds *snapshot_mutex_.
  Status RefreshSnapshotLocked() const;

  void MarkDirty();

  // Decodes and shape-validates one shard blob against this aggregator's
  // configuration.
  Result<Server> DecodeAndValidateShard(std::string_view state) const;

  Status RestoreFull(std::string_view bytes);
  Status RestoreDelta(std::string_view bytes);

  template <typename Message, typename Apply>
  Status IngestBatch(std::span<const Message> batch, ThreadPool* pool,
                     IngestOutcome* outcome, const Apply& apply);

  int64_t num_periods_;
  std::vector<double> level_scales_;
  DedupPolicy dedup_policy_;
  DedupWindowPolicy dedup_window_;
  StoreConfig store_config_;  // canonical form
  EstimatorSpec estimator_spec_;
  std::vector<Shard> shards_;

  // Checkpoint chain position, guarded by *checkpoint_mutex_ (which also
  // serializes whole Checkpoint/Restore calls against each other):
  // checkpoint_epoch_ fingerprints the last full checkpoint's state
  // (FNV-1a over the shard payloads; 0 = none yet), and checkpoint_seq_
  // counts the deltas taken since it.
  std::unique_ptr<std::mutex> checkpoint_mutex_;
  uint64_t checkpoint_epoch_ = 0;
  uint64_t checkpoint_seq_ = 0;

  // Lazily merged view of all shards; valid iff !snapshot_dirty_.
  mutable std::unique_ptr<std::mutex> snapshot_mutex_;
  mutable Server snapshot_;
  mutable bool snapshot_dirty_ = false;
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_AGGREGATOR_H_
