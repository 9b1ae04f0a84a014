// The server-side algorithm A_svr (Algorithm 2).
//
// The server partitions clients by their reported level h_u, accumulates the
// raw +/-1 reports per dyadic interval, and answers online queries
//   a_hat[t] = sum_{I_{h,j} in C(t)} scale_h * raw_sum(I_{h,j})
// where scale_h = (1 + log d) / c_gap(h) debiases the level-sampling and the
// randomizer (Observation 4.3 / Equation 12). In paper-faithful mode
// c_gap(h) is the same for every level.
//
// State persistence (checkpoint/restore) lives in core/snapshot.h; the byte
// layout of every serialized form is specified in docs/FORMATS.md.

#ifndef FUTURERAND_CORE_SERVER_H_
#define FUTURERAND_CORE_SERVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

#include "futurerand/common/result.h"
#include "futurerand/core/client_index.h"
#include "futurerand/core/config.h"
#include "futurerand/core/store.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {

/// How the server treats a report it has already seen. The paper assumes
/// exactly-once, in-order transport; a deployed collector sees at-least-once
/// delivery with retries, so duplicates and reordering are normal.
enum class DedupPolicy {
  /// Paper-faithful: a duplicate or non-monotone report time is an error.
  /// Cheapest (one int64 per client) but only correct behind an
  /// exactly-once, in-order transport.
  kStrict,
  /// Idempotent ingest: a level-h client reports at most once per dyadic
  /// boundary, so a per-client bitmap over its d/2^h boundaries detects
  /// retransmissions exactly. Duplicates are dropped (counted, not errors)
  /// and reports may arrive in any order, making at-least-once delivery
  /// bit-identical to exactly-once. Re-registering a client with its
  /// original level is likewise a counted no-op.
  kIdempotent,
};

const char* DedupPolicyToString(DedupPolicy policy);

/// Bounds the memory of the kIdempotent boundary bitmaps for year-scale
/// streams. Unbounded (the default), a level-h client's first report
/// commits its whole bitmap: d/2^h bits, rounded up to 64-bit words.
/// Bounded, the server keeps exact seen-bits only for a trailing window
/// behind each client's newest boundary and evicts everything older, so a
/// client holds at most (window + 62)/64 + 1 words (plus an 8-byte
/// eviction watermark) however long the stream runs. Either way a client
/// keeps at most kMaxRetainedBoundaries boundaries, so a horizon longer
/// than that needs a window.
///
/// Semantics: a report whose boundary is inside the retained window behaves
/// bit-identically to the unbounded policy. A report older than the evicted
/// horizon is dropped and counted (out_of_window_dropped()) — the server can
/// no longer tell a retransmission from a first delivery, so it refuses to
/// guess. Size the window to the transport's maximum reorder/retry horizon
/// (see docs/ARCHITECTURE.md "Operations").
struct DedupWindowPolicy {
  /// Boundaries of exact dedup memory retained behind each client's newest
  /// boundary. 0 = unbounded (never evict, never drop). Eviction works in
  /// whole 64-boundary words, so up to 63 extra boundaries may be
  /// retained; the words a client holds are fixed at
  /// min(its full bitmap, (window + 62)/64 + 1). Must not exceed the
  /// server's num_periods (checked at construction): no level has more
  /// than d boundaries, so a larger window would just be a non-canonical
  /// spelling of unbounded.
  int64_t window_boundaries = 0;

  /// The most boundaries a kIdempotent server keeps per client: an
  /// unbounded window needs num_periods <= this, and a bounded one must
  /// not exceed it (checked at construction). A client's first report
  /// commits its whole span, so this caps that span at 129 words (1032 B),
  /// and with it what one snapshot client record can make a restore
  /// allocate.
  static constexpr int64_t kMaxRetainedBoundaries = int64_t{1} << 13;

  /// True iff eviction is enabled.
  bool bounded() const { return window_boundaries > 0; }

  /// OK iff the window is non-negative and, when bounded, the policy is
  /// kIdempotent (kStrict keeps no bitmaps to evict).
  Status Validate(DedupPolicy policy) const;

  friend bool operator==(const DedupWindowPolicy&,
                         const DedupWindowPolicy&) = default;
};

/// How a server turns raw interval sums into estimates.
struct EstimatorSpec {
  enum class Mode {
    /// Algorithm 2: sum scale_h * raw_sum over the dyadic decomposition of
    /// the prefix [1..t]. The paper's estimator; the default.
    kDyadic = 0,
    /// The longitudinal kinds (kLGrr / kLOlh / kLoloha): every client sits
    /// at level 0 and reports its perturbed value each tick, so
    ///   a_hat[t] = scale_0 * (raw_sum(0, t) - n_0 * direct_offset)
    /// with scale_0 = 1/(u1 - u0), direct_offset = u0 and n_0 the
    /// registered level-0 client count. No dyadic tree is consulted.
    kDirect = 1,
  };

  Mode mode = Mode::kDyadic;
  /// kDirect only: the value-0 report mean u0 in (-1, 1). Must be 0 under
  /// kDyadic so snapshots stay canonical.
  double direct_offset = 0.0;

  bool direct() const { return mode == Mode::kDirect; }

  /// OK iff the offset is finite, inside (-1, 1), and zero under kDyadic.
  Status Validate() const;

  friend bool operator==(const EstimatorSpec&,
                         const EstimatorSpec&) = default;
};

/// The exact per-level debiasing scales of Algorithm 2 line 5 for the
/// protocol configuration: (1 + log d) / c_gap(h), where c_gap(h) matches
/// the randomizer the level-h clients instantiate. Shared by
/// Server::ForProtocol and ShardedAggregator::ForProtocol. For the
/// longitudinal kinds the vector is [1/(u1 - u0), 0, 0, ...]: only level 0
/// is populated and the level-sampling factor (1 + log d) does not apply
/// (pair with ProtocolEstimatorSpec).
Result<std::vector<double>> ProtocolLevelScales(const ProtocolConfig& config);

/// The estimator mode the protocol configuration requires: kDirect with
/// offset u0 for the longitudinal kinds, kDyadic otherwise.
Result<EstimatorSpec> ProtocolEstimatorSpec(const ProtocolConfig& config);

/// Aggregates client reports and produces the online estimates a_hat[t].
///
/// Move-only. NOT thread-safe: no member may be called concurrently with
/// any other. Concurrent service use goes through the thread-safe
/// ShardedAggregator (aggregator.h), which shards by client id and takes a
/// mutex per shard. All mutators validate before mutating and return a
/// Status; on error the server is unchanged unless noted otherwise.
class Server {
 public:
  /// Builds a server for the protocol configuration; computes the exact
  /// per-level debiasing scales from the randomizer kind, and holds its
  /// aggregate counters in the store config.store selects (dense by
  /// default; see core/store.h for the sketch backend). Errors on an
  /// invalid config — including out-of-range sketch parameters, rejected
  /// here at construction rather than when a snapshot is decoded — or an
  /// inconsistent (policy, window) pair.
  static Result<Server> ForProtocol(const ProtocolConfig& config,
                                    DedupPolicy policy = DedupPolicy::kStrict,
                                    DedupWindowPolicy window = {});

  /// Builds a server with externally supplied per-level report scales
  /// (scales[h] multiplies each raw report of a level-h client). Used by
  /// baseline protocols whose estimators carry extra factors. `store`
  /// injects the aggregate backend (default dense); the config is
  /// validated here, so invalid sketch parameters (width not a power of
  /// two, rows out of [1, 64]) fail at construction time. Errors unless
  /// num_periods is a power of two with one scale per dyadic order and the
  /// (policy, window) pair is consistent.
  /// `estimator` selects how queries read the sums (default: the paper's
  /// dyadic decomposition; kDirect for the longitudinal kinds, which also
  /// restricts registrations to level 0).
  static Result<Server> WithScales(int64_t num_periods,
                                   std::vector<double> level_scales,
                                   DedupPolicy policy = DedupPolicy::kStrict,
                                   DedupWindowPolicy window = {},
                                   StoreConfig store = {},
                                   EstimatorSpec estimator = {});

  Server(Server&&) = default;
  Server& operator=(Server&&) = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a client with its sampled level h in [0..log d]. Errors on
  /// out-of-range levels. A duplicate id is an error under kStrict; under
  /// kIdempotent a re-registration with the original level is a counted
  /// no-op (a different level is still an error).
  Status RegisterClient(int64_t client_id, int level);

  /// Batch registration: RegisterClient over batch[i] in order, stopping
  /// at the first error (registrations before it stay). The per-client
  /// columns are sized once for the batch's new ids (exactly, when the
  /// server was empty) rather than grown record by record. `*accepted`
  /// (optional) receives the number of registrations consumed without
  /// error, including absorbed re-registrations.
  Status RegisterClients(std::span<const RegistrationMessage> batch,
                         int64_t* accepted = nullptr);

  /// RegisterClients over a sub-sequence: registers batch[indices[i]] in
  /// index order (the sharded ingest's routing, as for SubmitReports).
  Status RegisterClients(std::span<const RegistrationMessage> batch,
                         std::span<const size_t> indices,
                         int64_t* accepted = nullptr);

  /// Ingests the report a level-h client emitted at time t (a multiple of
  /// 2^h). Under kStrict, t must be strictly later than the client's
  /// previous report; under kIdempotent, reports arrive in any order, a
  /// boundary already seen is dropped silently (duplicates_dropped()), and
  /// — with a bounded window — a boundary older than the client's evicted
  /// horizon is dropped silently too (out_of_window_dropped()). Errors on
  /// unregistered ids, out-of-range or misaligned times, and values other
  /// than -1/+1, all before any state changes.
  Status SubmitReport(int64_t client_id, int64_t time, int8_t report);

  /// Batch ingest: applies batch[i] in order with exactly SubmitReport's
  /// per-record semantics, stopping at the first error (records before it
  /// stay applied, as if submitted one by one). Within a run of records
  /// sharing a report time — the common case, since a fleet tick emits one
  /// batch per period — the per-level aggregate updates are accumulated in
  /// a small per-order buffer and flushed to the interval tree once per
  /// (level, time), turning d tree walks into one. `*accepted` (optional)
  /// receives the number of records consumed without error, including
  /// dropped duplicates.
  Status SubmitReports(std::span<const ReportMessage> batch,
                       int64_t* accepted = nullptr);

  /// SubmitReports over a sub-sequence: applies batch[indices[i]] in index
  /// order. Lets a sharded ingest route one decoded batch to many servers
  /// without materializing per-shard copies.
  Status SubmitReports(std::span<const ReportMessage> batch,
                       std::span<const size_t> indices,
                       int64_t* accepted = nullptr);

  /// SubmitReports over the reports of a verified packed batch whose ids
  /// are congruent to `shard` modulo `num_shards` (non-negative residues,
  /// as ShardedAggregator::ShardIndex routes them), applied straight from
  /// the bitmaps: the same per-record checks in id order, the same
  /// `*accepted`, the same first rejection and the same applied prefix as
  /// SubmitReports over those records. Under kStrict, while the client
  /// index is a progression, each presence word is checked whole (every
  /// report registered, aligned to its level and later than its client's
  /// last one) before any of it is recorded; a word that fails, and
  /// everything after it, takes the per-record path.
  Status SubmitPacked(const PackedReports& batch, int shard, int num_shards,
                      int64_t* accepted = nullptr);

  /// The online estimate a_hat[t] (Algorithm 2 line 6), valid as soon as
  /// every report for time <= t has been submitted. Requires 1 <= t <= d.
  Result<double> EstimateAt(int64_t t) const;

  /// Estimates for every t in [1..d].
  Result<std::vector<double>> EstimateAll() const;

  /// Offline-mode estimates with GLS consistency post-processing (see
  /// consistency.h): every dyadic interval's estimate is refined using the
  /// redundant estimates of its ancestors/descendants before the prefix
  /// sums are formed. Free under DP (pure post-processing); strictly
  /// reduces variance. Requires all reports to have been submitted —
  /// hence "offline": unlike EstimateAt, later reports change earlier
  /// answers.
  Result<std::vector<double>> EstimateAllConsistent() const;

  /// Estimates the net population change over the window [l..r]
  /// (1 <= l <= r <= d), i.e. a[r] - a[l-1]: how many more users hold 1 at
  /// the end of the window than just before it. Uses the minimal dyadic
  /// decomposition of [l..r] directly — at most 2*ceil(log2(r-l+2)) noisy
  /// terms instead of the up-to-2*(1+log d) terms of
  /// EstimateAt(r) - EstimateAt(l-1), so short windows are strictly less
  /// noisy. Valid once all reports for times <= r are in.
  Result<double> EstimateWindowDelta(int64_t l, int64_t r) const;

  /// Merges the accumulators of `other` (same shape, scales, policies) into
  /// this server; client registrations and dedup state are combined. Errors
  /// if shapes/policies mismatch or the client populations overlap (merged
  /// shards must partition clients). On error this server may have absorbed
  /// a prefix of `other`'s clients — merge into a scratch server when that
  /// matters.
  Status Merge(const Server& other);

  /// Merges only the aggregate state of `other` — interval sums and
  /// per-level client counts — skipping the per-client registration maps.
  /// The result answers every Estimate* query identically to a full Merge
  /// but must not ingest further reports (it does not know `other`'s
  /// clients). Lets a read-only query snapshot over sharded servers refresh
  /// in O(d) per shard instead of O(clients).
  Status MergeAggregatesOnly(const Server& other);

  int64_t num_periods() const { return num_periods_; }
  int64_t num_clients() const { return clients_.size(); }

  /// The aggregate-store configuration this server was built with, in
  /// canonical form. Part of the server's identity: Merge, restore and
  /// resharding require equal store configs.
  const StoreConfig& store_config() const { return store_config_; }

  /// Number of registered clients at level h. FR_CHECKs the range.
  int64_t ClientCountAtLevel(int level) const;

  /// The debiasing scale applied to level-h reports. FR_CHECKs the range.
  double ScaleAtLevel(int level) const;

  /// All per-level debiasing scales, indexed by order h.
  const std::vector<double>& level_scales() const { return level_scales_; }

  /// The estimator this server answers queries with. Part of the server's
  /// identity like the scales: Merge, restore and resharding require equal
  /// estimator specs.
  const EstimatorSpec& estimator() const { return estimator_spec_; }

  DedupPolicy dedup_policy() const { return dedup_policy_; }

  /// The eviction policy this server was built with (inert under kStrict).
  const DedupWindowPolicy& dedup_window() const { return dedup_window_; }

  /// Retransmissions absorbed under kIdempotent: duplicate reports dropped
  /// plus same-level re-registrations ignored. Always 0 under kStrict.
  int64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// Reports dropped because their boundary was older than the client's
  /// evicted dedup horizon. Always 0 under an unbounded window.
  int64_t out_of_window_dropped() const { return out_of_window_dropped_; }

  /// Estimated heap footprint of the server's state in bytes: interval
  /// sums, registration maps, and dedup bookkeeping (watermarks or bitmap
  /// words). An accounting estimate (container overhead is approximated),
  /// monotone in the true footprint — the number to watch when sizing a
  /// DedupWindowPolicy.
  int64_t ApproxMemoryBytes() const;

 private:
  friend struct ServerStateCodec;  // core/snapshot.cc: checkpoint wire format

  /// span_ranks_ value of a client that has not reported yet.
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  Server(int64_t num_periods, std::vector<double> level_scales,
         DedupPolicy policy, DedupWindowPolicy window, StoreConfig store,
         EstimatorSpec estimator);

  Status CheckMergeCompatible(const Server& other) const;
  void AddSums(const Server& other);
  Status RegisterClientStrict(int64_t client_id, int level);

  /// Shared body of both RegisterClients overloads.
  Status RegisterRecords(std::span<const RegistrationMessage> batch,
                         const size_t* indices, size_t count,
                         int64_t* accepted);

  /// Makes room for `additional` more clients in the index and in every
  /// populated column: exactly size + additional when that at least
  /// doubles the columns, else double, so a stream of small batches still
  /// costs amortized O(1) per client.
  void ReserveClients(size_t additional);

  /// CheckAndRecordReport's verdict on one record. The first two accept
  /// it; every other value rejects it, and RejectionStatus spells that
  /// rejection as the Status callers see. A plain enum keeps the per-record
  /// path free of Status construction; only a failing record builds one.
  enum class ReportCheck : uint8_t {
    kApply,           // add the report to the interval sums
    kAbsorb,          // counted drop (duplicate / out-of-window)
    kBadValue,        // value not -1 or +1
    kUnregistered,    // unknown client id
    kTimeOutOfRange,  // time outside [1..d]
    kMisaligned,      // time not a multiple of 2^level
    kStale,           // kStrict: duplicate or out-of-order time
  };

  /// The Status of a rejecting verdict (check > kAbsorb).
  static Status RejectionStatus(ReportCheck check);

  /// All of SubmitReport except the aggregate update, in the exact check
  /// order of the scalar path: value, registration, range, alignment,
  /// dedup. On kApply or kAbsorb, *level_out is the client's level and
  /// dedup state has been recorded; a rejection mutates nothing.
  ReportCheck CheckAndRecordReport(int64_t client_id, int64_t time,
                                   int8_t report, int* level_out);

  /// The kIdempotent dedup step of CheckAndRecordReport: records
  /// `boundary` (0-based, in units of the level) in the span of the
  /// level-`level` client at `slot`, or absorbs it as a retransmission or
  /// an out-of-window straggler. Always inlined; a retransmission costs no
  /// branch: the seen bit is read, set and counted, and it is the verdict
  /// (kApply is 0, kAbsorb 1).
  ReportCheck RecordBoundary(size_t slot, int level, int64_t boundary);

  /// Shared body of both SubmitReports overloads: applies
  /// batch[indices ? indices[i] : i] for i in [0..count).
  Status IngestRecords(std::span<const ReportMessage> batch,
                       const size_t* indices, size_t count,
                       int64_t* accepted);

  /// Words of a full kIdempotent boundary bitmap for a level-h client:
  /// one bit per multiple of 2^h in [1..d].
  int64_t BitmapWordsAtLevel(int level) const {
    return ((num_periods_ >> level) + 63) / 64;
  }

  /// S_h, the fixed words of every level-h span: the full bitmap when the
  /// window is unbounded, else at most the words a window can straddle (a
  /// window of W boundaries starting at bit o of a word covers
  /// ceil((o + W) / 64) words, at most (W + 62)/64 + 1 at o = 63). Inline
  /// arithmetic on two members: the dedup step reads it per report.
  int64_t SpanWordsAtLevel(int level) const {
    const int64_t full = BitmapWordsAtLevel(level);
    const int64_t window = (dedup_window_.window_boundaries + 62) / 64 + 1;
    return dedup_window_.bounded() && window < full ? window : full;
  }

  /// The eviction watermark a bounded window keeps for a client whose
  /// highest boundary is `frontier`: the first word still held.
  int64_t WindowBaseWord(int64_t frontier) const;

  /// Appends a zeroed span to the level's arena and returns its rank. The
  /// arena grows geometrically, and a level whose clients all report ends
  /// exactly sized.
  uint32_t AppendSpan(int level);

  /// The span of the level-h client at `slot`; it must have reported.
  uint64_t* SpanOf(size_t slot, int level);
  const uint64_t* SpanOf(size_t slot, int level) const;

  /// Copies the dedup state of `source`'s client at `source_slot` into
  /// this server's newest slot, which RegisterClientStrict just added for
  /// the same client (Merge and resharding).
  void AdoptDedupState(const Server& source, size_t source_slot, int level);

  /// Moves a span's window up by `drop` whole words: the words behind the
  /// new watermark are evicted and the freed top words are zeroed.
  static void EvictBehindWindow(uint64_t* span, int64_t span_words,
                                int64_t drop);

  /// True iff the per-slot watermark column is populated: under kStrict,
  /// and under kIdempotent with a bounded window.
  bool HasWatermarks() const {
    return dedup_policy_ == DedupPolicy::kStrict || dedup_window_.bounded();
  }

  DedupPolicy dedup_policy_;
  DedupWindowPolicy dedup_window_;
  std::vector<double> level_scales_;
  int64_t num_periods_;
  StoreConfig store_config_;  // canonical form
  EstimatorSpec estimator_spec_;
  // Raw sum of +/-1 reports per interval, behind the pluggable backend
  // (exact counters under kDense, count-sketch rows under kSketch).
  std::unique_ptr<AggregateStore> sums_;

  // Per-client state, columnar: clients_ maps id -> dense slot, and the
  // vectors below are indexed by slot (only the policy's columns are
  // populated). An arithmetic slot lookup (a hash probe once ids leave
  // their progression) plus contiguous column loads per report. A kStrict
  // client costs 9 bytes: its level and its last report time. A
  // kIdempotent client costs 5: its level and its span rank, plus an
  // 8-byte watermark under a bounded window, plus S_h words once it has
  // reported.
  ClientIndex clients_;
  // Sampled order h per slot; h < num_orders <= 64 fits a byte.
  std::vector<int8_t> client_levels_;
  // Stale-report watermark per slot. kStrict: the client's last accepted
  // report time (monotonicity check; 0 = never reported). kIdempotent with
  // a bounded window: base_word, the first 64-boundary word its span still
  // holds; everything below 64 * base_word is evicted. Empty otherwise.
  std::vector<int64_t> watermarks_;
  // kIdempotent: per slot, the rank of the client's span in its level's
  // arena; kNoSpan until its first report.
  std::vector<uint32_t> span_ranks_;

  std::vector<int64_t> level_counts_;
  int64_t duplicates_dropped_ = 0;
  int64_t out_of_window_dropped_ = 0;

  // kIdempotent: per level h, the spans of its reporting clients back to
  // back, S_h words each. Word w of a span holds boundaries
  // 64 * (base_word + w) .. 64 * (base_word + w) + 63; the client's
  // frontier is the span's highest set bit. Empty under kStrict, and kept
  // last, behind the members the kStrict per-report path reads.
  std::vector<std::vector<uint64_t>> span_arenas_;
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_SERVER_H_
