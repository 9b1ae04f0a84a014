#include "futurerand/core/server.h"

#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include <algorithm>

#include "futurerand/common/macros.h"
#include "futurerand/common/math.h"
#include "futurerand/core/consistency.h"
#include "futurerand/dyadic/decomposition.h"
#include "futurerand/dyadic/tree.h"
#include "futurerand/randomizer/longitudinal.h"

namespace futurerand::core {

Server::Server(int64_t num_periods, std::vector<double> level_scales,
               DedupPolicy policy, DedupWindowPolicy window,
               StoreConfig store, EstimatorSpec estimator)
    : dedup_policy_(policy),
      dedup_window_(window),
      level_scales_(std::move(level_scales)),
      num_periods_(num_periods),
      store_config_(store.Canonical()),
      estimator_spec_(estimator),
      sums_(MakeAggregateStore(store_config_, num_periods)),
      level_counts_(level_scales_.size(), 0) {
  if (dedup_policy_ == DedupPolicy::kIdempotent) {
    span_arenas_.resize(level_scales_.size());
  }
}

Status EstimatorSpec::Validate() const {
  if (mode != Mode::kDyadic && mode != Mode::kDirect) {
    return Status::InvalidArgument("unknown estimator mode");
  }
  if (mode == Mode::kDyadic) {
    if (direct_offset != 0.0) {
      return Status::InvalidArgument(
          "the dyadic estimator carries no offset; use 0");
    }
    return Status::OK();
  }
  if (!std::isfinite(direct_offset) || direct_offset <= -1.0 ||
      direct_offset >= 1.0) {
    return Status::InvalidArgument(
        "direct estimator offset (u0) must lie in (-1, 1)");
  }
  return Status::OK();
}

const char* DedupPolicyToString(DedupPolicy policy) {
  switch (policy) {
    case DedupPolicy::kStrict:
      return "strict";
    case DedupPolicy::kIdempotent:
      return "idempotent";
  }
  return "unknown";
}

Status DedupWindowPolicy::Validate(DedupPolicy policy) const {
  if (window_boundaries < 0) {
    return Status::InvalidArgument("dedup window must be >= 0");
  }
  if (bounded() && policy != DedupPolicy::kIdempotent) {
    return Status::InvalidArgument(
        "a bounded dedup window requires DedupPolicy::kIdempotent");
  }
  return Status::OK();
}

Result<std::vector<double>> ProtocolLevelScales(
    const ProtocolConfig& config) {
  FR_RETURN_NOT_OK(config.Validate());
  const int orders = config.num_orders();
  std::vector<double> scales(static_cast<size_t>(orders));
  if (rand::IsLongitudinalKind(config.randomizer)) {
    // Every longitudinal client sits at level 0 and reports each tick, so
    // the only live scale inverts the estimator gap u1 - u0 — no
    // (1 + log d) level-sampling factor. Higher orders hold no reports;
    // their zero scales keep any stray read harmless.
    FR_ASSIGN_OR_RETURN(
        const double gap,
        rand::ExactCGap(config.randomizer, config.max_changes, config.epsilon,
                        config.longitudinal_alpha));
    scales[0] = 1.0 / gap;
    return scales;
  }
  for (int h = 0; h < orders; ++h) {
    // Algorithm 2 line 5: (1 + log d) * c_gap^{-1}. The c_gap must match the
    // randomizer the level-h clients instantiated.
    FR_ASSIGN_OR_RETURN(
        double c_gap,
        rand::ExactCGap(config.randomizer, config.SupportAtLevel(h),
                        config.epsilon));
    scales[static_cast<size_t>(h)] =
        static_cast<double>(orders) / c_gap;
  }
  return scales;
}

Result<EstimatorSpec> ProtocolEstimatorSpec(const ProtocolConfig& config) {
  FR_RETURN_NOT_OK(config.Validate());
  EstimatorSpec spec;
  if (rand::IsLongitudinalKind(config.randomizer)) {
    FR_ASSIGN_OR_RETURN(const rand::LongitudinalSpec longitudinal,
                        rand::MakeLongitudinalSpec(config.randomizer,
                                                   config.epsilon,
                                                   config.longitudinal_alpha));
    spec.mode = EstimatorSpec::Mode::kDirect;
    spec.direct_offset = longitudinal.u0;
  }
  return spec;
}

Result<Server> Server::ForProtocol(const ProtocolConfig& config,
                                   DedupPolicy policy,
                                   DedupWindowPolicy window) {
  FR_ASSIGN_OR_RETURN(std::vector<double> scales,
                      ProtocolLevelScales(config));
  FR_ASSIGN_OR_RETURN(const EstimatorSpec estimator,
                      ProtocolEstimatorSpec(config));
  // Through WithScales so the (policy, window, num_periods, store) checks
  // live in exactly one place.
  return WithScales(config.num_periods, std::move(scales), policy, window,
                    config.store, estimator);
}

Result<Server> Server::WithScales(int64_t num_periods,
                                  std::vector<double> level_scales,
                                  DedupPolicy policy,
                                  DedupWindowPolicy window,
                                  StoreConfig store,
                                  EstimatorSpec estimator) {
  FR_RETURN_NOT_OK(window.Validate(policy));
  FR_RETURN_NOT_OK(estimator.Validate());
  // Construction-time, not decode-time: a server with out-of-range sketch
  // parameters must never exist, so no snapshot of one can either.
  FR_RETURN_NOT_OK(store.Validate());
  if (num_periods < 1 || !IsPowerOfTwo(static_cast<uint64_t>(num_periods))) {
    return Status::InvalidArgument("num_periods must be a power of two");
  }
  if (window.window_boundaries > num_periods) {
    // No level has more than d boundaries, so a larger window never
    // evicts; spelling it 0 keeps snapshots canonical (the decoder
    // rejects window > d).
    return Status::InvalidArgument(
        "dedup window exceeds the horizon; use 0 for unbounded");
  }
  if (policy == DedupPolicy::kIdempotent &&
      (window.bounded() ? window.window_boundaries : num_periods) >
          DedupWindowPolicy::kMaxRetainedBoundaries) {
    // A client's first report commits its whole span (SpanWordsAtLevel),
    // so an uncapped one would let a single report, or a 5-byte snapshot
    // record, commit d/64 words.
    return Status::InvalidArgument(
        "kIdempotent dedup keeps at most 8192 boundaries per client; "
        "a longer horizon needs a dedup window of at most 8192");
  }
  const auto expected =
      static_cast<size_t>(Log2Exact(static_cast<uint64_t>(num_periods)) + 1);
  if (level_scales.size() != expected) {
    return Status::InvalidArgument("need one scale per dyadic order");
  }
  return Server(num_periods, std::move(level_scales), policy, window, store,
                estimator);
}

Status Server::RegisterClientStrict(int64_t client_id, int level) {
  if (level < 0 || level >= static_cast<int>(level_scales_.size())) {
    return Status::InvalidArgument("level out of range");
  }
  if (estimator_spec_.direct() && level != 0) {
    // The direct estimator reads only the order-0 row; a deeper client's
    // reports would silently vanish from every query.
    return Status::InvalidArgument(
        "direct-estimator servers accept only level-0 clients");
  }
  if (clients_.Find(client_id) >= 0) {
    return Status::AlreadyExists("client already registered");
  }
  clients_.Insert(client_id);
  client_levels_.push_back(static_cast<int8_t>(level));
  // Only the active policy's columns are populated (the others stay empty).
  if (dedup_policy_ == DedupPolicy::kIdempotent) {
    span_ranks_.push_back(kNoSpan);
  }
  if (HasWatermarks()) {
    watermarks_.push_back(0);
  }
  ++level_counts_[static_cast<size_t>(level)];
  return Status::OK();
}

Status Server::RegisterClient(int64_t client_id, int level) {
  if (dedup_policy_ == DedupPolicy::kIdempotent) {
    const int32_t slot = clients_.Find(client_id);
    if (slot >= 0) {
      if (client_levels_[static_cast<size_t>(slot)] != level) {
        return Status::AlreadyExists(
            "client already registered at a different level");
      }
      ++duplicates_dropped_;  // faithful retransmission of a registration
      return Status::OK();
    }
  }
  return RegisterClientStrict(client_id, level);
}

Status Server::RegisterClients(std::span<const RegistrationMessage> batch,
                               int64_t* accepted) {
  return RegisterRecords(batch, /*indices=*/nullptr, batch.size(), accepted);
}

Status Server::RegisterClients(std::span<const RegistrationMessage> batch,
                               std::span<const size_t> indices,
                               int64_t* accepted) {
  return RegisterRecords(batch, indices.data(), indices.size(), accepted);
}

Status Server::RegisterRecords(std::span<const RegistrationMessage> batch,
                               const size_t* indices, size_t count,
                               int64_t* accepted) {
  // Size the columns for the ids not yet known, so a retransmitted batch
  // under kIdempotent grows nothing.
  size_t fresh = 0;
  for (size_t i = 0; i < count; ++i) {
    const RegistrationMessage& message =
        batch[indices == nullptr ? i : indices[i]];
    fresh += clients_.Find(message.client_id) < 0 ? 1 : 0;
  }
  ReserveClients(fresh);
  int64_t done = 0;
  Status status;
  for (size_t i = 0; i < count && status.ok(); ++i) {
    const RegistrationMessage& message =
        batch[indices == nullptr ? i : indices[i]];
    status = RegisterClient(message.client_id, message.level);
    done += status.ok() ? 1 : 0;
  }
  if (accepted != nullptr) {
    *accepted = done;
  }
  return status;
}

void Server::ReserveClients(size_t additional) {
  const size_t size = client_levels_.size();
  const size_t needed = size + additional;
  if (needed <= client_levels_.capacity()) {
    return;
  }
  const size_t capacity = std::max(needed, 2 * size);
  clients_.Reserve(capacity);
  client_levels_.reserve(capacity);
  if (dedup_policy_ == DedupPolicy::kIdempotent) {
    span_ranks_.reserve(capacity);
  }
  if (HasWatermarks()) {
    watermarks_.reserve(capacity);
  }
}

int64_t Server::WindowBaseWord(int64_t frontier) const {
  // Keep every boundary in [frontier - window + 1 .. frontier]; older
  // words are dropped whole, so up to 63 extra boundaries survive until
  // the frontier crosses their word.
  const int64_t keep_from = frontier - dedup_window_.window_boundaries + 1;
  return keep_from <= 0 ? 0 : keep_from >> 6;
}

uint32_t Server::AppendSpan(int level) {
  std::vector<uint64_t>& arena = span_arenas_[static_cast<size_t>(level)];
  const auto words = static_cast<size_t>(SpanWordsAtLevel(level));
  const size_t spans = arena.size() / words;
  if (arena.size() == arena.capacity()) {
    // Double. While the arena is still on its track of powers of two,
    // stop at one span per registered client of the level, so a level
    // whose clients all report ends exactly sized. Off that track (after
    // such a stop, or an exact reservation) only double, so registrations
    // interleaved with first reports still cost amortized O(1).
    size_t grown = std::max<size_t>(2 * spans, 1);
    if (std::has_single_bit(spans)) {
      const auto registered =
          static_cast<size_t>(level_counts_[static_cast<size_t>(level)]);
      grown = std::min(grown, std::max(registered, spans + 1));
    }
    arena.reserve(grown * words);
  }
  arena.resize(arena.size() + words, 0);
  return static_cast<uint32_t>(spans);
}

uint64_t* Server::SpanOf(size_t slot, int level) {
  return const_cast<uint64_t*>(std::as_const(*this).SpanOf(slot, level));
}

const uint64_t* Server::SpanOf(size_t slot, int level) const {
  return span_arenas_[static_cast<size_t>(level)].data() +
         static_cast<size_t>(span_ranks_[slot]) *
             static_cast<size_t>(SpanWordsAtLevel(level));
}

void Server::EvictBehindWindow(uint64_t* span, int64_t span_words,
                               int64_t drop) {
  const int64_t kept = std::max<int64_t>(span_words - drop, 0);
  std::copy(span + (span_words - kept), span + span_words, span);
  std::fill(span + kept, span + span_words, 0);
}

void Server::AdoptDedupState(const Server& source, size_t source_slot,
                             int level) {
  if (HasWatermarks()) {
    watermarks_.back() = source.watermarks_[source_slot];
  }
  if (dedup_policy_ == DedupPolicy::kIdempotent &&
      source.span_ranks_[source_slot] != kNoSpan) {
    const size_t slot = span_ranks_.size() - 1;
    span_ranks_[slot] = AppendSpan(level);
    const uint64_t* words = source.SpanOf(source_slot, level);
    std::copy(words, words + SpanWordsAtLevel(level), SpanOf(slot, level));
  }
}

Status Server::RejectionStatus(ReportCheck check) {
  switch (check) {
    case ReportCheck::kBadValue:
      return Status::InvalidArgument("reports must be -1 or +1");
    case ReportCheck::kUnregistered:
      return Status::NotFound("client not registered");
    case ReportCheck::kTimeOutOfRange:
      return Status::OutOfRange("report time outside [1..d]");
    case ReportCheck::kMisaligned:
      return Status::InvalidArgument(
          "level-h clients report only at multiples of 2^h");
    case ReportCheck::kStale:
      return Status::InvalidArgument("duplicate or out-of-order report");
    case ReportCheck::kApply:
    case ReportCheck::kAbsorb:
      break;
  }
  return Status::Internal("accepted report has no rejection status");
}

[[gnu::always_inline]] inline Server::ReportCheck Server::RecordBoundary(
    size_t slot, int level, int64_t boundary) {
  static_assert(static_cast<int>(ReportCheck::kApply) == 0 &&
                static_cast<int>(ReportCheck::kAbsorb) == 1);
  const auto span_words = static_cast<size_t>(SpanWordsAtLevel(level));
  uint32_t& rank = span_ranks_[slot];
  if (FR_PREDICT_FALSE(rank == kNoSpan)) {
    // First report: nothing to compare against, so it always lands.
    rank = AppendSpan(level);
  }
  uint64_t* const span = span_arenas_[static_cast<size_t>(level)].data() +
                         static_cast<size_t>(rank) * span_words;
  const int64_t word = boundary >> 6;
  int64_t base_word = 0;
  if (dedup_window_.bounded()) {
    int64_t& watermark = watermarks_[slot];
    const int64_t keep_word = WindowBaseWord(boundary);
    if (keep_word > watermark) {
      // Only a boundary above the frontier moves the watermark (it is
      // WindowBaseWord(frontier) already), and such a report always lands,
      // so evicting first keeps a frontier jump inside the fixed span.
      EvictBehindWindow(span, static_cast<int64_t>(span_words),
                        keep_word - watermark);
      watermark = keep_word;
    }
    base_word = watermark;
    if (word < base_word) {
      // Evicted horizon: the bit is gone, so a first delivery and a
      // retransmission are indistinguishable. Refuse to guess.
      ++out_of_window_dropped_;
      return ReportCheck::kAbsorb;
    }
  }
  // Duplicates are about a tenth of an at-least-once stream and fall at
  // random places, so a branch on the seen bit would mispredict on them.
  uint64_t& bits = span[word - base_word];
  const uint64_t seen = (bits >> (boundary & 63)) & 1;
  bits |= uint64_t{1} << (boundary & 63);
  duplicates_dropped_ += static_cast<int64_t>(seen);
  return static_cast<ReportCheck>(seen);
}

// Defined inline ahead of its two callers: the strict path is a handful of
// compares, and a call per record would cost as much as the checks.
inline Server::ReportCheck Server::CheckAndRecordReport(int64_t client_id,
                                                        int64_t time,
                                                        int8_t report,
                                                        int* level_out) {
  if (report != -1 && report != 1) {
    return ReportCheck::kBadValue;
  }
  const int32_t client_slot = clients_.Find(client_id);
  if (client_slot < 0) {
    return ReportCheck::kUnregistered;
  }
  const int level = client_levels_[static_cast<size_t>(client_slot)];
  if (time < 1 || time > num_periods_) {
    return ReportCheck::kTimeOutOfRange;
  }
  // time >= 1 here, so the mask test is the divisibility test.
  if ((time & ((int64_t{1} << level) - 1)) != 0) {
    return ReportCheck::kMisaligned;
  }
  *level_out = level;
  if (dedup_policy_ == DedupPolicy::kIdempotent) {
    return RecordBoundary(static_cast<size_t>(client_slot), level,
                          (time >> level) - 1);
  }
  int64_t& last_time = watermarks_[static_cast<size_t>(client_slot)];
  if (time <= last_time) {
    return ReportCheck::kStale;
  }
  last_time = time;
  return ReportCheck::kApply;
}

Status Server::SubmitReport(int64_t client_id, int64_t time, int8_t report) {
  int level = 0;
  const ReportCheck check =
      CheckAndRecordReport(client_id, time, report, &level);
  if (check == ReportCheck::kApply) {
    sums_->Add(level, time >> level, report);
  } else if (check != ReportCheck::kAbsorb) {
    return RejectionStatus(check);
  }
  return Status::OK();
}

Status Server::SubmitReports(std::span<const ReportMessage> batch,
                             int64_t* accepted) {
  return IngestRecords(batch, /*indices=*/nullptr, batch.size(), accepted);
}

Status Server::SubmitReports(std::span<const ReportMessage> batch,
                             std::span<const size_t> indices,
                             int64_t* accepted) {
  return IngestRecords(batch, indices.data(), indices.size(), accepted);
}

Status Server::IngestRecords(std::span<const ReportMessage> batch,
                             const size_t* indices, size_t count,
                             int64_t* accepted) {
  // Per-level sums for the current run of same-time records. A fleet tick
  // emits a whole batch at one time t, so the common case flushes them
  // exactly once: O(orders) tree stores for the entire batch instead of
  // one tree walk per report. d is an int64 power of two, so there are at
  // most 63 orders.
  std::array<int64_t, 64> level_sums{};
  int64_t pending_time = 0;  // the time of the records in level_sums
  const auto flush = [&] {
    for (size_t h = 0; h < level_counts_.size(); ++h) {
      if (level_sums[h] != 0) {
        sums_->Add(static_cast<int>(h), pending_time >> h, level_sums[h]);
        level_sums[h] = 0;
      }
    }
  };
  int64_t done = 0;
  ReportCheck rejection = ReportCheck::kApply;
  for (size_t i = 0; i < count; ++i) {
    const ReportMessage& record =
        batch[indices == nullptr ? i : indices[i]];
    if (record.time != pending_time) {
      flush();
      pending_time = record.time;
    }
    int level = 0;
    const ReportCheck check =
        CheckAndRecordReport(record.client_id, record.time, record.value,
                             &level);
    if (FR_PREDICT_FALSE(check > ReportCheck::kAbsorb)) {
      rejection = check;
      break;
    }
    // An absorbed record adds zero, so a duplicate takes no branch.
    level_sums[static_cast<size_t>(level)] +=
        record.value * static_cast<int64_t>(check == ReportCheck::kApply);
    ++done;
  }
  flush();
  if (accepted != nullptr) {
    *accepted = done;
  }
  return rejection == ReportCheck::kApply ? Status::OK()
                                          : RejectionStatus(rejection);
}

namespace {

// x mod m in [0, m), for any int64 x and m >= 1.
uint64_t FloorMod(int64_t x, uint64_t m) {
  if (x >= 0) {
    return static_cast<uint64_t>(x) % m;
  }
  // -(x + 1) is representable for every negative x.
  return m - 1 - static_cast<uint64_t>(-(x + 1)) % m;
}

// The ids congruent to `residue` modulo `period`, as bit masks over the
// 64-id words of a packed batch: bit j of word w stands for client
// first_id + 64 w + j. Bit j is set iff j is congruent to the word's phase
// (residue - first_id - 64 w) mod period, so each mask is the bits at
// multiples of the period moved up by the phase, and the phase steps down
// by 64 mod period from word to word.
class ResidueMasks {
 public:
  ResidueMasks(int64_t first_id, int64_t residue, uint64_t period)
      : period_(period), step_(64 % period) {
    // A period of 64 or more leaves one multiple per word (and j + period
    // could wrap).
    multiples_ = 1;
    for (uint64_t j = period; period < 64 && j < 64; j += period) {
      multiples_ |= uint64_t{1} << j;
    }
    const uint64_t want = FloorMod(residue, period);
    const uint64_t have = FloorMod(first_id, period);
    phase_ = want >= have ? want - have : want + (period - have);
  }

  // The current word's mask; moves on to the next word.
  uint64_t Next() {
    const uint64_t mask = phase_ < 64 ? multiples_ << phase_ : 0;
    phase_ = phase_ >= step_ ? phase_ - step_ : phase_ + (period_ - step_);
    return mask;
  }

 private:
  uint64_t period_;
  uint64_t step_;
  uint64_t multiples_ = 0;
  uint64_t phase_ = 0;
};

}  // namespace

Status Server::SubmitPacked(const PackedReports& batch, int shard,
                            int num_shards, int64_t* accepted) {
  FR_CHECK(num_shards >= 1 && shard >= 0 && shard < num_shards);
  const int64_t time = batch.time;
  // A level-h client is due at t iff 2^h divides t, i.e. h <= ctz(t).
  const int due = std::countr_zero(static_cast<uint64_t>(time));
  ResidueMasks shard_ids(batch.first_id, shard,
                         static_cast<uint64_t>(num_shards));
  // Run-wise only under kStrict over a progression and for a time in
  // range; otherwise every record takes the per-record path, which also
  // decides the order of the verdicts when a time is out of range.
  const bool run_wise = dedup_policy_ == DedupPolicy::kStrict &&
                        clients_.progression() && clients_.size() > 0 &&
                        time <= num_periods_;
  // While the index is a progression, the registered ids are its residue
  // class between its first and last id, and a slot is arithmetic.
  const int64_t index_first = clients_.first_id();
  const uint64_t stride = clients_.stride();
  ResidueMasks progression_ids(batch.first_id, index_first, stride);
  const int64_t index_last =
      run_wise ? clients_.IdAt(static_cast<int32_t>(clients_.size() - 1))
               : 0;
  const ClientIndex::SlotDivider slot_divider = clients_.slot_divider();
  const auto slot_of = [&](int64_t id) {
    return static_cast<size_t>(slot_divider(
        static_cast<uint64_t>(id) - static_cast<uint64_t>(index_first)));
  };
  const int8_t* const levels = client_levels_.data();
  int64_t* const watermarks = watermarks_.data();

  // One sum per order, flushed once at the end as SubmitReports flushes a
  // same-time run; d is an int64 power of two, so there are at most 63.
  std::array<int64_t, 64> level_sums{};
  int64_t done = 0;
  ReportCheck rejection = ReportCheck::kApply;
  uint64_t ordinal = 0;  // sign index of the word's first report
  for (size_t w = 0; w < batch.presence_words(); ++w) {
    const uint64_t present = batch.PresenceWord(w);
    const uint64_t mine = present & shard_ids.Next();
    const uint64_t registered = progression_ids.Next();
    if (mine != 0) {
      const uint64_t signs = batch.SignBits(ordinal);
      const int64_t base_id = wire_internal::WrappingAdd(
          batch.first_id, static_cast<int64_t>(64 * w));
      // The rank of a word's report among the word's reports is its sign's
      // index from `ordinal`: the popcount of the presence bits below it,
      // or, in a word this shard keeps whole, the reports counted off.
      const auto counted_rank = [](uint64_t /*bits*/, uint64_t counted) {
        return counted;
      };
      const auto popcount_rank = [present](uint64_t bits, uint64_t) {
        return static_cast<uint64_t>(
            wire_internal::PopCount64(present & ((bits & (~bits + 1)) - 1)));
      };
      // Check the whole word before recording any of it: every report
      // registered (in the progression's residue class and between its
      // ends), aligned to its client's level and later than its client's
      // last report.
      bool passes =
          run_wise && (mine & ~registered) == 0 &&
          base_id + std::countr_zero(mine) >= index_first &&
          base_id + (63 - std::countl_zero(mine)) <= index_last;
      for (uint64_t bits = mine; passes && bits != 0; bits &= bits - 1) {
        const size_t slot = slot_of(base_id + std::countr_zero(bits));
        passes = levels[slot] <= due && watermarks[slot] < time;
      }
      // Every report in the word lands: record the times and add the signs
      // as 2 * bit - 1, which compiles without a branch (bit ? 1 : -1 did
      // not).
      const auto apply_word = [&](const auto& rank) {
        uint64_t counted = 0;
        for (uint64_t bits = mine; bits != 0; bits &= bits - 1, ++counted) {
          const size_t slot = slot_of(base_id + std::countr_zero(bits));
          watermarks[slot] = time;
          const auto sign =
              static_cast<int64_t>((signs >> rank(bits, counted)) & 1);
          level_sums[static_cast<size_t>(levels[slot])] += 2 * sign - 1;
        }
        done += static_cast<int64_t>(counted);
      };
      if (passes && mine == present) {
        apply_word(counted_rank);
      } else if (passes) {
        apply_word(popcount_rank);
      } else {
        // SubmitReport's path, record by record: every word of a batch
        // that is not run-wise, and a failing word from its first report
        // on. The word checks what this path checks, so the path rejects
        // at the report that failed, and the batch ends there.
        for (uint64_t bits = mine; bits != 0; bits &= bits - 1) {
          const auto value = static_cast<int8_t>(
              2 * ((signs >> popcount_rank(bits, 0)) & 1) - 1);
          int level = 0;
          const ReportCheck check = CheckAndRecordReport(
              base_id + std::countr_zero(bits), time, value, &level);
          if (FR_PREDICT_FALSE(check > ReportCheck::kAbsorb)) {
            rejection = check;
            break;
          }
          level_sums[static_cast<size_t>(level)] +=
              value * static_cast<int64_t>(check == ReportCheck::kApply);
          ++done;
        }
        if (rejection != ReportCheck::kApply) {
          break;
        }
      }
    }
    ordinal += static_cast<uint64_t>(wire_internal::PopCount64(present));
  }
  for (size_t h = 0; h < level_counts_.size(); ++h) {
    if (level_sums[h] != 0) {
      sums_->Add(static_cast<int>(h), time >> h, level_sums[h]);
    }
  }
  if (accepted != nullptr) {
    *accepted = done;
  }
  return rejection == ReportCheck::kApply ? Status::OK()
                                          : RejectionStatus(rejection);
}

Result<double> Server::EstimateAt(int64_t t) const {
  if (t < 1 || t > num_periods_) {
    return Status::OutOfRange("query time outside [1..d]");
  }
  if (estimator_spec_.direct()) {
    // Every report at time t is a level-0 client's perturbed value, so the
    // unbiased read is a plain shift-and-rescale of the order-0 sum:
    //   (S_t - n_0 * u0) / (u1 - u0), with 1/(u1 - u0) in level_scales_[0].
    const double raw = static_cast<double>(sums_->Value(0, t));
    const double n0 = static_cast<double>(level_counts_[0]);
    return level_scales_[0] * (raw - n0 * estimator_spec_.direct_offset);
  }
  double estimate = 0.0;
  for (const dyadic::DyadicInterval& interval : dyadic::DecomposePrefix(t)) {
    estimate += level_scales_[static_cast<size_t>(interval.order)] *
                static_cast<double>(
                    sums_->Value(interval.order, interval.index));
  }
  return estimate;
}

Result<double> Server::EstimateWindowDelta(int64_t l, int64_t r) const {
  if (l < 1 || l > r || r > num_periods_) {
    return Status::OutOfRange("window outside [1..d]");
  }
  if (estimator_spec_.direct()) {
    // No dyadic decomposition to exploit: the windowed change is just the
    // difference of the two point estimates (a[l-1] is 0 by the st[0] = 0
    // convention when l == 1).
    FR_ASSIGN_OR_RETURN(const double at_r, EstimateAt(r));
    if (l == 1) {
      return at_r;
    }
    FR_ASSIGN_OR_RETURN(const double at_l, EstimateAt(l - 1));
    return at_r - at_l;
  }
  // Each interval's partial sum telescopes to st[end] - st[begin-1], so the
  // decomposition of [l..r] sums to a[r] - a[l-1] (Observation 3.7).
  double estimate = 0.0;
  for (const dyadic::DyadicInterval& interval : dyadic::DecomposeRange(l, r)) {
    estimate += level_scales_[static_cast<size_t>(interval.order)] *
                static_cast<double>(
                    sums_->Value(interval.order, interval.index));
  }
  return estimate;
}

Result<std::vector<double>> Server::EstimateAll() const {
  std::vector<double> estimates;
  estimates.reserve(static_cast<size_t>(num_periods_));
  for (int64_t t = 1; t <= num_periods_; ++t) {
    FR_ASSIGN_OR_RETURN(double estimate, EstimateAt(t));
    estimates.push_back(estimate);
  }
  return estimates;
}

Result<std::vector<double>> Server::EstimateAllConsistent() const {
  if (estimator_spec_.direct()) {
    // The direct estimator keeps one reading per period — there is no
    // redundant ancestor/descendant structure for GLS to reconcile, so the
    // consistent estimates are the plain ones.
    return EstimateAll();
  }
  const int64_t d = num_periods_;
  const int orders = static_cast<int>(level_scales_.size());
  // Dense-sized scratch regardless of backend: consistency refines every
  // interval estimate, so this offline path costs O(d) memory even when
  // the store itself is sketched.
  dyadic::DyadicTree<double> estimates(d);
  std::vector<double> level_variances(static_cast<size_t>(orders));
  for (int h = 0; h < orders; ++h) {
    const double scale = level_scales_[static_cast<size_t>(h)];
    const int64_t count = dyadic::NumIntervalsAtOrder(d, h);
    for (int64_t j = 1; j <= count; ++j) {
      estimates.At(h, j) = scale * static_cast<double>(sums_->Value(h, j));
    }
    // Var(S_hat(I_{h,j})) ~ n_h * scale_h^2 (each of the ~n/(1+log d)
    // level-h reporters contributes one +/-1 of variance ~1, scaled).
    // A floor of one reporter keeps empty levels from being treated as
    // infinitely trustworthy zeros.
    const auto reporters =
        std::max<int64_t>(level_counts_[static_cast<size_t>(h)], 1);
    level_variances[static_cast<size_t>(h)] =
        static_cast<double>(reporters) * scale * scale;
  }
  FR_RETURN_NOT_OK(EnforceTreeConsistency(level_variances, &estimates));
  std::vector<double> results;
  results.reserve(static_cast<size_t>(d));
  for (int64_t t = 1; t <= d; ++t) {
    results.push_back(estimates.PrefixSum(t));
  }
  return results;
}

Status Server::Merge(const Server& other) {
  FR_RETURN_NOT_OK(CheckMergeCompatible(other));
  const auto other_clients = static_cast<int32_t>(other.num_clients());
  ReserveClients(static_cast<size_t>(other_clients));
  for (int32_t slot = 0; slot < other_clients; ++slot) {
    // Strict registration regardless of policy: merged shards partition the
    // client population, so a shared id is a sharding bug, not a retry.
    const int level = other.client_levels_[static_cast<size_t>(slot)];
    FR_RETURN_NOT_OK(RegisterClientStrict(other.clients_.IdAt(slot), level));
    AdoptDedupState(other, static_cast<size_t>(slot), level);
  }
  duplicates_dropped_ += other.duplicates_dropped_;
  out_of_window_dropped_ += other.out_of_window_dropped_;
  AddSums(other);
  return Status::OK();
}

Status Server::MergeAggregatesOnly(const Server& other) {
  FR_RETURN_NOT_OK(CheckMergeCompatible(other));
  for (size_t h = 0; h < level_counts_.size(); ++h) {
    level_counts_[h] += other.level_counts_[h];
  }
  AddSums(other);
  return Status::OK();
}

Status Server::CheckMergeCompatible(const Server& other) const {
  if (other.num_periods_ != num_periods_) {
    return Status::InvalidArgument("cannot merge servers of different shape");
  }
  // Stores merge cell-wise, so both sides must bucket identically: same
  // backend, and under kSketch the same rows/width/seed.
  if (other.store_config_ != store_config_) {
    return Status::InvalidArgument(
        "cannot merge servers with mismatched store configs");
  }
  // Same shape is not enough: shards debiasing with different per-level
  // scales would silently mix estimators, so scales must match exactly.
  if (other.level_scales_ != level_scales_) {
    return Status::InvalidArgument(
        "cannot merge servers with mismatched level scales");
  }
  if (other.estimator_spec_ != estimator_spec_) {
    return Status::InvalidArgument(
        "cannot merge servers with mismatched estimator specs");
  }
  if (other.dedup_policy_ != dedup_policy_) {
    return Status::InvalidArgument(
        "cannot merge servers with mismatched dedup policies");
  }
  if (other.dedup_window_ != dedup_window_) {
    return Status::InvalidArgument(
        "cannot merge servers with mismatched dedup windows");
  }
  return Status::OK();
}

void Server::AddSums(const Server& other) {
  // Same shape and store config (checked by every caller), so the cell
  // arenas align element-wise.
  sums_->AccumulateCells(*other.sums_);
}

int64_t Server::ClientCountAtLevel(int level) const {
  FR_CHECK(level >= 0 && level < static_cast<int>(level_counts_.size()));
  return level_counts_[static_cast<size_t>(level)];
}

double Server::ScaleAtLevel(int level) const {
  FR_CHECK(level >= 0 && level < static_cast<int>(level_scales_.size()));
  return level_scales_[static_cast<size_t>(level)];
}

int64_t Server::ApproxMemoryBytes() const {
  // Columns and span arenas are charged their capacity. An estimate, but
  // monotone in the real footprint, which is what sizing a
  // DedupWindowPolicy needs.
  int64_t bytes = static_cast<int64_t>(sizeof(Server));
  bytes += sums_->ApproxMemoryBytes();
  bytes += static_cast<int64_t>(level_scales_.capacity() * sizeof(double));
  bytes += static_cast<int64_t>(level_counts_.capacity() * sizeof(int64_t));
  bytes += clients_.ApproxMemoryBytes();
  bytes += static_cast<int64_t>(client_levels_.capacity() * sizeof(int8_t));
  bytes += static_cast<int64_t>(watermarks_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(span_ranks_.capacity() * sizeof(uint32_t));
  bytes += static_cast<int64_t>(span_arenas_.capacity() *
                                sizeof(std::vector<uint64_t>));
  for (const std::vector<uint64_t>& arena : span_arenas_) {
    bytes += static_cast<int64_t>(arena.capacity() * sizeof(uint64_t));
  }
  return bytes;
}

}  // namespace futurerand::core
