#include "futurerand/core/fleet.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"
#include "futurerand/common/simd.h"
#include "futurerand/randomizer/longitudinal.h"

namespace futurerand::core {

ClientFleet::ClientFleet(const ProtocolConfig& config, ThreadPool* pool,
                         int64_t first_client_id)
    : config_(config), pool_(pool), first_client_id_(first_client_id) {}

Result<ClientFleet> ClientFleet::Create(const ProtocolConfig& config,
                                        int64_t num_clients,
                                        uint64_t base_seed, ThreadPool* pool,
                                        int64_t first_client_id) {
  FR_RETURN_NOT_OK(config.Validate());
  if (num_clients < 0) {
    return Status::InvalidArgument("num_clients must be non-negative");
  }
  if (num_clients > std::numeric_limits<int32_t>::max()) {
    // Cohort membership is stored as int32 positions.
    return Status::InvalidArgument("fleet size exceeds 2^31 - 1 clients");
  }
  ClientFleet fleet(config, pool, first_client_id);
  const auto n = static_cast<size_t>(num_clients);
  fleet.levels_.resize(n);
  fleet.current_states_.assign(n, 0);
  fleet.boundary_states_.assign(n, 0);
  fleet.randomizers_.resize(n);
  fleet.registrations_.resize(n);

  // Each client's creation mirrors Client::Create exactly: one Rng seeded
  // from the forked stream draws the level, then seeds the randomizer.
  const Rng base(base_seed);
  std::mutex error_mutex;
  Status first_error;
  std::atomic<bool> failed{false};
  auto create_range = [&](int64_t begin, int64_t end) {
    for (int64_t u = begin; u < end; ++u) {
      // Another chunk already hit an error: constructing more randomizers
      // (each pre-computes a noise vector) is O(n) wasted work, so every
      // chunk bails at its next iteration.
      if (failed.load(std::memory_order_relaxed)) {
        return;
      }
      const auto i = static_cast<size_t>(u);
      const int64_t client_id = first_client_id + u;
      Rng rng(base.Fork(static_cast<uint64_t>(client_id)).NextUint64());
      // Longitudinal clients all sit at level 0 (they report every tick);
      // the level draw is skipped entirely — not drawn-and-discarded — so
      // the randomizer seed is the FIRST draw on both the fleet and the
      // per-client path, keeping them bit-identical.
      const int level =
          rand::IsLongitudinalKind(config.randomizer)
              ? 0
              : static_cast<int>(rng.NextInt(
                    static_cast<uint64_t>(config.num_orders())));
      const int64_t length = config.num_periods >> level;
      const int64_t support = config.SupportAtLevel(level);
      auto randomizer = rand::MakeSequenceRandomizer(
          config.randomizer, length, support, config.epsilon,
          rng.NextUint64(), config.longitudinal_alpha);
      if (!randomizer.ok()) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) {
          first_error = randomizer.status();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      fleet.levels_[i] = level;
      fleet.randomizers_[i] = std::move(*randomizer);
      fleet.registrations_[i] = RegistrationMessage{client_id, level};
    }
  };
  if (pool != nullptr && num_clients > 1) {
    pool->ParallelFor(num_clients, create_range);
  } else {
    create_range(0, num_clients);
  }
  FR_RETURN_NOT_OK(first_error);

  // Precompute the nested reporting cohorts (id order within each): client
  // u is due at tick t iff 2^level divides t, i.e. level <= countr_zero(t).
  fleet.cohort_by_tz_.resize(static_cast<size_t>(config.num_orders()));
  for (size_t u = 0; u < n; ++u) {
    for (int z = fleet.levels_[u]; z < config.num_orders(); ++z) {
      fleet.cohort_by_tz_[static_cast<size_t>(z)].push_back(
          static_cast<int32_t>(u));
    }
  }
  return fleet;
}

Status ClientFleet::AdvanceTick(std::span<const int8_t> states,
                                ReportBatch* batch) {
  if (static_cast<int64_t>(states.size()) != size()) {
    return Status::InvalidArgument("states span must cover every client");
  }
  if (time_ >= config_.num_periods) {
    return Status::OutOfRange("all d time periods already ingested");
  }
  if (!simd::AllZeroOrOne(states.data(), states.size())) {
    return Status::InvalidArgument("state must be 0 or 1");
  }
  TickValidated(states, batch);
  return Status::OK();
}

Result<ReportBatch> ClientFleet::AdvanceTick(std::span<const int8_t> states) {
  ReportBatch batch;
  FR_RETURN_NOT_OK(AdvanceTick(states, &batch));
  return batch;
}

Status ClientFleet::AdvanceTickDerivatives(
    std::span<const int8_t> derivatives, ReportBatch* batch) {
  if (static_cast<int64_t>(derivatives.size()) != size()) {
    return Status::InvalidArgument(
        "derivatives span must cover every client");
  }
  if (time_ >= config_.num_periods) {
    return Status::OutOfRange("all d time periods already ingested");
  }
  // Validate the whole tick read-only; scratch is written only after the
  // tick is known good, so a failed call leaves the fleet byte-identical.
  if (!simd::ValidDerivativeStep(current_states_.data(), derivatives.data(),
                                 derivatives.size())) {
    // Rare path: re-scan serially for the first offending element so the
    // error message matches the per-element checks exactly.
    for (size_t i = 0; i < derivatives.size(); ++i) {
      const int8_t derivative = derivatives[i];
      if (derivative != -1 && derivative != 0 && derivative != 1) {
        return Status::InvalidArgument("derivative must be in {-1,0,+1}");
      }
      const auto next_state =
          static_cast<int8_t>(current_states_[i] + derivative);
      if (next_state != 0 && next_state != 1) {
        return Status::InvalidArgument(
            "derivative would move the Boolean state outside {0,1}");
      }
    }
    FR_CHECK_MSG(false, "vector and scalar derivative validation disagree");
  }
  state_scratch_.resize(derivatives.size());
  simd::AddI8(current_states_.data(), derivatives.data(),
              state_scratch_.data(), derivatives.size());
  TickValidated(state_scratch_, batch);
  return Status::OK();
}

Result<ReportBatch> ClientFleet::AdvanceTickDerivatives(
    std::span<const int8_t> derivatives) {
  ReportBatch batch;
  FR_RETURN_NOT_OK(AdvanceTickDerivatives(derivatives, &batch));
  return batch;
}

std::string ClientFleet::EncodeRegistrations() const {
  return EncodeRegistrationBatch(registrations_);
}

Result<std::string> ClientFleet::AdvanceTickEncoded(
    std::span<const int8_t> states) {
  ReportBatch batch;
  FR_RETURN_NOT_OK(AdvanceTick(states, &batch));
  return EncodeReportBatch(batch);
}

void ClientFleet::TickValidated(std::span<const int8_t> states,
                                ReportBatch* batch) {
  ++time_;
  const int64_t t = time_;
  const size_t n = states.size();
  batch->clear();
  if (n == 0) {
    return;
  }

  // Fleet-wide change detection and state refresh as whole-column kernels.
  changes_total_ +=
      simd::CountMismatches(states.data(), current_states_.data(), n);
  std::memcpy(current_states_.data(), states.data(), n);

  // The reporting cohort depends only on countr_zero(t) (clamped: every
  // level is < num_orders, so deeper trailing zeros add no members).
  const auto z = static_cast<size_t>(
      std::min<int64_t>(std::countr_zero(static_cast<uint64_t>(t)),
                        config_.num_orders() - 1));
  const std::vector<int32_t>& cohort = cohort_by_tz_[z];
  batch->resize(cohort.size());

  if (cohort.size() == n) {
    // Everyone reports (t a multiple of the deepest interval): telescoping
    // (Observation 3.7: the partial sum is st[t] - st[t - 2^h]) and the
    // boundary refresh are contiguous column ops.
    partial_scratch_.resize(n);
    simd::SubI8(current_states_.data(), boundary_states_.data(),
                partial_scratch_.data(), n);
    std::memcpy(boundary_states_.data(), current_states_.data(), n);
    auto randomize_range = [&](int64_t begin, int64_t end) {
      for (int64_t u = begin; u < end; ++u) {
        const auto i = static_cast<size_t>(u);
        (*batch)[i] = ReportMessage{
            first_client_id_ + u, t,
            randomizers_[i]->Randomize(partial_scratch_[i])};
      }
    };
    if (pool_ != nullptr && n > 1) {
      pool_->ParallelFor(static_cast<int64_t>(n), randomize_range);
    } else {
      randomize_range(0, static_cast<int64_t>(n));
    }
  } else {
    // Sparse cohort: gather per member. Each member touches only its own
    // slots (cohort positions are distinct), so the loop parallelizes with
    // no synchronization and stays bit-identical to the serial order.
    auto randomize_range = [&](int64_t begin, int64_t end) {
      for (int64_t j = begin; j < end; ++j) {
        const auto i =
            static_cast<size_t>(cohort[static_cast<size_t>(j)]);
        const int8_t state = current_states_[i];
        const auto partial_sum =
            static_cast<int8_t>(state - boundary_states_[i]);
        boundary_states_[i] = state;
        (*batch)[static_cast<size_t>(j)] = ReportMessage{
            first_client_id_ + static_cast<int64_t>(i), t,
            randomizers_[i]->Randomize(partial_sum)};
      }
    };
    const auto cohort_size = static_cast<int64_t>(cohort.size());
    if (pool_ != nullptr && cohort_size > 1) {
      pool_->ParallelFor(cohort_size, randomize_range);
    } else {
      randomize_range(0, cohort_size);
    }
  }
  reports_emitted_ += static_cast<int64_t>(batch->size());
}

namespace {

// Doubles travel as raw IEEE-754 bits (the snapshot convention): the
// restored fleet must randomize bit-identically, so the creation
// parameters must round-trip exactly, not via decimal text.
void PutDoubleBits(double value, std::string* out) {
  wire_internal::PutFixed64(std::bit_cast<uint64_t>(value), out);
}

Result<double> GetDoubleBits(std::string_view* bytes) {
  FR_ASSIGN_OR_RETURN(const uint64_t bits, wire_internal::GetFixed64(bytes));
  return std::bit_cast<double>(bits);
}

}  // namespace

Result<std::string> ClientFleet::EncodeLongitudinalState() const {
  if (!rand::IsLongitudinalKind(config_.randomizer)) {
    return Status::FailedPrecondition(
        "fleet's randomizer kind keeps no longitudinal state to snapshot");
  }
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindFleetLongState, &out);
  // Shape block: everything a restore must match before touching state.
  wire_internal::PutVarint64(static_cast<uint64_t>(config_.randomizer),
                             &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(config_.num_periods),
                             &out);
  PutDoubleBits(config_.epsilon, &out);
  PutDoubleBits(config_.longitudinal_alpha, &out);
  wire_internal::PutVarint64(
      wire_internal::ZigZagEncode(first_client_id_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(size()), &out);
  // Fleet clock.
  wire_internal::PutVarint64(static_cast<uint64_t>(time_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(reports_emitted_), &out);
  wire_internal::PutVarint64(static_cast<uint64_t>(changes_total_), &out);
  // Per-client memoization state, in client-id order. Every longitudinal
  // client sits at level 0, so position == time_ fleet-wide and is not
  // repeated per client.
  for (const auto& randomizer : randomizers_) {
    const auto& longitudinal =
        static_cast<const rand::LongitudinalRandomizer&>(*randomizer);
    const rand::LongitudinalRandomizer::State state =
        longitudinal.ExportState();
    wire_internal::PutFixed64(state.rng_state, &out);
    wire_internal::PutFixed64(state.hash_seed[0], &out);
    wire_internal::PutFixed64(state.hash_seed[1], &out);
    wire_internal::PutVarint64(
        wire_internal::ZigZagEncode(state.memo[0]), &out);
    wire_internal::PutVarint64(
        wire_internal::ZigZagEncode(state.memo[1]), &out);
    wire_internal::PutVarint64(static_cast<uint64_t>(state.changes), &out);
    out.push_back(static_cast<char>(state.tracked_state));
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

Status ClientFleet::RestoreLongitudinalState(std::string_view bytes) {
  if (!rand::IsLongitudinalKind(config_.randomizer)) {
    return Status::FailedPrecondition(
        "fleet's randomizer kind keeps no longitudinal state to restore");
  }
  // Trailer first (the snapshot convention): nothing of a corrupted blob
  // is ever parsed, so the verdict is kDataLoss, not a field error.
  FR_RETURN_NOT_OK(wire_internal::ConsumeChecksum(&bytes));
  FR_ASSIGN_OR_RETURN(const char kind, wire_internal::CheckHeader(bytes));
  if (kind != wire_internal::kKindFleetLongState) {
    return Status::InvalidArgument(
        "not a fleet longitudinal state blob; cannot restore");
  }
  bytes.remove_prefix(wire_internal::kHeaderSize);
  FR_ASSIGN_OR_RETURN(const uint64_t raw_kind,
                      wire_internal::GetVarint64(&bytes));
  if (raw_kind != static_cast<uint64_t>(config_.randomizer)) {
    return Status::InvalidArgument(
        "snapshot randomizer kind mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_periods,
                      wire_internal::GetVarint64(&bytes));
  if (raw_periods != static_cast<uint64_t>(config_.num_periods)) {
    return Status::InvalidArgument("snapshot num_periods mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const double epsilon, GetDoubleBits(&bytes));
  FR_ASSIGN_OR_RETURN(const double alpha, GetDoubleBits(&bytes));
  if (std::bit_cast<uint64_t>(epsilon) !=
          std::bit_cast<uint64_t>(config_.epsilon) ||
      std::bit_cast<uint64_t>(alpha) !=
          std::bit_cast<uint64_t>(config_.longitudinal_alpha)) {
    return Status::InvalidArgument(
        "snapshot privacy parameters mismatch fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_first,
                      wire_internal::GetVarint64(&bytes));
  if (wire_internal::ZigZagDecode(raw_first) != first_client_id_) {
    return Status::InvalidArgument(
        "snapshot first client id mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_size,
                      wire_internal::GetVarint64(&bytes));
  if (raw_size != static_cast<uint64_t>(size())) {
    return Status::InvalidArgument("snapshot fleet size mismatches fleet");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_time,
                      wire_internal::GetVarint64(&bytes));
  if (raw_time > static_cast<uint64_t>(config_.num_periods)) {
    return Status::InvalidArgument("snapshot time exceeds num_periods");
  }
  const auto time = static_cast<int64_t>(raw_time);
  FR_ASSIGN_OR_RETURN(const uint64_t raw_reports,
                      wire_internal::GetVarint64(&bytes));
  // Level-0 clients report every tick, so the fleet clock pins the count.
  if (raw_reports != raw_time * static_cast<uint64_t>(size())) {
    return Status::InvalidArgument(
        "snapshot report count inconsistent with its clock");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t raw_changes,
                      wire_internal::GetVarint64(&bytes));
  // Decode and validate every client before mutating anything: like
  // ShardedAggregator::Restore, this either replaces the whole fleet's
  // longitudinal state or leaves it untouched.
  const auto n = static_cast<size_t>(size());
  std::vector<rand::LongitudinalRandomizer::State> states(n);
  uint64_t changes_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    rand::LongitudinalRandomizer::State& state = states[i];
    FR_ASSIGN_OR_RETURN(state.rng_state,
                        wire_internal::GetFixed64(&bytes));
    FR_ASSIGN_OR_RETURN(state.hash_seed[0],
                        wire_internal::GetFixed64(&bytes));
    FR_ASSIGN_OR_RETURN(state.hash_seed[1],
                        wire_internal::GetFixed64(&bytes));
    for (int v = 0; v < 2; ++v) {
      FR_ASSIGN_OR_RETURN(const uint64_t raw_memo,
                          wire_internal::GetVarint64(&bytes));
      const int64_t memo = wire_internal::ZigZagDecode(raw_memo);
      if (memo < std::numeric_limits<int32_t>::min() ||
          memo > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument("snapshot memo value out of range");
      }
      state.memo[v] = static_cast<int32_t>(memo);
    }
    FR_ASSIGN_OR_RETURN(const uint64_t client_changes,
                        wire_internal::GetVarint64(&bytes));
    changes_sum += client_changes;
    state.changes = static_cast<int64_t>(client_changes);
    if (bytes.empty()) {
      return Status::InvalidArgument("snapshot truncated");
    }
    state.tracked_state = static_cast<int8_t>(bytes.front());
    bytes.remove_prefix(1);
    state.position = time;
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument(
        "trailing bytes after fleet longitudinal state");
  }
  if (changes_sum != raw_changes) {
    return Status::InvalidArgument(
        "snapshot change counter inconsistent with its clients");
  }
  // Validate every client against the randomizer spec (memo range, Boolean
  // state, kind-specific seed constraints) before importing any, so a bad
  // blob leaves the whole fleet untouched; the imports after that cannot
  // fail.
  for (size_t i = 0; i < n; ++i) {
    auto* longitudinal =
        static_cast<rand::LongitudinalRandomizer*>(randomizers_[i].get());
    FR_RETURN_NOT_OK(longitudinal->ValidateState(states[i]));
  }
  for (size_t i = 0; i < n; ++i) {
    auto* longitudinal =
        static_cast<rand::LongitudinalRandomizer*>(randomizers_[i].get());
    FR_CHECK_MSG(longitudinal->ImportState(states[i]).ok(),
                 "validated longitudinal state failed to import");
  }
  time_ = time;
  reports_emitted_ = static_cast<int64_t>(raw_reports);
  changes_total_ = static_cast<int64_t>(raw_changes);
  for (size_t i = 0; i < n; ++i) {
    // Level-0 clients hit a dyadic boundary every tick, so the integrated
    // state and the boundary state coincide at every snapshot point.
    current_states_[i] = states[i].tracked_state;
    boundary_states_[i] = states[i].tracked_state;
  }
  return Status::OK();
}

int64_t ClientFleet::changes_seen() const { return changes_total_; }

int64_t ClientFleet::support_overflow_count() const {
  int64_t total = 0;
  for (const auto& randomizer : randomizers_) {
    total += randomizer->support_overflow_count();
  }
  return total;
}

}  // namespace futurerand::core
