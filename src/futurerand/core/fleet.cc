#include "futurerand/core/fleet.h"

#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/random.h"
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

  // Resolve the randomizer construction once per distinct support before
  // any client exists: at most log d + 1 of them (one for the longitudinal
  // kinds, whose clients all sit at level 0). Supports never grow with the
  // level, so levels sharing a support are adjacent and share one factory's
  // parameters. Every error surfaces here; each client's creation below is
  // one seeded draw that cannot fail.
  const bool longitudinal = rand::IsLongitudinalKind(config.randomizer);
  const int num_levels = longitudinal ? 1 : config.num_orders();
  std::vector<rand::RandomizerFactory> factory_at_level;
  for (int level = 0; level < num_levels; ++level) {
    const int64_t support = config.SupportAtLevel(level);
    if (!factory_at_level.empty() &&
        factory_at_level.back().max_support() == support) {
      factory_at_level.push_back(factory_at_level.back());
      continue;
    }
    FR_ASSIGN_OR_RETURN(
        rand::RandomizerFactory factory,
        rand::RandomizerFactory::Create(config.randomizer, support,
                                        config.epsilon,
                                        config.longitudinal_alpha));
    factory_at_level.push_back(std::move(factory));
  }

  // Each client's creation mirrors Client::Create exactly: one Rng seeded
  // from the forked stream draws the level, then seeds the randomizer.
  const Rng base(base_seed);
  auto create_range = [&](int64_t begin, int64_t end) {
    for (int64_t u = begin; u < end; ++u) {
      const auto i = static_cast<size_t>(u);
      const int64_t client_id = first_client_id + u;
      Rng rng(base.Fork(static_cast<uint64_t>(client_id)).NextUint64());
      // Longitudinal clients all sit at level 0 (they report every tick);
      // the level draw is skipped entirely — not drawn-and-discarded — so
      // the randomizer seed is the FIRST draw on both the fleet and the
      // per-client path, keeping them bit-identical.
      const int level =
          longitudinal ? 0
                       : static_cast<int>(rng.NextInt(
                             static_cast<uint64_t>(config.num_orders())));
      fleet.levels_[i] = level;
      fleet.randomizers_[i] =
          factory_at_level[static_cast<size_t>(level)].Make(
              config.num_periods >> level, rng.NextUint64());
      fleet.registrations_[i] = RegistrationMessage{client_id, level};
    }
  };
  if (pool != nullptr && num_clients > 1) {
    pool->ParallelFor(num_clients, create_range);
  } else {
    create_range(0, num_clients);
  }

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
  // A plain loop with no early exit, so the compiler vectorizes it at the
  // baseline ISA. A byte outside {0,1} has a bit set above bit 0.
  const size_t n = states.size();
  uint8_t invalid = 0;
  for (size_t i = 0; i < n; ++i) {
    invalid |= static_cast<uint8_t>(states[i]) & uint8_t{0xFE};
  }
  if (invalid != 0) {
    return Status::InvalidArgument("state must be 0 or 1");
  }

  ++time_;
  const int64_t t = time_;
  batch->clear();
  if (n == 0) {
    return Status::OK();
  }
  std::memcpy(current_states_.data(), states.data(), n);

  // The reporting cohort depends only on countr_zero(t) (clamped: every
  // level is < num_orders, so deeper trailing zeros add no members).
  const auto z = static_cast<size_t>(
      std::min<int64_t>(std::countr_zero(static_cast<uint64_t>(t)),
                        config_.num_orders() - 1));
  const std::vector<int32_t>& cohort = cohort_by_tz_[z];
  batch->resize(cohort.size());

  // Gather per member: telescoping (Observation 3.7: the partial sum is
  // st[t] - st[t - 2^h]), then the boundary refresh. Each member touches
  // only its own slots (cohort positions are distinct), so the loop
  // parallelizes with no synchronization and stays bit-identical to the
  // serial order. The columns are read through local pointers: through the
  // members, every byte store and Randomize call would force the compiler
  // to reload each vector's data pointer.
  const int32_t* members = cohort.data();
  const int8_t* current = current_states_.data();
  int8_t* boundary = boundary_states_.data();
  ReportMessage* out = batch->data();
  const std::unique_ptr<rand::SequenceRandomizer>* clients =
      randomizers_.data();
  const int64_t first_id = first_client_id_;
  auto randomize_range = [=](int64_t begin, int64_t end) {
    for (int64_t j = begin; j < end; ++j) {
      const auto i = static_cast<size_t>(members[j]);
      const int8_t state = current[i];
      const auto partial_sum = static_cast<int8_t>(state - boundary[i]);
      boundary[i] = state;
      out[j] = ReportMessage{first_id + static_cast<int64_t>(i), t,
                             clients[i]->Randomize(partial_sum)};
    }
  };
  const auto cohort_size = static_cast<int64_t>(cohort.size());
  if (pool_ != nullptr && cohort_size > 1) {
    pool_->ParallelFor(cohort_size, randomize_range);
  } else {
    randomize_range(0, cohort_size);
  }
  reports_emitted_ += static_cast<int64_t>(batch->size());
  return Status::OK();
}

Result<ReportBatch> ClientFleet::AdvanceTick(std::span<const int8_t> states) {
  ReportBatch batch;
  FR_RETURN_NOT_OK(AdvanceTick(states, &batch));
  return batch;
}

std::string ClientFleet::EncodeRegistrations() const {
  return EncodeRegistrationBatch(registrations_);
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
  // changes_total: the sum of the per-client counts written below (a
  // longitudinal client's support_used() is its change count).
  uint64_t changes_total = 0;
  for (const auto& randomizer : randomizers_) {
    changes_total += static_cast<uint64_t>(randomizer->support_used());
  }
  wire_internal::PutVarint64(changes_total, &out);
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
  for (size_t i = 0; i < n; ++i) {
    // Level-0 clients hit a dyadic boundary every tick, so the integrated
    // state and the boundary state coincide at every snapshot point.
    current_states_[i] = states[i].tracked_state;
    boundary_states_[i] = states[i].tracked_state;
  }
  return Status::OK();
}

int64_t ClientFleet::support_overflow_count() const {
  int64_t total = 0;
  for (const auto& randomizer : randomizers_) {
    total += randomizer->support_overflow_count();
  }
  return total;
}

}  // namespace futurerand::core
