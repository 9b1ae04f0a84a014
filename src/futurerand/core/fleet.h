// Batch-first client engine: one ClientFleet owns the state of N clients
// and advances all of them one time period per call.
//
// The per-client state machine is identical to core::Client (Algorithm 1),
// but stored structure-of-arrays — levels, boundary states and randomizer
// instances live in parallel vectors — so one AdvanceTick call replaces N
// ObserveState calls, parallelizes over a ThreadPool, and emits a packed
// ReportBatch ready for wire encoding. Client u's randomness derives from
// Rng(base_seed).Fork(client_id) exactly like the per-client path, so a
// fleet is bit-identical to a loop of Client::ObserveState calls with the
// same seeds (pinned by tests/core/fleet_test.cc).

#ifndef FUTURERAND_CORE_FLEET_H_
#define FUTURERAND_CORE_FLEET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/core/config.h"
#include "futurerand/core/wire.h"
#include "futurerand/randomizer/randomizer.h"

namespace futurerand::core {

/// One tick's packed reports, in client-id order; feed straight into
/// EncodeReportBatch or ShardedAggregator::IngestReports.
using ReportBatch = std::vector<ReportMessage>;

/// N clients advancing in lockstep. Move-only. NOT thread-safe: AdvanceTick
/// is not re-entrant and no member may be called concurrently with it (one
/// fleet = one logical stream of time periods); the internal per-client
/// work is parallelized over the pool given at Create. Mutators validate
/// before mutating: a failed call leaves the fleet untouched.
class ClientFleet {
 public:
  /// Creates `num_clients` clients with ids first_client_id..+num_clients-1.
  /// Client with id c draws its level and randomizer noise from
  /// Rng(base_seed).Fork(c).NextUint64() — the same derivation the
  /// simulation runner uses for per-client seeding. `pool` (optional, not
  /// owned, must outlive the fleet) parallelizes creation and every
  /// AdvanceTick. The randomizer construction is resolved once per distinct
  /// support (rand::RandomizerFactory) and shared by the clients, so every
  /// error — a bad config or randomizer parameters — is returned before
  /// any client is built.
  static Result<ClientFleet> Create(const ProtocolConfig& config,
                                    int64_t num_clients, uint64_t base_seed,
                                    ThreadPool* pool = nullptr,
                                    int64_t first_client_id = 0);

  ClientFleet(ClientFleet&&) = default;
  ClientFleet& operator=(ClientFleet&&) = default;
  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Registration records (client id, level) for every client, in id order;
  /// feed straight into EncodeRegistrationBatch or
  /// ShardedAggregator::IngestRegistrations. The reference stays valid for
  /// the fleet's lifetime (registrations never change after Create).
  const std::vector<RegistrationMessage>& registrations() const {
    return registrations_;
  }

  /// Advances the whole fleet one time period: states[i] is client i's
  /// Boolean value st[t] for the next period t. Appends the reports due at
  /// t (clients whose 2^h divides t), in client-id order, to `*batch` after
  /// clearing it. Errors — wrong span size, a state outside {0,1}, or more
  /// than d ticks — are returned before any client state changes, so a
  /// failed call leaves the fleet untouched.
  Status AdvanceTick(std::span<const int8_t> states, ReportBatch* batch);

  /// Convenience overload allocating a fresh batch.
  Result<ReportBatch> AdvanceTick(std::span<const int8_t> states);

  /// EncodeRegistrationBatch(registrations()) — the bytes a deployment
  /// ships once before any report.
  std::string EncodeRegistrations() const;

  /// Number of clients in the fleet.
  int64_t size() const { return static_cast<int64_t>(levels_.size()); }

  /// Time periods ingested so far (0 before the first AdvanceTick).
  int64_t current_time() const { return time_; }

  /// The id of client 0; client ids are contiguous from here.
  int64_t first_client_id() const { return first_client_id_; }

  /// The sampled order h of client `index` (0-based position, not id;
  /// bounds are the caller's responsibility).
  int level(int64_t index) const {
    return levels_[static_cast<size_t>(index)];
  }

  /// Reports emitted so far, summed over the fleet.
  int64_t reports_emitted() const { return reports_emitted_; }

  /// Value changes observed so far, summed over the fleet (st[0] = 0
  /// convention).
  int64_t changes_seen() const;

  /// Non-zero partial sums clamped by the randomizers' sparsity budget,
  /// summed over the fleet. 0 for contract-abiding inputs.
  int64_t support_overflow_count() const;

  /// Serializes the fleet's longitudinal memoization state — per-client RNG
  /// chain position, permanent hash seeds, memoized first-round values and
  /// integrated Boolean state, plus the fleet clock — into one checksummed
  /// kFleetLongState blob (FRW kind 9, docs/FORMATS.md §10). Only
  /// meaningful for the longitudinal randomizer kinds, whose privacy
  /// guarantee depends on the memoized value surviving restarts; errors
  /// with FailedPrecondition for the dyadic kinds.
  Result<std::string> EncodeLongitudinalState() const;

  /// Replaces the fleet's longitudinal state from an EncodeLongitudinalState
  /// blob. The fleet must have been created with the same shape (randomizer
  /// kind, num_periods, epsilon, alpha, fleet size, first client id) — the
  /// blob records all of them and a mismatch is an error. Ticking the
  /// restored fleet is bit-identical to ticking the captured one. On any
  /// error the fleet is untouched.
  Status RestoreLongitudinalState(std::string_view bytes);

 private:
  ClientFleet(const ProtocolConfig& config, ThreadPool* pool,
              int64_t first_client_id);

  ProtocolConfig config_;
  ThreadPool* pool_;  // not owned; may be null
  int64_t first_client_id_;
  int64_t time_ = 0;
  int64_t reports_emitted_ = 0;
  int64_t changes_total_ = 0;

  // Structure-of-arrays client state, all indexed by client position.
  std::vector<int> levels_;
  std::vector<int8_t> current_states_;   // st[t], with st[0] = 0
  std::vector<int8_t> boundary_states_;  // st at the last dyadic boundary
  std::vector<std::unique_ptr<rand::SequenceRandomizer>> randomizers_;

  // Reporting cohorts, precomputed at Create: cohort_by_tz_[z] lists the
  // client positions (id order) whose level h satisfies h <= z — exactly
  // the clients due at any tick t with countr_zero(t) == z. Cohorts nest
  // (z grows => superset), so one lookup replaces N divisibility tests.
  std::vector<std::vector<int32_t>> cohort_by_tz_;

  std::vector<RegistrationMessage> registrations_;
  std::vector<int8_t> partial_scratch_;  // telescoped partial sums per tick
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_FLEET_H_
