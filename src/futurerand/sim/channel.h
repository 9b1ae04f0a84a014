// Lossy-transport simulation between the client fleet and the aggregator.
//
// Real collectors sit behind at-least-once transports: reports get lost,
// retried (hence duplicated), reordered by racing connections, delayed past
// their tick, and — in bursts — corrupted in flight. ChannelModel injects
// exactly those faults, seeded and deterministic, so the fault-tolerance
// machinery (DedupPolicy, wire checksums, checkpoint/restore, the NACK
// retransmission loop) can be exercised end to end and the error impact of
// a given fault mix measured instead of guessed.
//
// Three fault layers compose, each off by default:
//
//   steady-state   independent per record (drop, duplicate) or per batch
//                  (reorder, corrupt) at the base rates;
//   Gilbert-Elliott a hidden two-state good/bad chain. While bad, the
//                  burst_* rates REPLACE the base drop/corrupt rates, so
//                  losses and bit flips arrive clustered — the regime that
//                  makes receiver-side corruption detection (the batch checksum)
//                  worth having, since consecutive retransmissions fail
//                  together;
//   per-client     each client runs its own outage chain: while dark, all
//                  of that client's reports are lost, so faults correlate
//                  per client across ticks rather than per record;
//   latency/skew   a delivered record may be held back 1..delay_ticks_max
//                  ticks and released into a later Transmit's output, so
//                  one delivered batch interleaves records from several
//                  ticks (out of order per client — kIdempotent territory).
//
// All randomness comes from the seed given at construction, so a
// (config, seed) pair replays the identical fault sequence. With every
// extension knob at its default the per-record random-draw sequence is
// byte-identical to the pre-burst channel, so legacy (config, seed) pairs
// replay unchanged.

#ifndef FUTURERAND_SIM_CHANNEL_H_
#define FUTURERAND_SIM_CHANNEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "futurerand/common/random.h"
#include "futurerand/common/result.h"
#include "futurerand/core/fleet.h"
#include "futurerand/sim/metrics.h"

namespace futurerand::sim {

/// Fault rates of a simulated transport; every rate in [0, 1], everything
/// default-off (a perfect channel).
struct ChannelConfig {
  // Steady-state (Gilbert-Elliott "good" state) rates.
  double drop_rate = 0.0;       // P(a record is silently lost)
  double duplicate_rate = 0.0;  // P(a record is delivered a second time)
  double reorder_rate = 0.0;    // P(a delivered batch arrives shuffled)
  double corrupt_rate = 0.0;    // P(one random bit of the encoded batch flips)

  // Gilbert-Elliott burst layer. The chain advances once per Transmit and
  // once per MaybeCorrupt call (each retransmission re-traverses the
  // link). While in the bad state, burst_drop_rate / burst_corrupt_rate
  // replace the steady-state drop/corrupt rates; duplicate and reorder
  // are state-independent. Expected burst length is 1/burst_exit_rate
  // traversals.
  double burst_enter_rate = 0.0;    // P(good -> bad) per traversal
  double burst_exit_rate = 0.0;     // P(bad -> good) per traversal
  double burst_drop_rate = 0.0;     // drop rate while bad
  double burst_corrupt_rate = 0.0;  // corrupt rate while bad

  // Per-client outage correlation: client c's chain advances once per
  // report of c that enters the channel; while dark, every report of c is
  // dropped (counted in records_outage_dropped too).
  double outage_enter_rate = 0.0;  // P(a client goes dark), per report
  double outage_exit_rate = 0.0;   // P(a dark client recovers), per report

  // Latency/skew: a record that survived drop/outage may be delayed by
  // uniform 1..delay_ticks_max ticks and delivered at the front of that
  // later tick's batch. Delayed records arrive out of order relative to
  // the client's newer reports, so delay requires DedupPolicy::kIdempotent.
  double delay_rate = 0.0;       // P(a delivered record is delayed)
  int64_t delay_ticks_max = 0;   // uniform delay in [1, max] ticks

  /// True iff any fault can occur.
  bool enabled() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           corrupt_rate > 0.0 || bursty() || outage_enter_rate > 0.0 ||
           delay_rate > 0.0;
  }

  /// True iff the Gilbert-Elliott layer is active.
  bool bursty() const { return burst_enter_rate > 0.0; }

  /// True iff any configuration (steady or burst) can flip bits.
  bool can_corrupt() const {
    return corrupt_rate > 0.0 || burst_corrupt_rate > 0.0;
  }

  /// OK iff every rate is a probability and the layers are coherent:
  /// a burst layer needs an exit rate (bursts must end) and burst_* rates
  /// are meaningless without burst_enter_rate; outages likewise need a
  /// recovery rate; delays need delay_ticks_max >= 1.
  Status Validate() const;
};

/// The channel model's Rng stream id: far above any client id, so the
/// fault randomness never collides with a per-client stream forked from
/// the same base seed.
inline constexpr uint64_t kChannelStreamId = 0xC4A11E10C4A11E10ULL;

/// The channel seed RunProtocol derives from a run's protocol seed. A
/// remote load generator (tools/frload) that wants its fault sequence
/// bit-identical to the in-process run must seed its ChannelModel with
/// exactly this value.
inline uint64_t ChannelSeedForRun(uint64_t protocol_seed) {
  return Rng(protocol_seed).Fork(kChannelStreamId).NextUint64();
}

/// A seeded fault injector. Not thread-safe: one channel models one ordered
/// transport stream.
class ChannelModel {
 public:
  /// `seed` drives all fault randomness; the config is validated with
  /// FR_CHECK (programming error, not input).
  ChannelModel(const ChannelConfig& config, uint64_t seed);

  /// Applies per-record outage/drop/duplicate/delay faults and the
  /// per-batch reorder fault to `sent`, appending what the aggregator
  /// would receive to `*delivered` (cleared first). Each call is one tick:
  /// records delayed by earlier calls whose time has come are released at
  /// the front of `*delivered` (then possibly shuffled in with the rest by
  /// reorder), so a delivered batch can interleave several ticks.
  /// Duplicated records are appended after their original, out of time
  /// order — exactly what DedupPolicy::kIdempotent must absorb.
  void Transmit(const core::ReportBatch& sent, core::ReportBatch* delivered);

  /// Flips one uniformly random bit of `*bytes` with the corrupt rate of
  /// the current Gilbert-Elliott state (steady corrupt_rate when the burst
  /// layer is off). Returns true iff a flip happened. No-op on empty
  /// input. Advances the burst chain (a retransmission that calls this
  /// again re-traverses the link, so a burst can corrupt several attempts
  /// in a row — or end mid-loop).
  bool MaybeCorrupt(std::string* bytes);

  /// Appends every still-pending delayed record to `*delivered` (cleared
  /// first), regardless of release tick, sorted by (client id, time) so
  /// the end-of-run flush is a deterministic function of the records
  /// themselves rather than of internal submission order. Call once after
  /// the final Transmit so lagging records are delivered rather than
  /// lost; the records count as delivered only now.
  void FlushDelayed(core::ReportBatch* delivered);

  /// True iff the channel is currently in the Gilbert-Elliott bad state.
  bool in_burst() const { return burst_bad_; }

  /// Counters of everything transmitted so far. Only the channel-side
  /// fields are filled; the aggregator-side fields (applied/deduped) and
  /// the NACK/retransmission counters belong to whoever ingests the
  /// deliveries.
  const DeliveryMetrics& stats() const { return stats_; }

  const ChannelConfig& config() const { return config_; }

 private:
  // One step of the Gilbert-Elliott chain; no-op (and no random draw)
  // unless the burst layer is enabled.
  void AdvanceBurstState();

  // Moves every delayed record due at tick_ to the back of *delivered,
  // preserving submission order.
  void ReleaseDueDelayed(core::ReportBatch* delivered);

  ChannelConfig config_;
  Rng rng_;
  DeliveryMetrics stats_;
  int64_t tick_ = 0;        // Transmit calls so far
  bool burst_bad_ = false;  // Gilbert-Elliott state
  std::unordered_map<int64_t, bool> client_dark_;  // per-client outage state
  // Delayed records with their release tick, in submission order.
  std::vector<std::pair<int64_t, core::ReportMessage>> delayed_;
};

}  // namespace futurerand::sim

#endif  // FUTURERAND_SIM_CHANNEL_H_
