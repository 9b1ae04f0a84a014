// Blocking client side of the FRS stream protocol: connect, ship framed
// payloads, read reply frames — tolerating short reads (FrameParser) and
// partial writes (WriteAll) — plus the network twin of the simulator's
// NACK retransmission delivery.
//
// StreamClient is deliberately synchronous: tools/frload drives the fault
// simulation tick by tick and needs each batch's verdict before the next
// channel draw, exactly like the in-process runner. Throughput comes from
// running several connections, not from pipelining one.

#ifndef FUTURERAND_NET_CLIENT_H_
#define FUTURERAND_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/socket.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/pipeline.h"

namespace futurerand::net {

/// One blocking connection to an IngestServer. Not thread-safe: the
/// protocol is strict request/reply per connection, so a connection
/// belongs to one thread at a time.
class StreamClient {
 public:
  static Result<StreamClient> ConnectTcp(const std::string& host, int port);
  static Result<StreamClient> ConnectUnix(const std::string& path);

  StreamClient(StreamClient&&) = default;
  StreamClient& operator=(StreamClient&&) = default;
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  /// Frames `payload` and writes it fully (blocking through partial
  /// writes). Every Send bumps the per-connection sequence number the
  /// server echoes in its reply — including resends of identical bytes,
  /// which are new frames on the wire.
  Status Send(std::string_view payload);

  /// Blocks until one complete reply frame arrives. Fails with kIoError on
  /// EOF and kDataLoss if the stream desyncs or delivers a non-reply frame.
  Result<Reply> ReadReply();

  /// Send + ReadReply, checking that the reply echoes this frame's
  /// sequence number (kDataLoss on mismatch — the stream lost a reply).
  Result<Reply> Call(std::string_view payload);

  /// Sends a control request and waits for its ack. A kError verdict comes
  /// back as the Status the server reported. For ControlOp::kShutdown the
  /// ack is the server's last frame, sent after the drain and the final
  /// checkpoint.
  Status SendControl(ControlOp op);

  /// Frames sent so far (== the sequence number of the last Send).
  uint64_t frames_sent() const { return frames_sent_; }

 private:
  explicit StreamClient(FdGuard fd) : fd_(std::move(fd)) {}

  FdGuard fd_;
  FrameParser parser_;
  std::vector<std::string> pending_;  // decoded-but-unconsumed reply frames
  uint64_t frames_sent_ = 0;
};

/// Ships one encoded batch to the server behind `client` with the same
/// NACK retransmission policy as the in-process
/// sim::DeliverEncodedWithRetransmission — both delegate the budget
/// accounting to sim::RetransmitLoop, so a budget of N means N total
/// transmissions on the wire too. Per attempt: corruption mutates a copy
/// of `pristine` through `channel` (nullable = no corruption possible),
/// the copy rides one Call, and the server's verdict drives the retry —
/// kAck accepts, kNack retransmits the pristine bytes (kV2), kError under
/// kV1 falls back to the channel's oracle flag exactly like the runner.
/// A kOverload verdict resends the SAME bytes after a short backoff
/// without a new channel draw (the server consumed nothing), so overload
/// never perturbs the fault sequence. `delivery` accumulates the outcome
/// counts from the replies, which therefore sum identically to an
/// in-process run.
Status DeliverEncodedOverStream(StreamClient& client,
                                const std::string& pristine,
                                sim::ChannelModel* channel,
                                core::WireVersion wire_version,
                                int64_t retransmit_budget,
                                sim::DeliveryMetrics* delivery);

/// The network sink of sim::RunPipeline: the same period loop as the
/// in-process run, with every batch shipped to an IngestServer. Report
/// batch i goes out on clients[i mod N] through DeliverEncodedOverStream;
/// delivery stays synchronous per batch, so the channel's draw order — and
/// with it every estimate and counter — is independent of N.
/// Registrations go out on clients[0] by Call and must be acked.
class StreamSink final : public sim::ReportSink {
 public:
  /// `clients` must be non-empty and outlive the sink. Only the wire
  /// version and retransmit budget of `faults` are read.
  StreamSink(std::span<StreamClient> clients, const sim::FaultOptions& faults);

  Status Register(const std::vector<core::RegistrationMessage>& registrations,
                  int64_t tick) override;
  Status Deliver(const core::ReportBatch& batch, int64_t batch_index,
                 sim::ChannelModel* channel,
                 sim::DeliveryMetrics* delivery) override;

 private:
  std::span<StreamClient> clients_;
  core::WireVersion wire_version_;
  int64_t retransmit_budget_;
};

}  // namespace futurerand::net

#endif  // FUTURERAND_NET_CLIENT_H_
