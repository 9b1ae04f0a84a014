#include "futurerand/net/client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "futurerand/sim/runner.h"

namespace futurerand::net {

namespace {

// Backoff between resends of an overloaded batch. The server answered
// immediately without consuming anything, so hammering it back-to-back
// only burns CPU on both sides.
constexpr std::chrono::milliseconds kOverloadBackoff(1);

}  // namespace

Result<StreamClient> StreamClient::ConnectTcp(const std::string& host,
                                              int port) {
  FR_ASSIGN_OR_RETURN(FdGuard fd, net::ConnectTcp(host, port));
  return StreamClient(std::move(fd));
}

Result<StreamClient> StreamClient::ConnectUnix(const std::string& path) {
  FR_ASSIGN_OR_RETURN(FdGuard fd, net::ConnectUnix(path));
  return StreamClient(std::move(fd));
}

Status StreamClient::Send(std::string_view payload) {
  std::string framed;
  framed.reserve(kFrameHeaderSize + payload.size());
  FR_RETURN_NOT_OK(AppendFrame(payload, &framed));
  FR_RETURN_NOT_OK(WriteAll(fd_.get(), framed));
  ++frames_sent_;
  return Status::OK();
}

Result<Reply> StreamClient::ReadReply() {
  while (pending_.empty()) {
    std::string chunk;
    FR_RETURN_NOT_OK(ReadChunk(fd_.get(), &chunk));
    FR_RETURN_NOT_OK(parser_.Feed(chunk, &pending_));
  }
  const std::string payload = std::move(pending_.front());
  pending_.erase(pending_.begin());
  FR_ASSIGN_OR_RETURN(const PayloadType type, ClassifyPayload(payload));
  if (type != PayloadType::kReply) {
    return Status::DataLoss(
        "expected a reply frame, got a different payload type");
  }
  return DecodeReply(payload);
}

Result<Reply> StreamClient::Call(std::string_view payload) {
  FR_RETURN_NOT_OK(Send(payload));
  const uint64_t seq = frames_sent_;
  FR_ASSIGN_OR_RETURN(Reply reply, ReadReply());
  if (reply.seq != seq) {
    return Status::DataLoss("reply sequence mismatch: sent frame " +
                            std::to_string(seq) + ", reply answers frame " +
                            std::to_string(reply.seq));
  }
  return reply;
}

Status StreamClient::SendControl(ControlOp op) {
  FR_ASSIGN_OR_RETURN(const Reply reply, Call(EncodeControl(op)));
  if (reply.verdict == Verdict::kAck) {
    return Status::OK();
  }
  return Status(reply.status,
                std::string("control request rejected by server: ") +
                    StatusCodeToString(reply.status));
}

Status DeliverEncodedOverStream(StreamClient& client,
                                const std::string& pristine,
                                sim::ChannelModel* channel,
                                core::WireVersion wire_version,
                                int64_t retransmit_budget,
                                sim::DeliveryMetrics* delivery) {
  const bool can_corrupt =
      channel != nullptr && channel->config().can_corrupt();
  // Mirrors the attempt body of sim::DeliverEncodedWithRetransmission,
  // with the server's reply standing in for the local ingest Status.
  auto attempt = [&]() -> Result<bool> {
    bool oracle_corrupted = false;
    const std::string* to_send = &pristine;
    std::string bytes;
    if (can_corrupt) {
      // Corruption mutates a copy so the pristine bytes stay available
      // for a retransmission; skip the copy when no fault can occur.
      bytes = pristine;
      oracle_corrupted = channel->MaybeCorrupt(&bytes);
      to_send = &bytes;
    }
    Reply reply;
    for (;;) {
      FR_ASSIGN_OR_RETURN(reply, client.Call(*to_send));
      if (reply.verdict != Verdict::kOverload) {
        break;
      }
      // Overload consumed nothing: resend the SAME bytes without a new
      // channel draw, so backpressure never perturbs the fault sequence.
      std::this_thread::sleep_for(kOverloadBackoff);
    }
    delivery->records_applied += reply.applied;
    delivery->records_deduped += reply.deduped;
    delivery->records_out_of_window += reply.out_of_window;
    if (reply.verdict == Verdict::kAck) {
      return true;
    }
    if (reply.status == StatusCode::kDataLoss) {
      ++delivery->batches_checksum_rejected;
    }
    const bool nack = wire_version == core::WireVersion::kV2
                          ? reply.status == StatusCode::kDataLoss
                          : oracle_corrupted;
    if (!nack) {
      return Status(reply.status,
                    std::string("server rejected batch: ") +
                        StatusCodeToString(reply.status));
    }
    return false;
  };
  return sim::RetransmitLoop(retransmit_budget, attempt, delivery);
}


StreamSink::StreamSink(std::span<StreamClient> clients,
                       const sim::FaultOptions& faults)
    : clients_(clients),
      wire_version_(faults.wire_version),
      retransmit_budget_(faults.retransmit_budget) {}

Status StreamSink::Register(
    const std::vector<core::RegistrationMessage>& registrations,
    int64_t tick) {
  // Registrations ship pristine (the channel only faults report batches)
  // and their outcome is not counted, matching the in-process sink.
  FR_ASSIGN_OR_RETURN(
      const Reply reply,
      clients_[0].Call(
          core::EncodeRegistrationBatch(registrations, wire_version_)));
  if (reply.verdict == Verdict::kAck) {
    return Status::OK();
  }
  const std::string code = StatusCodeToString(reply.status);
  if (tick == 0) {
    return Status::FailedPrecondition("registration rejected by server (" +
                                      code +
                                      ") — do the protocol flags match "
                                      "frserve's?");
  }
  return Status::FailedPrecondition(
      std::string("re-registration at t=") + std::to_string(tick) +
      " rejected by server (" + code + ") — is frserve running with --dedup?");
}

Status StreamSink::Deliver(const core::ReportBatch& batch, int64_t batch_index,
                           sim::ChannelModel* channel,
                           sim::DeliveryMetrics* delivery) {
  FR_ASSIGN_OR_RETURN(const std::string pristine,
                      core::EncodeReportBatch(batch, wire_version_));
  StreamClient& client =
      clients_[static_cast<size_t>(batch_index) % clients_.size()];
  return DeliverEncodedOverStream(client, pristine, channel, wire_version_,
                                  retransmit_budget_, delivery);
}

}  // namespace futurerand::net
