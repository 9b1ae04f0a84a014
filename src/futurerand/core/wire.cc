#include "futurerand/core/wire.h"

#include <algorithm>

namespace futurerand::core {

namespace wire_internal {

void PutFixed64(uint64_t value, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(value & 0xff));
    value >>= 8;
  }
}

Result<uint64_t> GetFixed64(std::string_view* bytes) {
  if (bytes->size() < 8) {
    return Status::InvalidArgument("truncated fixed64");
  }
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>((*bytes)[static_cast<size_t>(i)]);
  }
  bytes->remove_prefix(8);
  return value;
}

void PutVarint64MultiByte(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Result<uint64_t> GetVarint64MultiByte(std::string_view* bytes) {
  uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (bytes->empty()) {
      return Status::InvalidArgument("truncated varint");
    }
    const auto byte = static_cast<uint8_t>(bytes->front());
    bytes->remove_prefix(1);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
  }
  return Status::InvalidArgument("overlong varint");
}

namespace {

constexpr char kMagic0 = 'F';
constexpr char kMagic1 = 'R';
constexpr char kMagic2 = 'W';

}  // namespace

void AppendHeader(char kind, std::string* out) {
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  out->push_back(kMagic2);
  out->push_back(KindWireVersion(kind));
  out->push_back(kind);
}

Result<char> CheckHeader(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("batch shorter than its header");
  }
  // Header failures are kDataLoss, not kInvalidArgument: at an ingest
  // boundary an unrecognizable frame means "garbled in flight" (or not
  // ours at all), and the retransmission loop keys off that code.
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1 || bytes[2] != kMagic2) {
    return Status::DataLoss("bad magic");
  }
  const char version = bytes[3];
  if (version != kWireVersion1 && version != kWireVersion2) {
    return Status::DataLoss("unsupported wire version");
  }
  const char kind = bytes[4];
  if (kind < kKindServerState || kind > kKindFleetLongState) {
    return Status::DataLoss("unknown batch kind");
  }
  if (version != KindWireVersion(kind)) {
    return Status::DataLoss("wire version does not frame this batch kind");
  }
  return kind;
}

Status ConsumeHeader(char expected_kind, std::string_view* bytes) {
  FR_ASSIGN_OR_RETURN(const char kind, CheckHeader(*bytes));
  if (kind != expected_kind) {
    return Status::InvalidArgument("unexpected batch kind");
  }
  bytes->remove_prefix(kHeaderSize);
  return Status::OK();
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void AppendChecksum(std::string* out) {
  PutFixed64(Fnv1a64(*out), out);
}

Status ConsumeChecksum(std::string_view* bytes) {
  if (bytes->size() < 8) {
    return Status::DataLoss("blob shorter than its checksum");
  }
  const std::string_view payload = bytes->substr(0, bytes->size() - 8);
  std::string_view trailer = bytes->substr(payload.size());
  FR_ASSIGN_OR_RETURN(const uint64_t stored, GetFixed64(&trailer));
  if (stored != Fnv1a64(payload)) {
    return Status::DataLoss("checksum mismatch: corrupted blob");
  }
  *bytes = payload;
  return Status::OK();
}

}  // namespace wire_internal

namespace {

using wire_internal::GetVarint64;
using wire_internal::PutVarint64;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;
using wire_internal::kKindRegistrationV2;
using wire_internal::kKindReportV2;

// Reserves the usual size of a transport batch before appending its
// header: header, the count varint (at most 10 bytes), two bytes per record
// (one-byte id and time deltas, the common case) and the trailer. A
// batch with wider deltas still grows as needed.
void AppendBatchHeader(char kind, size_t count, std::string* out) {
  out->reserve(wire_internal::kHeaderSize + 10 + 2 * count + 8);
  wire_internal::AppendHeader(kind, out);
  PutVarint64(count, out);
}

// Strips a validated transport header of `expected_kind`; the FNV-1a
// trailer is verified and removed FIRST, so no record of a corrupted batch
// is ever parsed. On success `*bytes` holds exactly the record payload
// (count varint first).
Status ConsumeTransportHeader(char expected_kind, std::string_view* bytes) {
  FR_ASSIGN_OR_RETURN(const char kind, wire_internal::CheckHeader(*bytes));
  if (kind != expected_kind) {
    return Status::InvalidArgument("unexpected batch kind");
  }
  FR_RETURN_NOT_OK(wire_internal::ConsumeChecksum(bytes));
  bytes->remove_prefix(wire_internal::kHeaderSize);
  return Status::OK();
}

}  // namespace

Result<WireBatchKind> PeekBatchKind(std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(const char kind, wire_internal::CheckHeader(bytes));
  switch (kind) {
    case wire_internal::kKindServerState:
      return WireBatchKind::kServerState;
    case wire_internal::kKindAggregatorState:
      return WireBatchKind::kAggregatorState;
    case wire_internal::kKindAggregatorDelta:
      return WireBatchKind::kAggregatorDelta;
    case wire_internal::kKindRegistrationV2:
      return WireBatchKind::kRegistrationV2;
    case wire_internal::kKindReportV2:
      return WireBatchKind::kReportV2;
    case wire_internal::kKindServerStateSketch:
      return WireBatchKind::kServerStateSketch;
    case wire_internal::kKindFleetLongState:
      return WireBatchKind::kFleetLongState;
    default:
      return Status::DataLoss("unknown batch kind");
  }
}

std::string EncodeRegistrationBatch(
    const std::vector<RegistrationMessage>& batch) {
  std::string out;
  AppendBatchHeader(kKindRegistrationV2, batch.size(), &out);
  int64_t previous_id = 0;
  for (const RegistrationMessage& message : batch) {
    PutVarint64(ZigZagEncode(message.client_id - previous_id), &out);
    PutVarint64(static_cast<uint64_t>(message.level), &out);
    previous_id = message.client_id;
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

Result<std::vector<RegistrationMessage>> DecodeRegistrationBatch(
    std::string_view bytes) {
  FR_RETURN_NOT_OK(ConsumeTransportHeader(kKindRegistrationV2, &bytes));
  FR_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&bytes));
  std::vector<RegistrationMessage> batch;
  // A record costs >= 2 bytes, so a count claiming more than the remaining
  // bytes allow is corrupt; clamping keeps the reserve proportional to the
  // input instead of trusting a (possibly bit-flipped) varint.
  batch.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, bytes.size() / 2 + 1)));
  int64_t previous_id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(uint64_t id_delta, GetVarint64(&bytes));
    FR_ASSIGN_OR_RETURN(uint64_t level, GetVarint64(&bytes));
    if (level > 62) {
      return Status::InvalidArgument("implausible level");
    }
    RegistrationMessage message;
    message.client_id = previous_id + ZigZagDecode(id_delta);
    message.level = static_cast<int>(level);
    previous_id = message.client_id;
    batch.push_back(message);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

Result<std::string> EncodeReportBatch(
    const std::vector<ReportMessage>& batch, WireVersion /*version*/) {
  std::string out;
  AppendBatchHeader(kKindReportV2, batch.size(), &out);
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  for (const ReportMessage& message : batch) {
    if (message.value != -1 && message.value != 1) {
      return Status::InvalidArgument("report values must be -1 or +1");
    }
    if (message.time < 1) {
      return Status::InvalidArgument("report times are 1-based");
    }
    PutVarint64(ZigZagEncode(message.client_id - previous_id), &out);
    // Pack the sign into the low bit of the zigzagged time delta.
    const uint64_t time_delta = ZigZagEncode(message.time - previous_time);
    PutVarint64(time_delta << 1 | (message.value == 1 ? 1u : 0u), &out);
    previous_id = message.client_id;
    previous_time = message.time;
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

Result<std::vector<ReportMessage>> DecodeReportBatch(std::string_view bytes) {
  FR_RETURN_NOT_OK(ConsumeTransportHeader(kKindReportV2, &bytes));
  FR_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&bytes));
  std::vector<ReportMessage> batch;
  batch.reserve(static_cast<size_t>(
      std::min<uint64_t>(count, bytes.size() / 2 + 1)));
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(uint64_t id_delta, GetVarint64(&bytes));
    FR_ASSIGN_OR_RETURN(uint64_t packed_time, GetVarint64(&bytes));
    ReportMessage message;
    message.client_id = previous_id + ZigZagDecode(id_delta);
    message.value = (packed_time & 1) ? int8_t{1} : int8_t{-1};
    message.time = previous_time + ZigZagDecode(packed_time >> 1);
    if (message.time < 1) {
      return Status::InvalidArgument("decoded non-positive report time");
    }
    previous_id = message.client_id;
    previous_time = message.time;
    batch.push_back(message);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

}  // namespace futurerand::core
