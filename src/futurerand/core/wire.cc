#include "futurerand/core/wire.h"

#include <algorithm>
#include <cstddef>
#include <utility>

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
    // The tenth byte holds bit 63 alone; anything more would not fit.
    if (i == 9 && byte > 1) {
      break;
    }
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

// One step of FNV-1a 64: Fnv1a64 of a string is the offset basis stepped
// once per byte. The transport codec steps it while it writes or parses,
// so a batch is walked once.
constexpr uint64_t Fnv1a64Step(uint64_t hash, uint8_t byte) {
  return (hash ^ byte) * 0x100000001b3ULL;
}

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
    hash = Fnv1a64Step(hash, static_cast<uint8_t>(c));
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

using wire_internal::Fnv1a64Step;
using wire_internal::WrappingAdd;
using wire_internal::WrappingSub;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;
using wire_internal::kKindRegistrationV2;
using wire_internal::kKindReportV2;

// The longest varint: ceil(64 / 7) bytes.
constexpr size_t kMaxVarintBytes = 10;
constexpr size_t kTrailerBytes = 8;

// Writes a transport batch (kinds 6-7) in one pass: each byte goes through
// a raw pointer into a buffer sized for the usual batch and is folded into
// the running FNV-1a 64 hash as it is written, so the trailer needs no
// second walk over the string.
class HashingWriter {
 public:
  // Sizes the buffer for header, count, two bytes per record (one-byte id
  // and time deltas, the common case) and the trailer, then writes the
  // header and the count. A batch with wider deltas grows as needed.
  HashingWriter(char kind, size_t count) {
    wire_internal::AppendHeader(kind, &out_);
    hash_ = wire_internal::Fnv1a64(out_);
    out_.resize(wire_internal::kHeaderSize + kMaxVarintBytes + 2 * count +
                kTrailerBytes);
    next_ = out_.data() + wire_internal::kHeaderSize;
    end_ = out_.data() + out_.size();
    Varint(count);
  }

  // The write pointers point into out_, so a copy would write into the
  // original's buffer.
  HashingWriter(const HashingWriter&) = delete;
  HashingWriter& operator=(const HashingWriter&) = delete;

  // Makes room for one record: two varints.
  void ReserveRecord() {
    if (FR_PREDICT_FALSE(end_ - next_ <
                         static_cast<ptrdiff_t>(2 * kMaxVarintBytes))) {
      Grow(2 * kMaxVarintBytes);
    }
  }

  // Appends an unsigned LEB128 varint; call ReserveRecord first.
  void Varint(uint64_t value) {
    while (value >= 0x80) {
      Byte(static_cast<uint8_t>((value & 0x7f) | 0x80));
      value >>= 7;
    }
    Byte(static_cast<uint8_t>(value));
  }

  // Appends the trailer (the hash of every byte written) and returns the
  // batch.
  std::string Finish() && {
    out_.resize(static_cast<size_t>(next_ - out_.data()));
    wire_internal::PutFixed64(hash_, &out_);
    return std::move(out_);
  }

 private:
  void Byte(uint8_t byte) {
    *next_++ = static_cast<char>(byte);
    hash_ = Fnv1a64Step(hash_, byte);
  }

  void Grow(size_t bytes) {
    const size_t used = static_cast<size_t>(next_ - out_.data());
    out_.resize(std::max(2 * out_.size(), used + bytes + kTrailerBytes));
    next_ = out_.data() + used;
    end_ = out_.data() + out_.size();
  }

  std::string out_;
  char* next_ = nullptr;
  char* end_ = nullptr;
  uint64_t hash_ = 0;
};

// Reads the records of a transport batch (kinds 6-7) in one pass, folding
// each byte it consumes into the running FNV-1a 64 hash. Nothing parsed is
// trusted until Verdict has compared that hash against the trailer.
class HashingReader {
 public:
  // Validates the header against `kind` and splits off the trailer; the
  // reader is then positioned at the count varint.
  static Result<HashingReader> Open(char kind, std::string_view bytes) {
    FR_ASSIGN_OR_RETURN(const char found, wire_internal::CheckHeader(bytes));
    if (found != kind) {
      return Status::InvalidArgument("unexpected batch kind");
    }
    if (bytes.size() < kTrailerBytes) {
      return Status::DataLoss("blob shorter than its checksum");
    }
    HashingReader reader;
    reader.covered_ = bytes.substr(0, bytes.size() - kTrailerBytes);
    std::string_view trailer = bytes.substr(reader.covered_.size());
    reader.stored_ = wire_internal::GetFixed64(&trailer).ValueOrDie();
    // A batch shorter than header + trailer has its trailer overlapping
    // the header: hash what the trailer covers and leave no records.
    const std::string_view header = reader.covered_.substr(
        0, std::min(wire_internal::kHeaderSize, reader.covered_.size()));
    reader.hash_ = wire_internal::Fnv1a64(header);
    reader.next_ = header.data() + header.size();
    reader.end_ = reader.covered_.data() + reader.covered_.size();
    return reader;
  }

  // Reads a varint, hashing its bytes. Same rules as GetVarint64.
  Result<uint64_t> Varint() {
    if (FR_PREDICT_TRUE(next_ != end_)) {
      const auto byte = static_cast<uint8_t>(*next_);
      if (byte < 0x80) {
        ++next_;
        hash_ = Fnv1a64Step(hash_, byte);
        return uint64_t{byte};
      }
    }
    return MultiByteVarint();
  }

  // Bytes left between the reader and the trailer.
  size_t remaining() const { return static_cast<size_t>(end_ - next_); }

  // The batch's verdict once parsing stopped with `parsed`. A trailer
  // mismatch is kDataLoss and wins over every parse error; after a parse
  // error the hash is taken afresh over everything the trailer covers,
  // since the reader stopped short of the trailer.
  Status Verdict(Status parsed) const {
    if (parsed.ok() && next_ != end_) {
      parsed = Status::InvalidArgument("trailing bytes after batch");
    }
    const uint64_t hash =
        parsed.ok() ? hash_ : wire_internal::Fnv1a64(covered_);
    if (hash != stored_) {
      return Status::DataLoss("checksum mismatch: corrupted blob");
    }
    return parsed;
  }

 private:
  HashingReader() = default;

  Result<uint64_t> MultiByteVarint() {
    std::string_view rest(next_, remaining());
    FR_ASSIGN_OR_RETURN(const uint64_t value,
                        wire_internal::GetVarint64MultiByte(&rest));
    for (; next_ != rest.data(); ++next_) {
      hash_ = Fnv1a64Step(hash_, static_cast<uint8_t>(*next_));
    }
    return value;
  }

  std::string_view covered_;  // every byte before the trailer
  const char* next_ = nullptr;
  const char* end_ = nullptr;
  uint64_t hash_ = 0;
  uint64_t stored_ = 0;
};

// The records of a registration batch; errors leave `*batch` partial, and
// the caller discards it.
Status ParseRegistrations(HashingReader* reader,
                          std::vector<RegistrationMessage>* batch) {
  FR_ASSIGN_OR_RETURN(const uint64_t count, reader->Varint());
  // A record costs >= 2 bytes, so a count claiming more than the remaining
  // bytes allow is corrupt; clamping keeps the reserve proportional to the
  // input instead of trusting a (possibly bit-flipped) varint.
  batch->reserve(static_cast<size_t>(
      std::min<uint64_t>(count, reader->remaining() / 2 + 1)));
  int64_t previous_id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(const uint64_t id_delta, reader->Varint());
    FR_ASSIGN_OR_RETURN(const uint64_t level, reader->Varint());
    if (level > 62) {
      return Status::InvalidArgument("implausible level");
    }
    RegistrationMessage message;
    message.client_id = WrappingAdd(previous_id, ZigZagDecode(id_delta));
    message.level = static_cast<int>(level);
    previous_id = message.client_id;
    batch->push_back(message);
  }
  return Status::OK();
}

// The records of a report batch; same contract as ParseRegistrations.
Status ParseReports(HashingReader* reader, std::vector<ReportMessage>* batch) {
  FR_ASSIGN_OR_RETURN(const uint64_t count, reader->Varint());
  batch->reserve(static_cast<size_t>(
      std::min<uint64_t>(count, reader->remaining() / 2 + 1)));
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(const uint64_t id_delta, reader->Varint());
    FR_ASSIGN_OR_RETURN(const uint64_t packed_time, reader->Varint());
    ReportMessage message;
    message.client_id = WrappingAdd(previous_id, ZigZagDecode(id_delta));
    message.value = (packed_time & 1) ? int8_t{1} : int8_t{-1};
    message.time = WrappingAdd(previous_time, ZigZagDecode(packed_time >> 1));
    if (message.time < 1) {
      return Status::InvalidArgument("decoded non-positive report time");
    }
    previous_id = message.client_id;
    previous_time = message.time;
    batch->push_back(message);
  }
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
  HashingWriter out(kKindRegistrationV2, batch.size());
  int64_t previous_id = 0;
  for (const RegistrationMessage& message : batch) {
    out.ReserveRecord();
    out.Varint(ZigZagEncode(WrappingSub(message.client_id, previous_id)));
    out.Varint(static_cast<uint64_t>(message.level));
    previous_id = message.client_id;
  }
  return std::move(out).Finish();
}

Result<std::vector<RegistrationMessage>> DecodeRegistrationBatch(
    std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(HashingReader reader,
                      HashingReader::Open(kKindRegistrationV2, bytes));
  std::vector<RegistrationMessage> batch;
  FR_RETURN_NOT_OK(reader.Verdict(ParseRegistrations(&reader, &batch)));
  return batch;
}

Result<std::string> EncodeReportBatch(
    const std::vector<ReportMessage>& batch, WireVersion /*version*/) {
  HashingWriter out(kKindReportV2, batch.size());
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  for (const ReportMessage& message : batch) {
    if (message.value != -1 && message.value != 1) {
      return Status::InvalidArgument("report values must be -1 or +1");
    }
    if (message.time < 1) {
      return Status::InvalidArgument("report times are 1-based");
    }
    out.ReserveRecord();
    out.Varint(ZigZagEncode(WrappingSub(message.client_id, previous_id)));
    // Pack the sign into the low bit of the zigzagged time delta.
    const uint64_t time_delta =
        ZigZagEncode(WrappingSub(message.time, previous_time));
    out.Varint(time_delta << 1 | (message.value == 1 ? 1u : 0u));
    previous_id = message.client_id;
    previous_time = message.time;
  }
  return std::move(out).Finish();
}

Result<std::vector<ReportMessage>> DecodeReportBatch(std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(HashingReader reader,
                      HashingReader::Open(kKindReportV2, bytes));
  std::vector<ReportMessage> batch;
  FR_RETURN_NOT_OK(reader.Verdict(ParseReports(&reader, &batch)));
  return batch;
}

}  // namespace futurerand::core
