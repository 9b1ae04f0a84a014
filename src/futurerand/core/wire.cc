#include "futurerand/core/wire.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
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
  if (kind < kKindServerState || kind > kKindReportPackedV2) {
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
using wire_internal::kKindReportPackedV2;
using wire_internal::kKindReportV2;

// The longest varint: ceil(64 / 7) bytes.
constexpr size_t kMaxVarintBytes = 10;
constexpr size_t kTrailerBytes = 8;

// Writes a varint transport batch (kinds 6-7) in one pass: each byte goes
// through a raw pointer into a buffer sized for the usual batch and is
// folded into the running FNV-1a 64 hash as it is written, so the trailer
// needs no second walk over the string.
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

// Reads the records of a transport batch (kinds 6, 7 and 10) in one pass,
// folding each byte it consumes into the running FNV-1a 64 hash. Nothing
// parsed is trusted until Verdict has compared that hash against the
// trailer.
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

  // Reads a varint, hashing its bytes. Same rules as GetVarint64. The
  // one-byte case is marked likely: unmarked, GCC laid the inlined
  // multi-byte path in line and sent the common case through a taken
  // jump (kind-7 decode about 10% slower).
  [[gnu::always_inline]] Result<uint64_t> Varint() {
    if (FR_PREDICT_TRUE(next_ != end_)) {
      const auto byte = static_cast<uint8_t>(*next_);
      if (FR_PREDICT_TRUE(byte < 0x80)) {
        ++next_;
        hash_ = Fnv1a64Step(hash_, byte);
        return uint64_t{byte};
      }
    }
    return MultiByteVarint();
  }

  // Takes the next `count` bytes, hashing them; `count` must be at most
  // remaining().
  std::string_view Take(size_t count) {
    const std::string_view taken(next_, count);
    uint64_t hash = hash_;
    for (const char c : taken) {
      hash = Fnv1a64Step(hash, static_cast<uint8_t>(c));
    }
    hash_ = hash;
    next_ += count;
    return taken;
  }

  // Bytes left between the reader and the trailer.
  size_t remaining() const { return static_cast<size_t>(end_ - next_); }

  // Those bytes, not taken.
  std::string_view rest() const { return {next_, remaining()}; }

  // The hash of every byte taken so far.
  uint64_t hash() const { return hash_; }

  // Takes the next `count` bytes (at most remaining()), which the caller
  // folded into `hash`, starting from hash(), in its own loop.
  void TakeHashed(size_t count, uint64_t hash) {
    next_ += count;
    hash_ = hash;
  }

  // The batch's verdict once parsing stopped with `parsed`. A trailer
  // mismatch is kDataLoss and wins over every parse error; after a parse
  // error the hash is taken afresh over everything the trailer covers,
  // since the reader stopped short of the trailer.
  [[gnu::always_inline]] Status Verdict(Status parsed) const {
    if (FR_PREDICT_TRUE(parsed.ok() && next_ == end_ && hash_ == stored_)) {
      return parsed;
    }
    return FailedVerdict(
        std::move(parsed), next_ == end_, hash_,
        std::string_view(covered_.data(), covered_.size() + kTrailerBytes));
  }

 private:
  HashingReader() = default;

  // Verdict past its fast path, given the whole batch with its trailer.
  // Static and given values, so that no call the compiler leaves out of
  // line takes a reader's address: a reader whose address escapes lives in
  // memory, and the decode loop's hash chain then runs through a store and
  // a load per byte. For the same reason the methods the record loops
  // call, and ParseReports itself, are always inlined. The trailer is
  // re-read from `bytes` rather than passed, which keeps the call to six
  // register arguments: with a seventh on the stack, DecodeReportBatch
  // kept a frame pointer, one register fewer for the kind-7 loop.
  static Status FailedVerdict(Status parsed, bool at_end, uint64_t hash,
                              std::string_view bytes) {
    const std::string_view covered =
        bytes.substr(0, bytes.size() - kTrailerBytes);
    std::string_view trailer = bytes.substr(covered.size());
    if (parsed.ok() && !at_end) {
      parsed = Status::InvalidArgument("trailing bytes after batch");
    }
    if (!parsed.ok()) {
      hash = wire_internal::Fnv1a64(covered);
    }
    if (hash != wire_internal::GetFixed64(&trailer).ValueOrDie()) {
      return Status::DataLoss("checksum mismatch: corrupted blob");
    }
    return parsed;
  }

  [[gnu::always_inline]] Result<uint64_t> MultiByteVarint() {
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
[[gnu::always_inline]] inline Status ParseReports(
    HashingReader* reader, std::vector<ReportMessage>* batch) {
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

// Bytes of the LEB128 encoding of `value`.
size_t VarintBytes(uint64_t value) {
  return (static_cast<size_t>(std::bit_width(value | 1)) + 6) / 7;
}

// Bytes of a kind-10 bitmap of `bits` bits (bits >= 1), as
// ceil(bits / 8) without overflowing at bits = 2^64 - 1.
uint64_t BitmapBytes(uint64_t bits) { return (bits - 1) / 8 + 1; }

// The kind-10 bitmaps are little-endian: bit i of a bitmap is bit i % 8
// of its byte i / 8. These move the 64 bits from byte `at` on (fewer at
// the end of the bitmap; the rest read as zero) between bytes and a word.
// Whole words take the fixed-size copy, which compiles to one load or
// store; only the last, short one calls memcpy.
uint64_t LoadBits(std::string_view bits, size_t at) {
  uint64_t word = 0;
  if (FR_PREDICT_TRUE(bits.size() - at >= 8)) {
    std::memcpy(&word, bits.data() + at, 8);
  } else {
    std::memcpy(&word, bits.data() + at, bits.size() - at);
  }
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

void StoreBits(uint64_t word, size_t at, std::span<char> bits) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  if (FR_PREDICT_TRUE(bits.size() - at >= 8)) {
    std::memcpy(bits.data() + at, &word, 8);
  } else {
    std::memcpy(bits.data() + at, &word, bits.size() - at);
  }
}

// Folds the low `bytes` bytes of `word`, lowest first, into `hash`.
uint64_t Fnv1a64Word(uint64_t hash, uint64_t word, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    hash = Fnv1a64Step(hash, static_cast<uint8_t>(word >> (8 * i)));
  }
  return hash;
}

Status PopcountMismatch() {
  return Status::InvalidArgument("packed bitmap popcount differs from count");
}

// The records of a packed report batch (kind 10); same contract as
// ParseReports. Every count and span is checked against the bytes that
// remain before anything is sized by it.
Status ParsePackedReports(HashingReader* reader,
                          std::vector<ReportMessage>* batch) {
  FR_ASSIGN_OR_RETURN(const uint64_t count, reader->Varint());
  if (count < 1) {
    return Status::InvalidArgument("packed batch holds no reports");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t time_varint, reader->Varint());
  const auto time = static_cast<int64_t>(time_varint);
  if (time < 1) {
    return Status::InvalidArgument("decoded non-positive report time");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t first_varint, reader->Varint());
  const int64_t first_id = ZigZagDecode(first_varint);
  FR_ASSIGN_OR_RETURN(const uint64_t span, reader->Varint());
  // Unsigned arithmetic: INT64_MAX - first_id, exact for every first_id.
  if (span > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
                 static_cast<uint64_t>(first_id)) {
    return Status::InvalidArgument("packed id span overflows int64");
  }
  // A bitmap of span + 1 bits holds at most span + 1 reports (written so
  // that span = 2^64 - 1 does not wrap).
  if (count - 1 > span) {
    return Status::InvalidArgument("packed count exceeds the id span");
  }
  const uint64_t presence_bytes = span / 8 + 1;
  const uint64_t sign_bytes = BitmapBytes(count);
  if (presence_bytes > reader->remaining() ||
      sign_bytes > reader->remaining() - presence_bytes) {
    return Status::InvalidArgument("packed bitmaps run past the batch");
  }
  const char* const bitmaps = reader->rest().data();
  const std::string_view presence(bitmaps,
                                  static_cast<size_t>(presence_bytes));
  const std::string_view signs(bitmaps + presence.size(),
                               static_cast<size_t>(sign_bytes));
  const auto bit = [](std::string_view bits, uint64_t index) {
    return (static_cast<uint8_t>(bits[index / 8]) >> (index % 8)) & 1;
  };
  if (bit(presence, 0) == 0 || bit(presence, span) == 0) {
    return Status::InvalidArgument(
        "packed bitmap must start and end with a report");
  }
  if (static_cast<uint8_t>(presence.back()) >> (span % 8) > 1) {
    return Status::InvalidArgument("packed bitmap has padding bits set");
  }
  if (static_cast<uint8_t>(signs.back()) >> ((count - 1) % 8) > 1) {
    return Status::InvalidArgument("packed sign bits have padding bits set");
  }
  // count fits the sign bytes and the span, and the span fits the presence
  // bytes, so this allocation follows the input: at most eight records per
  // presence byte. The walk below stops at the count-th set bit; a bitmap
  // with more or fewer is rejected. It folds each presence word into the
  // hash as it loads it, so the byte-serial hash runs beside the expansion
  // instead of in a pass before it; the hash and the cursor stay locals
  // until the walk ends. Then the sign bits are taken.
  batch->resize(static_cast<size_t>(count));
  uint64_t index = 0;
  uint64_t hash = reader->hash();
  for (size_t at = 0; at < presence.size(); at += 8) {
    uint64_t word = LoadBits(presence, at);
    hash = FR_PREDICT_TRUE(presence.size() - at >= 8)
               ? Fnv1a64Word(hash, word, 8)
               : Fnv1a64Word(hash, word, presence.size() - at);
    for (; word != 0; word &= word - 1) {
      if (index == count) {
        return PopcountMismatch();
      }
      const uint64_t offset =
          8 * at + static_cast<uint64_t>(std::countr_zero(word));
      ReportMessage& message = (*batch)[static_cast<size_t>(index)];
      message.client_id = WrappingAdd(first_id, static_cast<int64_t>(offset));
      message.time = time;
      message.value = bit(signs, index) ? int8_t{1} : int8_t{-1};
      ++index;
    }
  }
  if (index != count) {
    return PopcountMismatch();
  }
  reader->TakeHashed(presence.size(), hash);
  reader->Take(signs.size());
  return Status::OK();
}

// DecodeReportBatch for kind 10.
Result<std::vector<ReportMessage>> DecodePackedReports(
    std::string_view bytes) {
  FR_ASSIGN_OR_RETURN(HashingReader reader,
                      HashingReader::Open(kKindReportPackedV2, bytes));
  std::vector<ReportMessage> batch;
  FR_RETURN_NOT_OK(reader.Verdict(ParsePackedReports(&reader, &batch)));
  return batch;
}

// Bytes after the count of kind 10 for a batch that runs from `first` to
// `last` in ascending ids at one time.
uint64_t PackedBytes(const ReportMessage& first, const ReportMessage& last,
                     uint64_t count) {
  const auto span =
      static_cast<uint64_t>(WrappingSub(last.client_id, first.client_id));
  return VarintBytes(static_cast<uint64_t>(first.time)) +
         VarintBytes(ZigZagEncode(first.client_id)) + VarintBytes(span) +
         span / 8 + 1 + BitmapBytes(count);
}

// Whether `batch` may qualify for kind 10 (at least one record; the first
// and last share a time and ascend) and packs to fewer bytes than kind 7's
// floor: every kind-7 record after the first costs at least two bytes.
// Both forms share the header, the count and the trailer, so only the
// bytes after the count are compared. Below the floor, kind 10 is strictly
// smaller than kind 7; a batch whose wide id gaps lift kind 7 above the
// floor stays kind 7 even where it would pack smaller.
bool PackedIsSmaller(const std::vector<ReportMessage>& batch) {
  if (batch.empty() || batch.front().time != batch.back().time ||
      batch.front().client_id > batch.back().client_id) {
    return false;
  }
  const ReportMessage& first = batch.front();
  const uint64_t floor = VarintBytes(ZigZagEncode(first.client_id)) +
                         VarintBytes(ZigZagEncode(first.time) << 1) +
                         2 * (batch.size() - 1);
  return PackedBytes(first, batch.back(), batch.size()) < floor;
}

// Writes `batch` as kind 10 into `*out` in one walk, checking as it goes
// that every record is valid, shares the first one's time and has a
// larger id than the one before; false, with `*out` unspecified, if one
// does not. The checks fold into one flag read at the end, except the
// bound on the presence bitmap, which every store needs. Both bitmaps fill
// in ascending bit order, so each builds one word in a register and
// stores it once complete: a presence word when the next id leaves it, a
// sign word after each group of 64 records. Each complete presence word
// is folded into the trailer's hash from the register, so the byte-serial
// hash runs beside the walk instead of in a pass after it; only the last
// presence word and the sign bits, an eighth of a byte per report, are
// hashed after the walk.
bool EncodePackedReports(const std::vector<ReportMessage>& batch,
                         std::string* out) {
  // Locals, not the vector and the first record: the bitmap stores go
  // through char pointers, which could alias either and force reloads.
  const std::span<const ReportMessage> records(batch);
  const int64_t first_id = records.front().client_id;
  const int64_t time = records.front().time;
  if (time < 1) {
    return false;
  }
  const auto span =
      static_cast<uint64_t>(WrappingSub(records.back().client_id, first_id));
  const auto presence_bytes = static_cast<size_t>(span / 8 + 1);
  const auto sign_bytes = static_cast<size_t>(BitmapBytes(records.size()));
  out->clear();
  out->reserve(wire_internal::kHeaderSize + 4 * kMaxVarintBytes +
               presence_bytes + sign_bytes + kTrailerBytes);
  wire_internal::AppendHeader(kKindReportPackedV2, out);
  wire_internal::PutVarint64(records.size(), out);
  wire_internal::PutVarint64(static_cast<uint64_t>(time), out);
  wire_internal::PutVarint64(ZigZagEncode(first_id), out);
  wire_internal::PutVarint64(span, out);
  const size_t presence_at = out->size();
  uint64_t hash = wire_internal::Fnv1a64(*out);
  out->resize(presence_at + presence_bytes + sign_bytes);
  const std::span<char> presence(out->data() + presence_at, presence_bytes);
  const std::span<char> signs(presence.data() + presence_bytes, sign_bytes);
  // Nonzero once any record fails a check. For a valid value, value + 1
  // is 0 or 2: its bit 1 is the sign bit and no other bit is set.
  uint64_t rejected = 0;
  uint64_t next_offset = 0;  // ids ascend: each offset is at least this
  uint64_t word = 0;
  uint64_t word_at = 0;  // the byte the presence word starts at
  uint64_t hashed = 0;   // presence bytes folded into `hash`
  for (size_t base = 0; base < records.size(); base += 64) {
    const auto group =
        records.subspan(base, std::min<size_t>(64, records.size() - base));
    // Sign bits enter at the top and shift down: after the group, record
    // base + j sits at bit j once shifted by 64 - group.size().
    uint64_t sign_word = 0;
    for (const ReportMessage& message : group) {
      const auto plus_one = static_cast<uint8_t>(message.value + 1);
      const auto offset =
          static_cast<uint64_t>(WrappingSub(message.client_id, first_id));
      rejected |= static_cast<uint64_t>(message.time ^ time) |
                  (plus_one & ~uint8_t{2}) |
                  static_cast<uint64_t>(offset < next_offset);
      next_offset = offset + 1;
      if (offset / 64 * 8 != word_at) {
        if (offset > span) {
          return false;
        }
        StoreBits(word, static_cast<size_t>(word_at), presence);
        for (; hashed < word_at; ++hashed) {  // whole words with no report
          hash = Fnv1a64Step(hash, 0);
        }
        hash = Fnv1a64Word(hash, word, 8);
        hashed = word_at + 8;
        word = 0;
        word_at = offset / 64 * 8;
      }
      word |= uint64_t{1} << (offset % 64);
      sign_word = sign_word >> 1 | uint64_t{plus_one} << 62;
    }
    StoreBits(sign_word >> (64 - group.size()), base / 8, signs);
  }
  if (rejected != 0) {
    return false;
  }
  StoreBits(word, static_cast<size_t>(word_at), presence);
  for (; hashed < word_at; ++hashed) {
    hash = Fnv1a64Step(hash, 0);
  }
  hash = Fnv1a64Word(hash, word, static_cast<size_t>(presence_bytes - word_at));
  for (const char c : signs) {
    hash = Fnv1a64Step(hash, static_cast<uint8_t>(c));
  }
  wire_internal::PutFixed64(hash, out);
  return true;
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
    case wire_internal::kKindReportPackedV2:
      return WireBatchKind::kReportPackedV2;
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
  std::string packed;
  if (PackedIsSmaller(batch) && EncodePackedReports(batch, &packed)) {
    return packed;
  }
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
  // Dispatch on the kind byte alone; each path's Open checks the whole
  // header, so a bad one fails the same way on either.
  if (bytes.size() >= wire_internal::kHeaderSize &&
      bytes[wire_internal::kHeaderSize - 1] == kKindReportPackedV2) {
    return DecodePackedReports(bytes);
  }
  FR_ASSIGN_OR_RETURN(HashingReader reader,
                      HashingReader::Open(kKindReportV2, bytes));
  std::vector<ReportMessage> batch;
  FR_RETURN_NOT_OK(reader.Verdict(ParseReports(&reader, &batch)));
  return batch;
}

}  // namespace futurerand::core
