// Wire format for client -> server transport.
//
// A deployment ships registrations (client id, level) once and then one-bit
// reports at dyadic boundaries. This module defines a compact, versioned,
// validated binary encoding for batches of both message types:
//
//   [magic 'F','R','W'][version 2][kind 6|7][varint count][records...]
//   [FNV-1a 64 trailer over every preceding byte]
//
// A report batch whose records share one time and have strictly ascending
// ids may instead ship packed (kind 10): the time and the id range once,
// then a presence bitmap over the range and one sign bit per report.
// EncodeReportBatch picks it only where it is smaller than the least kind 7
// could take (two bytes per record after the first).
//
// The trailer (the snapshot convention) lets a receiver *detect* in-flight
// corruption: every single-bit flip is rejected with StatusCode::kDataLoss
// and the sender retransmits (NACK-style). Kinds 1-2, the unchecksummed v1
// transport batches, are retired: they are rejected with kDataLoss like
// any other undefined version/kind pair, and the kind bytes are never
// reused.
//
// Records are delta-encoded: client ids and times are sorted-friendly
// (consecutive ids/time steps cost one byte each), values pack into the
// time varint's low bit. Decoding rejects wrong magic, a version/kind pair
// the table below does not define, truncated input, overlong varints and
// trailing bytes — malformed network input must never reach the
// aggregation logic. Header-level failures (bad magic, unknown version or
// kind) and checksum mismatches return kDataLoss: at an ingest boundary
// they mean "garbled in flight", and the retry loop keys off that code.
//
// The same [magic][version][kind] header scheme frames the checkpoint
// blobs of core/snapshot.h (kinds kServerState / kAggregatorState /
// kAggregatorDelta), which carry the same FNV-1a trailer so bit rot in
// persisted state is always rejected rather than silently restored.
//
// Thread-safety: all functions here are pure (no shared state); encoding
// and decoding may run concurrently from any number of threads.
//
// docs/FORMATS.md is the normative byte-layout specification for every
// kind; scripts/check_format_spec.sh keeps the constants below and that
// table in lockstep.

#ifndef FUTURERAND_CORE_WIRE_H_
#define FUTURERAND_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "futurerand/common/result.h"

namespace futurerand::core {

/// One client registration (sent once, before any report).
struct RegistrationMessage {
  int64_t client_id = 0;
  int level = 0;

  friend bool operator==(const RegistrationMessage&,
                         const RegistrationMessage&) = default;
};

/// One perturbed report: the bit a client emitted at a dyadic boundary.
struct ReportMessage {
  int64_t client_id = 0;
  int64_t time = 0;     // 1-based period, a multiple of 2^level
  int8_t value = 1;     // -1 or +1
  friend bool operator==(const ReportMessage&, const ReportMessage&) = default;
};

/// The container version of the transport batches. v2 (an FNV-1a
/// trailer on every batch) is the only one.
enum class WireVersion { kV2 = 2 };

/// The payloads the wire format carries. Registration and report batches
/// are the transport messages; server and aggregator state are the
/// checkpoint blobs of core/snapshot.h, sharing the same header scheme so
/// one peek routes any FutureRand byte stream.
enum class WireBatchKind {
  kServerState,        // one dense-store Server (core/snapshot.h)
  kAggregatorState,    // all ShardedAggregator shards (core/snapshot.h)
  kAggregatorDelta,    // only the shards dirtied since the last checkpoint
  kRegistrationV2,     // v2 transport, FNV-1a trailer
  kReportV2,           // v2 transport, FNV-1a trailer
  kServerStateSketch,  // one sketch-store Server (core/snapshot.h)
  kFleetLongState,     // ClientFleet longitudinal memo state (core/fleet.h)
  kReportPackedV2,     // v2 transport, one tick as bitmaps, FNV-1a trailer
};

/// Validates the fixed header of an encoded batch and returns its kind
/// without decoding any records. Lets an ingestion service route raw bytes
/// (e.g. ShardedAggregator::IngestEncoded) with a single decode pass.
/// Fails with kDataLoss on bad magic or a version/kind pair the format
/// does not define (an in-flight header flip), kInvalidArgument on input
/// shorter than a header.
Result<WireBatchKind> PeekBatchKind(std::string_view bytes);

/// Serializes a registration batch. Any ordering is accepted; batches
/// sorted by client id encode smallest.
std::string EncodeRegistrationBatch(
    const std::vector<RegistrationMessage>& batch);

/// Parses a registration batch; rejects malformed input. Records are
/// parsed in the same pass that hashes the bytes, and the trailer is
/// verified before any record is returned: a corrupted batch fails
/// atomically with kDataLoss — no prefix of it is ever visible to the
/// caller — and a mismatching trailer wins over every parse error.
Result<std::vector<RegistrationMessage>> DecodeRegistrationBatch(
    std::string_view bytes);

/// Serializes a report batch. Values must be -1 or +1 and times >= 1
/// (checked). A batch of at least one record whose records all share one
/// time and have strictly ascending ids ships as kind 10 (packed) when that
/// is smaller than kind 7's floor (its first record plus two bytes per
/// record after it), so strictly smaller than kind 7; every other batch
/// ships as kind 7. The `version` argument is kept for perfbench's call
/// sites.
Result<std::string> EncodeReportBatch(
    const std::vector<ReportMessage>& batch,
    WireVersion version = WireVersion::kV2);

/// Parses a report batch of either kind (7 or 10); rejects malformed input.
/// Same atomicity and kDataLoss contract as DecodeRegistrationBatch.
Result<std::vector<ReportMessage>> DecodeReportBatch(std::string_view bytes);

namespace wire_internal {

/// The raw kind bytes of the FRW header, one per WireBatchKind, each
/// annotated with the container version that frames it. The assignments
/// are normative (docs/FORMATS.md) — never renumber, only append. Kinds
/// 1-2 (the retired v1 transport batches) are never reused.
inline constexpr char kKindServerState = 3;       // FRW v1
inline constexpr char kKindAggregatorState = 4;   // FRW v1
inline constexpr char kKindAggregatorDelta = 5;   // FRW v1
inline constexpr char kKindRegistrationV2 = 6;    // FRW v2
inline constexpr char kKindReportV2 = 7;          // FRW v2
inline constexpr char kKindServerStateSketch = 8; // FRW v1
inline constexpr char kKindFleetLongState = 9;    // FRW v1
inline constexpr char kKindReportPackedV2 = 10;   // FRW v2

/// The container version bytes (docs/FORMATS.md §1). Each kind is framed
/// by exactly one version; KindWireVersion is the mapping.
inline constexpr char kWireVersion1 = 1;
inline constexpr char kWireVersion2 = 2;

/// The version byte that frames `kind` (every kind belongs to exactly one
/// container version). Kinds are append-only, so the mapping is explicit:
/// only the transport batches (6, 7 and 10) are framed by version 2; the
/// snapshot kinds, 8 and 9 included, use the v1 container.
constexpr char KindWireVersion(char kind) {
  return kind == kKindRegistrationV2 || kind == kKindReportV2 ||
                 kind == kKindReportPackedV2
             ? kWireVersion2
             : kWireVersion1;
}

/// Bytes of the fixed header: magic 'F','R','W', version, kind.
inline constexpr size_t kHeaderSize = 5;

/// Appends the fixed header (magic, KindWireVersion(kind), `kind`).
void AppendHeader(char kind, std::string* out);

/// Validates magic and the version/kind pairing and returns the raw kind
/// byte without consuming anything. Bad magic or an undefined
/// version/kind pair fails with kDataLoss (corruption at an ingest
/// boundary); truncation below kHeaderSize with kInvalidArgument.
Result<char> CheckHeader(std::string_view bytes);

/// Validates the header against `expected_kind` and strips it from `bytes`.
Status ConsumeHeader(char expected_kind, std::string_view* bytes);

/// Appends `value` as 8 little-endian bytes (checksums, double bits).
void PutFixed64(uint64_t value, std::string* out);

/// Reads 8 little-endian bytes from the front of `bytes`, advancing it.
Result<uint64_t> GetFixed64(std::string_view* bytes);

/// The out-of-line general cases of PutVarint64/GetVarint64 (any length,
/// and for the reader every error). Call the inline wrappers below.
void PutVarint64MultiByte(uint64_t value, std::string* out);
Result<uint64_t> GetVarint64MultiByte(std::string_view* bytes);

/// Appends an unsigned LEB128 varint. Report and registration records
/// are mostly one-byte deltas, so that case stays inline.
inline void PutVarint64(uint64_t value, std::string* out) {
  if (value < 0x80) {
    out->push_back(static_cast<char>(value));
    return;
  }
  PutVarint64MultiByte(value, out);
}

/// Reads a varint from the front of `bytes`, advancing it. Fails on
/// truncation ("truncated varint"), and on encodings longer than 10 bytes
/// or whose tenth byte carries bits past 63 ("overlong varint").
inline Result<uint64_t> GetVarint64(std::string_view* bytes) {
  if (!bytes->empty()) {
    const auto byte = static_cast<uint8_t>(bytes->front());
    if (byte < 0x80) {
      bytes->remove_prefix(1);
      return uint64_t{byte};
    }
  }
  return GetVarint64MultiByte(bytes);
}

/// ZigZag transforms for signed deltas.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^
         -static_cast<int64_t>(value & 1);
}

/// Id and time deltas in two's complement. The wrap makes the delta of
/// ids at opposite ends of the int64 range (and the sum a forged delta
/// decodes to) defined, and leaves the bytes of every blob whose deltas
/// fit in an int64 unchanged.
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// FNV-1a 64-bit hash, the integrity checksum of the snapshot blobs and
/// the transport batches.
uint64_t Fnv1a64(std::string_view bytes);

/// Appends Fnv1a64 of everything currently in `*out` as 8 little-endian
/// bytes. Decoders strip and verify with ConsumeChecksum. The snapshot
/// kinds use this pair; the transport batches hash as they go (wire.cc).
void AppendChecksum(std::string* out);

/// Verifies that `*bytes` ends with the Fnv1a64 checksum of its preceding
/// bytes; on success trims the 8 checksum bytes off the view. Call with
/// the whole blob before decoding any payload. A mismatch fails with
/// kDataLoss — the caller-facing "retransmit me" verdict.
Status ConsumeChecksum(std::string_view* bytes);

}  // namespace wire_internal
}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_WIRE_H_
