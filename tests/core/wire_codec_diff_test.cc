// Differential test of the one-pass transport codec (kinds 6, 7 and 10)
// against a two-pass reference kept here: encode the records, then hash
// the string; decode by verifying the trailer over the whole batch, then
// parse. For reports the reference encodes both kinds in full and keeps
// kind 10 only when the batch qualifies and its bytes are fewer than the
// least kind 7 could take (one byte per delta after the first record); its
// kind-10 bitmaps are read and written one bit at a time. The
// one-pass codec must emit the same bytes for every batch and return the
// same StatusCode and message for every input — bit flips and truncations
// included, with and without a re-sealed trailer.

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {
namespace {

using wire_internal::GetVarint64;
using wire_internal::PutVarint64;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;

// ---- The two-pass reference ------------------------------------------

std::string RefEncodeRegistrations(
    const std::vector<RegistrationMessage>& batch) {
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindRegistrationV2, &out);
  PutVarint64(batch.size(), &out);
  int64_t previous_id = 0;
  for (const RegistrationMessage& message : batch) {
    PutVarint64(ZigZagEncode(message.client_id - previous_id), &out);
    PutVarint64(static_cast<uint64_t>(message.level), &out);
    previous_id = message.client_id;
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

Result<std::string> RefEncodeVarintReports(
    const std::vector<ReportMessage>& batch) {
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindReportV2, &out);
  PutVarint64(batch.size(), &out);
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
    PutVarint64(ZigZagEncode(message.time - previous_time) << 1 |
                    (message.value == 1 ? 1u : 0u),
                &out);
    previous_id = message.client_id;
    previous_time = message.time;
  }
  wire_internal::AppendChecksum(&out);
  return out;
}

// `bits` LSB-first, eight to a byte, the last byte padded with zeros.
void AppendBits(const std::vector<bool>& bits, std::string* out) {
  for (size_t i = 0; i < bits.size(); i += 8) {
    uint8_t byte = 0;
    for (size_t j = 0; j < 8 && i + j < bits.size(); ++j) {
      byte |= static_cast<uint8_t>(bits[i + j] ? 1u << j : 0u);
    }
    out->push_back(static_cast<char>(byte));
  }
}

// One time, strictly ascending ids, at least one record.
bool RefPackable(const std::vector<ReportMessage>& batch) {
  for (size_t i = 1; i < batch.size(); ++i) {
    if (batch[i].time != batch[0].time ||
        batch[i].client_id <= batch[i - 1].client_id) {
      return false;
    }
  }
  return !batch.empty();
}

std::string RefEncodePackedReports(const std::vector<ReportMessage>& batch) {
  const int64_t first_id = batch.front().client_id;
  const auto span = static_cast<uint64_t>(batch.back().client_id) -
                    static_cast<uint64_t>(first_id);
  std::vector<bool> presence(span + 1);
  std::vector<bool> signs;
  for (const ReportMessage& message : batch) {
    presence[static_cast<uint64_t>(message.client_id) -
             static_cast<uint64_t>(first_id)] = true;
    signs.push_back(message.value == 1);
  }
  std::string out;
  wire_internal::AppendHeader(wire_internal::kKindReportPackedV2, &out);
  PutVarint64(batch.size(), &out);
  PutVarint64(static_cast<uint64_t>(batch.front().time), &out);
  PutVarint64(ZigZagEncode(first_id), &out);
  PutVarint64(span, &out);
  AppendBits(presence, &out);
  AppendBits(signs, &out);
  wire_internal::AppendChecksum(&out);
  return out;
}

// The fewest bytes `batch` (at least one record) can take as kind 7:
// the first record's varints as written, one byte for each delta after.
size_t RefVarintFloor(const std::vector<ReportMessage>& batch) {
  std::string head;
  PutVarint64(batch.size(), &head);
  PutVarint64(ZigZagEncode(batch[0].client_id), &head);
  PutVarint64(ZigZagEncode(batch[0].time) << 1 | 1, &head);
  return wire_internal::kHeaderSize + head.size() + 2 * (batch.size() - 1) +
         8;
}

// Kind 10 when the batch qualifies and packs below kind 7's floor (so
// strictly smaller than kind 7); kind 7 otherwise.
Result<std::string> RefEncodeReports(const std::vector<ReportMessage>& batch) {
  FR_ASSIGN_OR_RETURN(std::string varint, RefEncodeVarintReports(batch));
  if (RefPackable(batch)) {
    std::string packed = RefEncodePackedReports(batch);
    EXPECT_LE(RefVarintFloor(batch), varint.size());
    if (packed.size() < RefVarintFloor(batch)) {
      return packed;
    }
  }
  return varint;
}

// Header, then the trailer over everything before it, then the payload
// after the header (count varint first).
Status RefOpen(char kind, std::string_view* bytes) {
  FR_ASSIGN_OR_RETURN(const char found, wire_internal::CheckHeader(*bytes));
  if (found != kind) {
    return Status::InvalidArgument("unexpected batch kind");
  }
  FR_RETURN_NOT_OK(wire_internal::ConsumeChecksum(bytes));
  // A sealed batch shorter than header + trailer holds no count.
  if (bytes->size() < wire_internal::kHeaderSize) {
    return Status::InvalidArgument("truncated varint");
  }
  bytes->remove_prefix(wire_internal::kHeaderSize);
  return Status::OK();
}

Result<std::vector<RegistrationMessage>> RefDecodeRegistrations(
    std::string_view bytes) {
  FR_RETURN_NOT_OK(RefOpen(wire_internal::kKindRegistrationV2, &bytes));
  FR_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(&bytes));
  std::vector<RegistrationMessage> batch;
  int64_t previous_id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(const uint64_t id_delta, GetVarint64(&bytes));
    FR_ASSIGN_OR_RETURN(const uint64_t level, GetVarint64(&bytes));
    if (level > 62) {
      return Status::InvalidArgument("implausible level");
    }
    previous_id += ZigZagDecode(id_delta);
    batch.push_back({previous_id, static_cast<int>(level)});
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

Result<std::vector<ReportMessage>> RefDecodePackedReports(
    std::string_view bytes) {
  FR_RETURN_NOT_OK(RefOpen(wire_internal::kKindReportPackedV2, &bytes));
  FR_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(&bytes));
  if (count == 0) {
    return Status::InvalidArgument("packed batch holds no reports");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t time, GetVarint64(&bytes));
  if (time == 0 || time > std::numeric_limits<int64_t>::max()) {
    return Status::InvalidArgument("decoded non-positive report time");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t first_zigzag, GetVarint64(&bytes));
  const int64_t first_id = ZigZagDecode(first_zigzag);
  FR_ASSIGN_OR_RETURN(const uint64_t span, GetVarint64(&bytes));
  if (static_cast<__int128>(first_id) + span >
      std::numeric_limits<int64_t>::max()) {
    return Status::InvalidArgument("packed id span overflows int64");
  }
  if (static_cast<__int128>(count) > static_cast<__int128>(span) + 1) {
    return Status::InvalidArgument("packed count exceeds the id span");
  }
  using Wide = unsigned __int128;
  const Wide presence_bytes = (static_cast<Wide>(span) + 1 + 7) / 8;
  const Wide sign_bytes = (static_cast<Wide>(count) + 7) / 8;
  if (presence_bytes + sign_bytes > bytes.size()) {
    return Status::InvalidArgument("packed bitmaps run past the batch");
  }
  const std::string_view presence =
      bytes.substr(0, static_cast<size_t>(presence_bytes));
  const std::string_view signs = bytes.substr(
      presence.size(), static_cast<size_t>(sign_bytes));
  bytes.remove_prefix(presence.size() + signs.size());
  const auto bit = [](std::string_view bits, uint64_t i) {
    return ((static_cast<uint8_t>(bits[i / 8]) >> (i % 8)) & 1) != 0;
  };
  if (!bit(presence, 0) || !bit(presence, span)) {
    return Status::InvalidArgument(
        "packed bitmap must start and end with a report");
  }
  for (uint64_t i = span + 1; i < 8 * presence.size(); ++i) {
    if (bit(presence, i)) {
      return Status::InvalidArgument("packed bitmap has padding bits set");
    }
  }
  for (uint64_t i = count; i < 8 * signs.size(); ++i) {
    if (bit(signs, i)) {
      return Status::InvalidArgument("packed sign bits have padding bits set");
    }
  }
  uint64_t present = 0;
  for (uint64_t i = 0; i <= span; ++i) {
    present += bit(presence, i) ? 1 : 0;
  }
  if (present != count) {
    return Status::InvalidArgument("packed bitmap popcount differs from count");
  }
  std::vector<ReportMessage> batch;
  for (uint64_t i = 0; i <= span; ++i) {
    if (bit(presence, i)) {
      batch.push_back({first_id + static_cast<int64_t>(i),
                       static_cast<int64_t>(time),
                       bit(signs, batch.size()) ? int8_t{1} : int8_t{-1}});
    }
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

Result<std::vector<ReportMessage>> RefDecodeReports(std::string_view bytes) {
  const auto kind = wire_internal::CheckHeader(bytes);
  if (kind.ok() && *kind == wire_internal::kKindReportPackedV2) {
    return RefDecodePackedReports(bytes);
  }
  FR_RETURN_NOT_OK(RefOpen(wire_internal::kKindReportV2, &bytes));
  FR_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(&bytes));
  std::vector<ReportMessage> batch;
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FR_ASSIGN_OR_RETURN(const uint64_t id_delta, GetVarint64(&bytes));
    FR_ASSIGN_OR_RETURN(const uint64_t packed_time, GetVarint64(&bytes));
    previous_id += ZigZagDecode(id_delta);
    previous_time += ZigZagDecode(packed_time >> 1);
    if (previous_time < 1) {
      return Status::InvalidArgument("decoded non-positive report time");
    }
    batch.push_back({previous_id, previous_time,
                     (packed_time & 1) ? int8_t{1} : int8_t{-1}});
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

// ---- Seeded batches ----------------------------------------------------

// How the ids and times of a generated batch move from record to record.
enum class Shape {
  kSorted,         // consecutive ids, one time: one-byte deltas
  kUnsorted,       // random ids in a small range: negative deltas
  kWide,           // deltas spanning one- to four-byte varints, both signs
  kAllWide,        // every record outgrows the two bytes the encoder reserves
  kSparseOneTick,  // ascending ids with gaps (about 1/9 dense), one time
};

constexpr Shape kShapes[] = {Shape::kSorted, Shape::kUnsorted, Shape::kWide,
                             Shape::kAllWide, Shape::kSparseOneTick};

// A signed delta whose zigzag takes 1-4 varint bytes.
int64_t WideDelta(Rng* rng) {
  const int bits = 1 + static_cast<int>(rng->NextInt(27));
  const auto magnitude =
      static_cast<int64_t>(rng->NextInt(uint64_t{1} << bits));
  return rng->NextBernoulli(0.5) ? magnitude : -magnitude;
}

// Ids and times (times stay >= 1) of `size` records.
void Walk(Shape shape, size_t size, Rng* rng, std::vector<int64_t>* ids,
          std::vector<int64_t>* times) {
  int64_t id = 1000;
  int64_t time = 1 << 20;
  for (size_t i = 0; i < size; ++i) {
    switch (shape) {
      case Shape::kSorted:
        ++id;
        break;
      case Shape::kUnsorted:
        id = static_cast<int64_t>(rng->NextInt(100));
        break;
      case Shape::kWide:
        id += WideDelta(rng);
        time = std::max<int64_t>(1, time + WideDelta(rng) / 64);
        break;
      case Shape::kAllWide:
        id += (int64_t{1} << 20) + static_cast<int64_t>(rng->NextInt(1000));
        time += (int64_t{1} << 16) + static_cast<int64_t>(rng->NextInt(1000));
        break;
      case Shape::kSparseOneTick:
        id += 1 + static_cast<int64_t>(rng->NextInt(17));
        break;
    }
    ids->push_back(id);
    times->push_back(time);
  }
}

std::vector<ReportMessage> Reports(Shape shape, size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids;
  std::vector<int64_t> times;
  Walk(shape, size, &rng, &ids, &times);
  std::vector<ReportMessage> batch;
  for (size_t i = 0; i < size; ++i) {
    batch.push_back({ids[i], times[i], rng.NextSign()});
  }
  return batch;
}

std::vector<RegistrationMessage> Registrations(Shape shape, size_t size,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids;
  std::vector<int64_t> times;
  Walk(shape, size, &rng, &ids, &times);
  std::vector<RegistrationMessage> batch;
  for (size_t i = 0; i < size; ++i) {
    batch.push_back({ids[i], static_cast<int>(rng.NextInt(63))});
  }
  return batch;
}

// ---- Verdict comparison ------------------------------------------------

// Both codecs' verdicts on `bytes`, through both decoders (a flipped kind
// byte reroutes a batch to its sibling). Equal code, message and records.
void ExpectSameVerdicts(const std::string& bytes) {
  const auto reports = DecodeReportBatch(bytes);
  const auto ref_reports = RefDecodeReports(bytes);
  ASSERT_EQ(reports.status().code(), ref_reports.status().code());
  ASSERT_EQ(reports.status().message(), ref_reports.status().message());
  if (reports.ok()) {
    ASSERT_EQ(*reports, *ref_reports);
  }
  const auto registrations = DecodeRegistrationBatch(bytes);
  const auto ref_registrations = RefDecodeRegistrations(bytes);
  ASSERT_EQ(registrations.status().code(), ref_registrations.status().code());
  ASSERT_EQ(registrations.status().message(),
            ref_registrations.status().message());
  if (registrations.ok()) {
    ASSERT_EQ(*registrations, *ref_registrations);
  }
}

// The trailer of `bytes` minus its last eight, recomputed: passes the
// checksum so the record-level checks decide.
std::string Resealed(std::string_view bytes) {
  std::string out(bytes.substr(0, bytes.size() - 8));
  wire_internal::AppendChecksum(&out);
  return out;
}

// Every single-bit flip and every truncation of `bytes`, each also with a
// recomputed trailer.
void ExpectSameVerdictsUnderCorruption(const std::string& bytes) {
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] ^= static_cast<char>(1 << bit);
      SCOPED_TRACE(testing::Message()
                   << "flip byte " << byte << " bit " << bit);
      ExpectSameVerdicts(flipped);
      ExpectSameVerdicts(Resealed(flipped));
    }
  }
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut " << cut);
    ExpectSameVerdicts(bytes.substr(0, cut));
    ExpectSameVerdicts(bytes.substr(0, cut) + std::string(8, '\0'));
    if (cut >= 8) {
      ExpectSameVerdicts(Resealed(bytes.substr(0, cut)));
    }
  }
}

TEST(WireCodecDiffTest, EncodersEmitTheReferenceBytes) {
  uint64_t seed = 1;
  for (const Shape shape : kShapes) {
    for (const size_t size :
         {size_t{0}, size_t{1}, size_t{1024}, size_t{5000}}) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " size " << size);
      const auto reports = Reports(shape, size, ++seed);
      const auto bytes = EncodeReportBatch(reports);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, *RefEncodeReports(reports));
      EXPECT_EQ(*DecodeReportBatch(*bytes), reports);

      const auto registrations = Registrations(shape, size, ++seed);
      const std::string registration_bytes =
          EncodeRegistrationBatch(registrations);
      EXPECT_EQ(registration_bytes, RefEncodeRegistrations(registrations));
      EXPECT_EQ(*DecodeRegistrationBatch(registration_bytes), registrations);
    }
  }
}

TEST(WireCodecDiffTest, AllWideRecordsOutgrowTheReservation) {
  // Header, count and trailer aside, every record takes more than the two
  // bytes the encoder reserves for it, so the buffer must grow repeatedly.
  const auto reports = Reports(Shape::kAllWide, 5000, 7);
  const auto bytes = EncodeReportBatch(reports);
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(bytes->size(), 5000u * 6u);
  EXPECT_EQ(*bytes, *RefEncodeReports(reports));
}

TEST(WireCodecDiffTest, EncodeErrorsMatchTheReference) {
  for (const std::vector<ReportMessage>& batch :
       {std::vector<ReportMessage>{{1, 1, 0}},
        std::vector<ReportMessage>{{1, 2, 1}, {2, 0, 1}},
        std::vector<ReportMessage>{{1, 2, 1}, {2, -5, -1}}}) {
    const Status status = EncodeReportBatch(batch).status();
    const Status reference = RefEncodeReports(batch).status();
    EXPECT_EQ(status.code(), reference.code());
    EXPECT_EQ(status.message(), reference.message());
    EXPECT_FALSE(status.ok());
  }
}

TEST(WireCodecDiffTest, CorruptedBatchesGetTheReferenceVerdicts) {
  uint64_t seed = 100;
  for (const Shape shape : kShapes) {
    for (const size_t size : {size_t{0}, size_t{1}, size_t{3}}) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " size " << size);
      ExpectSameVerdictsUnderCorruption(
          *EncodeReportBatch(Reports(shape, size, ++seed)));
      ExpectSameVerdictsUnderCorruption(
          EncodeRegistrationBatch(Registrations(shape, size, ++seed)));
    }
  }
}

TEST(WireCodecDiffTest, SealedForgeriesGetTheReferenceVerdicts) {
  // Sealed batches whose records trip each parse check in turn.
  auto sealed = [](char kind, std::initializer_list<uint64_t> varints) {
    std::string bytes;
    wire_internal::AppendHeader(kind, &bytes);
    for (const uint64_t varint : varints) {
      PutVarint64(varint, &bytes);
    }
    wire_internal::AppendChecksum(&bytes);
    return bytes;
  };
  const char report = wire_internal::kKindReportV2;
  const char registration = wire_internal::kKindRegistrationV2;
  for (const std::string& bytes : {
           sealed(report, {}),                    // no count
           sealed(report, {1, 2}),                // record cut mid-way
           sealed(report, {1, 2, 1}),             // time 0
           sealed(report, {1, 2, 5, 0}),          // trailing byte
           sealed(report, {~uint64_t{0}}),        // count beyond the bytes
           sealed(registration, {1, 2, 63}),      // implausible level
           sealed(registration, {2, 2, 1, 3}),    // record cut mid-way
           sealed(registration, {0, 0}),          // trailing byte
       }) {
    ExpectSameVerdicts(bytes);
  }
}

TEST(WireCodecDiffTest, PackedChoiceMatchesTheReferenceAroundBreakEven) {
  // One-tick ascending batches from one record up, with mean id gaps
  // from 1 to 40: small and sparse ones stay kind 7, dense and long ones
  // pack, and the sizes in between straddle kind 7's floor.
  Rng rng(11);
  int packed = 0;
  int varint = 0;
  for (int64_t gap = 1; gap <= 40; ++gap) {
    for (size_t size = 1; size <= 24; ++size) {
      std::vector<ReportMessage> batch;
      int64_t id = static_cast<int64_t>(rng.NextInt(300)) - 150;
      for (size_t i = 0; i < size; ++i) {
        batch.push_back({id, 1 + static_cast<int64_t>(gap), rng.NextSign()});
        id += 1 + static_cast<int64_t>(rng.NextInt(2 * gap));
      }
      SCOPED_TRACE(testing::Message() << "gap " << gap << " size " << size);
      const auto bytes = EncodeReportBatch(batch);
      ASSERT_TRUE(bytes.ok());
      ASSERT_EQ(*bytes, *RefEncodeReports(batch));
      ASSERT_EQ(*DecodeReportBatch(*bytes), batch);
      (*PeekBatchKind(*bytes) == WireBatchKind::kReportPackedV2 ? packed
                                                                 : varint)++;
    }
  }
  EXPECT_GT(packed, 100);
  EXPECT_GT(varint, 100);
}

TEST(WireCodecDiffTest, BatchesBrokenInTheMiddleMatchTheReference) {
  // Dense one-tick batches whose first and last records qualify for kind
  // 10, broken at one record inside: another time, a repeated id, a step
  // back, a value that is not +-1. The encoder finds each in its walk.
  enum class Break { kTime, kRepeatedId, kStepBack, kValue };
  for (const Break kind :
       {Break::kTime, Break::kRepeatedId, Break::kStepBack, Break::kValue}) {
    for (const size_t at : {size_t{1}, size_t{63}, size_t{64}, size_t{100}}) {
      SCOPED_TRACE(testing::Message() << "break " << static_cast<int>(kind)
                                      << " at " << at);
      std::vector<ReportMessage> batch = Reports(Shape::kSorted, 128, at);
      switch (kind) {
        case Break::kTime:
          batch[at].time += 1;
          break;
        case Break::kRepeatedId:
          batch[at].client_id = batch[at - 1].client_id;
          break;
        case Break::kStepBack:
          std::swap(batch[at].client_id, batch[at - 1].client_id);
          break;
        case Break::kValue:
          batch[at].value = 0;
          break;
      }
      const auto bytes = EncodeReportBatch(batch);
      const auto reference = RefEncodeReports(batch);
      ASSERT_EQ(bytes.status().code(), reference.status().code());
      ASSERT_EQ(bytes.status().message(), reference.status().message());
      if (kind == Break::kValue) {
        EXPECT_FALSE(bytes.ok());
        continue;
      }
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, *reference);
      EXPECT_EQ(*PeekBatchKind(*bytes), WireBatchKind::kReportV2);
      EXPECT_EQ(*DecodeReportBatch(*bytes), batch);
    }
  }
}

TEST(WireCodecDiffTest, ShapesCoverBothReportKinds) {
  const auto kind = [](Shape shape, size_t size) {
    return *PeekBatchKind(*EncodeReportBatch(Reports(shape, size, 5)));
  };
  EXPECT_EQ(kind(Shape::kSorted, 3), WireBatchKind::kReportPackedV2);
  EXPECT_EQ(kind(Shape::kSorted, 1024), WireBatchKind::kReportPackedV2);
  EXPECT_EQ(kind(Shape::kSparseOneTick, 1024), WireBatchKind::kReportPackedV2);
  EXPECT_EQ(kind(Shape::kSparseOneTick, 1), WireBatchKind::kReportV2);
  EXPECT_EQ(kind(Shape::kUnsorted, 1024), WireBatchKind::kReportV2);
  EXPECT_EQ(kind(Shape::kWide, 1024), WireBatchKind::kReportV2);
}

TEST(WireCodecDiffTest, CorruptedPackedBatchesGetTheReferenceVerdicts) {
  uint64_t seed = 200;
  for (const Shape shape : {Shape::kSorted, Shape::kSparseOneTick}) {
    for (const size_t size : {size_t{9}, size_t{30}}) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << " size " << size);
      const std::string bytes =
          *EncodeReportBatch(Reports(shape, size, ++seed));
      ASSERT_EQ(*PeekBatchKind(bytes), WireBatchKind::kReportPackedV2);
      ExpectSameVerdictsUnderCorruption(bytes);
    }
  }
}

TEST(WireCodecDiffTest, SealedPackedForgeriesGetTheReferenceVerdicts) {
  // Sealed kind-10 batches: varints, then raw bitmap bytes.
  auto sealed = [](std::initializer_list<uint64_t> varints,
                   std::initializer_list<uint8_t> bitmaps) {
    std::string bytes;
    wire_internal::AppendHeader(wire_internal::kKindReportPackedV2, &bytes);
    for (const uint64_t varint : varints) {
      PutVarint64(varint, &bytes);
    }
    for (const uint8_t byte : bitmaps) {
      bytes.push_back(static_cast<char>(byte));
    }
    wire_internal::AppendChecksum(&bytes);
    return bytes;
  };
  constexpr uint64_t kMax = ~uint64_t{0};
  const uint64_t max_id = ZigZagEncode(std::numeric_limits<int64_t>::max());
  const std::string spill = "packed bitmaps run past the batch";
  const std::string edges = "packed bitmap must start and end with a report";
  const std::string popcount = "packed bitmap popcount differs from count";
  // Each forgery with the message both codecs must give ("" decodes).
  const std::pair<std::string, std::string> cases[] = {
      {sealed({}, {}), "truncated varint"},
      {sealed({0, 1, 0, 0}, {0x01, 0x00}), "packed batch holds no reports"},
      {sealed({1, 0, 0, 0}, {0x01, 0x00}), "decoded non-positive report time"},
      {sealed({1, kMax, 0, 0}, {0x01, 0x00}),
       "decoded non-positive report time"},
      {sealed({1, 1, max_id, 1}, {0x03, 0x00}),
       "packed id span overflows int64"},
      {sealed({1, 1, 0, kMax}, {0x01, 0x00}), "packed id span overflows int64"},
      {sealed({3, 1, 0, 1}, {0x03, 0x00}), "packed count exceeds the id span"},
      {sealed({kMax, 1, 0, 0}, {0x01, 0x00}),
       "packed count exceeds the id span"},
      {sealed({1, 1, 0, 16}, {0x01, 0x00}), spill},  // span past the bytes
      {sealed({17, 1, 0, 16}, {0xff, 0xff, 0x01, 0x00, 0x00}),
       spill},  // count past the bytes
      {sealed({2, 1, 0, 1}, {0x03}), spill},           // signs cut off
      {sealed({2, 1, 0, 9}, {0x01, 0x00, 0x00}), edges},  // bit span clear
      {sealed({2, 1, 0, 9}, {0x00, 0x02, 0x00}), edges},  // bit 0 clear
      {sealed({2, 1, 0, 1}, {0x07, 0x00}),
       "packed bitmap has padding bits set"},
      {sealed({3, 1, 0, 2}, {0x05, 0x00}), popcount},  // popcount < count
      {sealed({1, 1, 0, 2}, {0x05, 0x00}), popcount},  // popcount > count
      {sealed({2, 1, 0, 1}, {0x03, 0x04}),
       "packed sign bits have padding bits set"},
      {sealed({2, 1, 0, 1}, {0x03, 0x01, 0x00}), "trailing bytes after batch"},
      {sealed({2, 1, 0, 1}, {0x03, 0x03}), ""},
      {sealed({1, 1, max_id, 0}, {0x01, 0x01}), ""},  // one id, INT64_MAX
  };
  for (const auto& [bytes, message] : cases) {
    SCOPED_TRACE(message);
    ExpectSameVerdicts(bytes);
    const Status status = DecodeReportBatch(bytes).status();
    EXPECT_EQ(status.message(), message);
    EXPECT_EQ(status.code(), message.empty() ? StatusCode::kOk
                                             : StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace futurerand::core
