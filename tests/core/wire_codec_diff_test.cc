// Differential test of the one-pass transport codec (kinds 6-7) against a
// two-pass reference kept here: encode the records, then hash the string;
// decode by verifying the trailer over the whole batch, then parse. The
// one-pass codec must emit the same bytes for every batch and return the
// same StatusCode and message for every input — bit flips and truncations
// included, with and without a re-sealed trailer.

#include <algorithm>
#include <initializer_list>
#include <string>
#include <string_view>
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

Result<std::string> RefEncodeReports(const std::vector<ReportMessage>& batch) {
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

Result<std::vector<ReportMessage>> RefDecodeReports(std::string_view bytes) {
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
  kSorted,    // consecutive ids, one time: one-byte deltas
  kUnsorted,  // random ids in a small range: negative deltas
  kWide,      // deltas spanning one- to four-byte varints, both signs
  kAllWide,   // every record outgrows the two bytes the encoder reserves
};

constexpr Shape kShapes[] = {Shape::kSorted, Shape::kUnsorted, Shape::kWide,
                             Shape::kAllWide};

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

}  // namespace
}  // namespace futurerand::core
