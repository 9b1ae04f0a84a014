#include "futurerand/core/wire.h"

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/aggregator.h"

namespace futurerand::core {
namespace {

using wire_internal::GetVarint64;
using wire_internal::PutVarint64;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;

// Replaces the FNV-1a trailer of an encoded batch with one over
// `payload` — the batch minus its old trailer, after a mutation. A sealed
// forgery is what a buggy or hostile sender produces: it passes the
// checksum, so only the record-level checks stand between it and the
// aggregator.
std::string Sealed(std::string payload) {
  wire_internal::AppendChecksum(&payload);
  return payload;
}

// The bytes of an encoded batch without its 8-byte trailer.
std::string Unsealed(const std::string& bytes) {
  return bytes.substr(0, bytes.size() - 8);
}

TEST(VarintTest, RoundTripsRepresentativeValues) {
  for (uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 40,
        ~uint64_t{0}}) {
    std::string buffer;
    PutVarint64(value, &buffer);
    std::string_view view = buffer;
    const auto decoded = GetVarint64(&view);
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buffer;
  PutVarint64(127, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  PutVarint64(128, &buffer);
  EXPECT_EQ(buffer.size(), 3u);  // second value took two bytes
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint64(uint64_t{1} << 40, &buffer);
  buffer.pop_back();
  std::string_view view = buffer;
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(VarintTest, OverlongEncodingFails) {
  const std::string malicious(11, '\x80');
  std::string_view view = malicious;
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(VarintTest, TenthByteBeyondBit63IsOverlong) {
  // A tenth byte may only carry bit 63. Anything more used to be dropped
  // silently: 80x9 02 read as 0 and ff x9 7f as ~0.
  for (const char tenth : {'\x02', '\x7f'}) {
    for (const char filler : {'\x80', '\xff'}) {
      const std::string bytes = std::string(9, filler) + tenth;
      std::string_view view = bytes;
      const Status status = GetVarint64(&view).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(), "overlong varint");
    }
  }
  // The largest value still reads: nine 0xff then 0x01.
  const std::string max = std::string(9, '\xff') + '\x01';
  std::string_view view = max;
  EXPECT_EQ(*GetVarint64(&view), ~uint64_t{0});
}

TEST(VarintTest, BatchDecodersRejectATenthByteBeyondBit63) {
  // The same rule inside a sealed batch: the count varint is 80x9 02.
  for (const char kind :
       {wire_internal::kKindReportV2, wire_internal::kKindRegistrationV2}) {
    std::string payload;
    wire_internal::AppendHeader(kind, &payload);
    payload += std::string(9, '\x80') + '\x02';
    const std::string bytes = Sealed(payload);
    const Status status = kind == wire_internal::kKindReportV2
                              ? DecodeReportBatch(bytes).status()
                              : DecodeRegistrationBatch(bytes).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "overlong varint");
  }
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  for (int64_t value : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{2},
                        int64_t{-2}, int64_t{1} << 40, -(int64_t{1} << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
}

TEST(ZigZagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

TEST(RegistrationBatchTest, RoundTrips) {
  const std::vector<RegistrationMessage> batch = {
      {0, 3}, {1, 0}, {2, 7}, {100, 2}};
  const std::string bytes = EncodeRegistrationBatch(batch);
  const auto decoded = DecodeRegistrationBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(RegistrationBatchTest, EmptyBatch) {
  const std::string bytes = EncodeRegistrationBatch({});
  const auto decoded = DecodeRegistrationBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RegistrationBatchTest, UnsortedIdsStillRoundTrip) {
  const std::vector<RegistrationMessage> batch = {{50, 1}, {2, 2}, {99, 0}};
  const auto decoded =
      DecodeRegistrationBatch(EncodeRegistrationBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(ReportBatchTest, RoundTrips) {
  const std::vector<ReportMessage> batch = {
      {0, 4, 1}, {0, 8, -1}, {1, 2, 1}, {7, 1024, -1}};
  const auto bytes = EncodeReportBatch(batch);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(ReportBatchTest, ExtremeIdsRoundTrip) {
  // Deltas between ids at both ends of the int64 range wrap in two's
  // complement instead of overflowing.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<ReportMessage> reports = {
      {kMin, 1, 1}, {kMax, 2, -1}, {kMin, 3, 1}, {0, 4, -1}, {kMax, 5, 1}};
  const auto bytes = EncodeReportBatch(reports);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*DecodeReportBatch(*bytes), reports);
  const std::vector<RegistrationMessage> registrations = {
      {kMin, 0}, {kMax, 62}, {kMin, 1}, {0, 2}, {kMax, 3}};
  EXPECT_EQ(*DecodeRegistrationBatch(EncodeRegistrationBatch(registrations)),
            registrations);
}

TEST(ReportBatchTest, SealedOverflowingDeltasDecodeWithoutOverflow) {
  // Two id deltas of INT64_MAX each: the second sum leaves the int64 range
  // and wraps to -2. Any sender can seal such a batch.
  const uint64_t max_delta =
      ZigZagEncode(std::numeric_limits<int64_t>::max());
  std::string reports;
  wire_internal::AppendHeader(wire_internal::kKindReportV2, &reports);
  for (const uint64_t varint :
       {uint64_t{2}, max_delta, ZigZagEncode(1) << 1 | 1, max_delta,
        uint64_t{1}}) {
    PutVarint64(varint, &reports);
  }
  const auto decoded = DecodeReportBatch(Sealed(reports));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, (std::vector<ReportMessage>{
                          {std::numeric_limits<int64_t>::max(), 1, 1},
                          {-2, 1, 1}}));

  std::string registrations;
  wire_internal::AppendHeader(wire_internal::kKindRegistrationV2,
                              &registrations);
  for (const uint64_t varint :
       {uint64_t{2}, max_delta, uint64_t{0}, max_delta, uint64_t{0}}) {
    PutVarint64(varint, &registrations);
  }
  EXPECT_EQ(*DecodeRegistrationBatch(Sealed(registrations)),
            (std::vector<RegistrationMessage>{
                {std::numeric_limits<int64_t>::max(), 0}, {-2, 0}}));
}

TEST(ReportBatchTest, RejectsInvalidValuesAtEncode) {
  EXPECT_FALSE(EncodeReportBatch({{0, 1, 0}}).ok());
  EXPECT_FALSE(EncodeReportBatch({{0, 0, 1}}).ok());  // time < 1
}

TEST(ReportBatchTest, SortedBatchIsCompact) {
  // 1000 consecutive reports from one client: ~2 bytes per record.
  std::vector<ReportMessage> batch;
  for (int64_t t = 1; t <= 1000; ++t) {
    batch.push_back({42, t, (t % 2 == 0) ? int8_t{1} : int8_t{-1}});
  }
  const auto bytes = EncodeReportBatch(batch);
  ASSERT_TRUE(bytes.ok());
  EXPECT_LT(bytes->size(), 1000u * 3u);
}

TEST(ReportBatchTest, RandomBatchesRoundTrip) {
  Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    std::vector<ReportMessage> batch;
    const auto size = rng.NextInt(64);
    int64_t time = 1;
    for (uint64_t i = 0; i < size; ++i) {
      time += static_cast<int64_t>(rng.NextInt(100));
      batch.push_back({static_cast<int64_t>(rng.NextInt(1000)), time,
                       rng.NextSign()});
    }
    const auto bytes = EncodeReportBatch(batch);
    ASSERT_TRUE(bytes.ok());
    const auto decoded = DecodeReportBatch(*bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, batch);
  }
}

TEST(WireValidationTest, RejectsBadMagic) {
  std::string bytes = EncodeRegistrationBatch({{1, 2}});
  bytes[0] = 'X';
  EXPECT_FALSE(DecodeRegistrationBatch(bytes).ok());
}

TEST(WireValidationTest, RejectsWrongVersion) {
  std::string bytes = EncodeRegistrationBatch({{1, 2}});
  bytes[3] = 9;
  EXPECT_FALSE(DecodeRegistrationBatch(bytes).ok());
}

TEST(WireValidationTest, RejectsKindConfusion) {
  // A registration batch must not decode as a report batch and vice versa.
  const std::string registrations = EncodeRegistrationBatch({{1, 2}});
  EXPECT_FALSE(DecodeReportBatch(registrations).ok());
  const auto reports = EncodeReportBatch({{1, 2, 1}});
  ASSERT_TRUE(reports.ok());
  EXPECT_FALSE(DecodeRegistrationBatch(*reports).ok());
}

TEST(WireValidationTest, RejectsTruncation) {
  // Truncated and then re-sealed, so the checksum passes and the record
  // decoder itself runs out of bytes.
  const auto bytes = EncodeReportBatch({{1, 2, 1}, {1, 4, -1}});
  ASSERT_TRUE(bytes.ok());
  const std::string payload = Unsealed(*bytes);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const Status status = DecodeReportBatch(Sealed(payload.substr(0, cut)))
                              .status();
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
    if (cut >= wire_internal::kHeaderSize) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
    }
  }
}

TEST(WireValidationTest, RejectsTrailingBytes) {
  auto bytes = EncodeReportBatch({{1, 2, 1}});
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(DecodeReportBatch(Sealed(Unsealed(*bytes) + '\x00'))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRegistrationBatch(
                Sealed(Unsealed(EncodeRegistrationBatch({{1, 2}})) + '\x00'))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireValidationTest, RejectsImplausibleLevel) {
  // Forge a registration with level 63.
  std::string payload = Unsealed(EncodeRegistrationBatch({{1, 62}}));
  // The level is the last varint byte; bump it past the sanity bound.
  payload.back() = 63;
  EXPECT_EQ(DecodeRegistrationBatch(Sealed(payload)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireV2Test, RoundTripsBothMessageTypes) {
  const std::vector<RegistrationMessage> registrations = {
      {0, 3}, {1, 0}, {2, 7}, {100, 2}};
  const auto decoded_registrations = DecodeRegistrationBatch(
      EncodeRegistrationBatch(registrations));
  ASSERT_TRUE(decoded_registrations.ok());
  EXPECT_EQ(*decoded_registrations, registrations);

  const std::vector<ReportMessage> reports = {
      {0, 4, 1}, {0, 8, -1}, {1, 2, 1}, {7, 1024, -1}};
  const auto bytes = EncodeReportBatch(reports, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  const auto decoded_reports = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded_reports.ok());
  EXPECT_EQ(*decoded_reports, reports);
}

TEST(WireV2Test, PeekDistinguishesVersions) {
  const auto v2 = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*PeekBatchKind(*v2), WireBatchKind::kReportV2);
  EXPECT_EQ(*PeekBatchKind(EncodeRegistrationBatch({{1, 2}})),
            WireBatchKind::kRegistrationV2);
}

// What a receiving service does with raw bytes: route on the header like
// ShardedAggregator::IngestEncoded, then run the matching decoder. The
// status of that pipeline is the verdict a sender's retry loop sees.
Status ReceiverVerdict(const std::string& bytes) {
  const auto kind = PeekBatchKind(bytes);
  if (!kind.ok()) {
    return kind.status();
  }
  switch (*kind) {
    case WireBatchKind::kRegistrationV2:
      return DecodeRegistrationBatch(bytes).status();
    case WireBatchKind::kReportV2:
      return DecodeReportBatch(bytes).status();
    default:
      return Status::InvalidArgument("not a transport batch");
  }
}

TEST(WireV2Test, EveryBitFlipIsRejectedAsDataLoss) {
  // The v2 contract the retransmission loop is built on: any single-bit
  // flip — header, count, records, or trailer — fails with kDataLoss
  // specifically, so the receiver's verdict alone distinguishes "resend"
  // from "well-formed but wrong". A flip in the kind byte may reroute to
  // the sibling decoder, whose checksum (covering the header) then fails.
  const auto reports = EncodeReportBatch(
      {{0, 4, 1}, {0, 8, -1}, {5, 2, 1}, {9, 64, -1}}, WireVersion::kV2);
  ASSERT_TRUE(reports.ok());
  const std::string registrations =
      EncodeRegistrationBatch({{0, 3}, {7, 1}, {50, 0}});
  for (const std::string* payload : {&*reports, &registrations}) {
    ASSERT_TRUE(ReceiverVerdict(*payload).ok());
    for (size_t byte = 0; byte < payload->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = *payload;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        const Status verdict = ReceiverVerdict(corrupted);
        EXPECT_EQ(verdict.code(), StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit << ": "
            << verdict.ToString();
      }
    }
  }
}

TEST(WireV2Test, RejectsVersionKindMismatch) {
  // A v2 kind under a v1 version byte (and vice versa) is an undefined
  // pairing: kDataLoss, even if the checksum would have matched.
  auto bytes = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  std::string forged = *bytes;
  forged[3] = 1;  // claim v1 framing of a v2 kind
  EXPECT_EQ(DecodeReportBatch(forged).status().code(),
            StatusCode::kDataLoss);
  forged = *bytes;
  forged[4] = 2;  // claim v2 framing of the retired v1 report kind
  EXPECT_EQ(DecodeReportBatch(Sealed(Unsealed(forged))).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireV2Test, RetiredV1KindsAreRejected) {
  // The exact bytes the retired unchecksummed v1 encoders emitted for the
  // report {1,2,+1} and the registration {1,2}. Kinds 1-2 are undefined
  // now: every entry point fails with kDataLoss and nothing is applied.
  const std::string report("FRW\x01\x02\x01\x02\x09", 8);
  const std::string registration("FRW\x01\x01\x01\x02\x02", 8);
  for (const std::string* bytes : {&report, &registration}) {
    EXPECT_EQ(PeekBatchKind(*bytes).status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(DecodeReportBatch(*bytes).status().code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(DecodeRegistrationBatch(*bytes).status().code(),
              StatusCode::kDataLoss);
  }
  ProtocolConfig config;
  config.num_periods = 8;
  config.max_changes = 1;
  config.epsilon = 1.0;
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(config, 1).ValueOrDie();
  for (const std::string* bytes : {&registration, &report}) {
    IngestOutcome outcome;
    EXPECT_EQ(aggregator.IngestEncoded(*bytes, nullptr, &outcome).code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(outcome.applied, 0);
  }
  EXPECT_EQ(aggregator.num_clients(), 0);
}

TEST(WireV2Test, RejectsTruncationAtEveryOffset) {
  const auto bytes =
      EncodeReportBatch({{1, 2, 1}, {1, 4, -1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    EXPECT_FALSE(DecodeReportBatch(bytes->substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(WireV2Test, RejectsTrailingBytes) {
  auto bytes = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  *bytes += '\x00';
  // The appended byte shifts the trailer window, so this reads as a
  // checksum failure — still a rejection, as required.
  EXPECT_FALSE(DecodeReportBatch(*bytes).ok());
}

TEST(WireValidationTest, RejectsNonPositiveDecodedTime) {
  // Craft a sealed batch whose first time delta decodes to 0.
  std::string bytes;
  wire_internal::AppendHeader(wire_internal::kKindReportV2, &bytes);
  wire_internal::PutVarint64(1, &bytes);                       // count
  wire_internal::PutVarint64(wire_internal::ZigZagEncode(0), &bytes);  // id
  wire_internal::PutVarint64(wire_internal::ZigZagEncode(0) << 1 | 1,
                             &bytes);  // time delta 0 -> time 0
  EXPECT_EQ(DecodeReportBatch(Sealed(bytes)).status().code(),
            StatusCode::kInvalidArgument);
}

// Zigzagged deltas at both sides of the one-, two- and three-byte varint
// boundaries, plus small ones, so every batch below mixes one-byte and
// multi-byte records.
constexpr uint64_t kBoundaryZigZags[] = {0,   2,    63,    64,
                                         127, 128, 16383, 16384};

// Bytes of the LEB128 encoding of `value`, computed independently of the
// codec under test.
size_t VarintBytes(uint64_t value) {
  size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) {
    ++bytes;
  }
  return bytes;
}

// A report batch whose id varints and time varints each walk through every
// boundary value (the time varint is the zigzagged time delta shifted left
// by one over the value bit). Also returns, per record, the byte offset
// right after its id varint, counted from the end of the header and count.
std::vector<ReportMessage> BoundaryReportBatch(
    std::vector<size_t>* mid_record_offsets, size_t* payload_bytes) {
  std::vector<ReportMessage> batch;
  int64_t id = 100000;
  int64_t time = 100000;
  for (const uint64_t id_varint : kBoundaryZigZags) {
    for (const uint64_t time_varint : kBoundaryZigZags) {
      id += ZigZagDecode(id_varint);
      time += ZigZagDecode(time_varint >> 1);
      batch.push_back({id, time, (time_varint & 1) ? int8_t{1} : int8_t{-1}});
    }
  }
  // Byte accounting from the deltas as encoded (the first against zero).
  int64_t previous_id = 0;
  int64_t previous_time = 0;
  size_t offset = 0;
  for (const ReportMessage& record : batch) {
    offset += VarintBytes(ZigZagEncode(record.client_id - previous_id));
    mid_record_offsets->push_back(offset);
    offset += VarintBytes(ZigZagEncode(record.time - previous_time) << 1 |
                          (record.value == 1 ? 1u : 0u));
    previous_id = record.client_id;
    previous_time = record.time;
  }
  *payload_bytes = offset;
  return batch;
}

TEST(WireBoundaryTest, ReportBatchesMixOneAndMultiByteVarints) {
  std::vector<size_t> mid_record;
  size_t payload = 0;
  const std::vector<ReportMessage> batch =
      BoundaryReportBatch(&mid_record, &payload);
  const size_t prefix = wire_internal::kHeaderSize + VarintBytes(batch.size());
  const auto bytes = EncodeReportBatch(batch);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), prefix + payload + 8);
  const auto decoded = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireBoundaryTest, RegistrationBatchesMixOneAndMultiByteVarints) {
  std::vector<RegistrationMessage> batch;
  size_t payload = 0;
  int64_t id = 0;
  int level = 0;
  for (const uint64_t id_varint : kBoundaryZigZags) {
    id += ZigZagDecode(id_varint);
    batch.push_back({id, level});
    payload += VarintBytes(id_varint) + 1;
    level = level == 0 ? 62 : 0;
  }
  const size_t prefix = wire_internal::kHeaderSize + VarintBytes(batch.size());
  const std::string bytes = EncodeRegistrationBatch(batch);
  EXPECT_EQ(bytes.size(), prefix + payload + 8);
  const auto decoded = DecodeRegistrationBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, batch);
}

TEST(WireBoundaryTest, TruncationBetweenARecordsVarintsIsRejected) {
  // Cutting a batch right after one record's id varint: the trailer no
  // longer matches (kDataLoss) before any record is parsed. Re-sealed after
  // the cut, the batch passes the checksum and the decoder runs out of
  // bytes mid-record (kInvalidArgument).
  std::vector<size_t> mid_record;
  size_t payload = 0;
  const std::vector<ReportMessage> reports =
      BoundaryReportBatch(&mid_record, &payload);
  const size_t prefix =
      wire_internal::kHeaderSize + VarintBytes(reports.size());
  const std::string v2 = *EncodeReportBatch(reports, WireVersion::kV2);
  for (const size_t offset : mid_record) {
    SCOPED_TRACE(offset);
    EXPECT_EQ(DecodeReportBatch(Sealed(v2.substr(0, prefix + offset)))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(DecodeReportBatch(v2.substr(0, prefix + offset)).status().code(),
              StatusCode::kDataLoss);
  }

  // Registrations: a three-byte id varint, then the one-byte level.
  const std::vector<RegistrationMessage> registrations = {{1, 0}, {8193, 5}};
  const std::string r2 = EncodeRegistrationBatch(registrations);
  // Drop the trailer and the last record's level byte.
  const size_t cut = r2.size() - 8 - 1;
  EXPECT_EQ(DecodeRegistrationBatch(Sealed(r2.substr(0, cut))).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRegistrationBatch(r2.substr(0, cut)).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireGoldenTest, V2BatchBytesAreFixed) {
  // Normative layout (docs/FORMATS.md): header, count, per record the
  // zigzagged id delta then the zigzagged time delta shifted over the
  // value bit, then the FNV-1a 64 trailer, little-endian.
  const auto reports = EncodeReportBatch(
      {{1, 1, 1}, {2, 1, -1}, {300, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(*reports,
            std::string("FRW\x02\x07\x03\x02\x05\x02\x00\xd4\x04\x05"
                        "\x60\x6d\x6a\x7a\x05\x2c\xce\x2c",
                        21));
  EXPECT_EQ(EncodeRegistrationBatch({{1, 0}, {2, 3}, {300, 1}}),
            std::string("FRW\x02\x06\x03\x02\x00\x02\x03\xd4\x04\x01"
                        "\xf5\x5a\x94\x75\x49\x62\x19\xdf",
                        21));
}

TEST(WireGoldenTest, PackedBatchBytesAreFixed) {
  // Normative kind-10 layout (docs/FORMATS.md): header, count 5, time 5,
  // zigzag(first id 3) = 6, span 5, the presence bitmap over ids 3..8
  // (offsets 0, 1, 2, 4, 5 -> 0x37), the sign bits in id order (+ - + + -
  // -> 0x0d), then the FNV-1a 64 trailer, little-endian.
  const auto packed = EncodeReportBatch(
      {{3, 5, 1}, {4, 5, -1}, {5, 5, 1}, {7, 5, 1}, {8, 5, -1}},
      WireVersion::kV2);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(*packed,
            std::string("FRW\x02\x0a\x05\x05\x06\x05\x37\x0d"
                        "\xcd\xb3\xf6\x36\x64\xdb\x8d\xe2",
                        19));
  EXPECT_EQ(*PeekBatchKind(*packed), WireBatchKind::kReportPackedV2);
  EXPECT_EQ(*DecodeReportBatch(*packed),
            (std::vector<ReportMessage>{
                {3, 5, 1}, {4, 5, -1}, {5, 5, 1}, {7, 5, 1}, {8, 5, -1}}));
}

}  // namespace
}  // namespace futurerand::core
