// Torn checkpoint files: the service appends delta frames to its
// checkpoint file, so a crash can leave it cut at any byte. Cut at a frame
// boundary, RestoreFromCheckpointFile restores exactly the chain prefix of
// whole frames; cut anywhere else it fails with kDataLoss and leaves the
// aggregator as it was.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/server.h"

namespace futurerand::net {
namespace {

// Deltas restore only onto their base's shard count.
constexpr int kShards = 2;
constexpr int64_t kClients = 24;

core::ShardedAggregator NewAggregator() {
  core::ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 2;
  config.epsilon = 1.0;
  return core::ShardedAggregator::ForProtocol(config, kShards).ValueOrDie();
}

std::string Registrations() {
  std::vector<core::RegistrationMessage> batch;
  for (int64_t u = 0; u < kClients; ++u) {
    batch.push_back({u, 0});
  }
  return core::EncodeRegistrationBatch(batch);
}

// Reports at time t from clients [0, n).
std::string Reports(int64_t n, int64_t t) {
  core::ReportBatch batch;
  for (int64_t u = 0; u < n; ++u) {
    batch.push_back({u, t, (u + t) % 2 == 0 ? int8_t{1} : int8_t{-1}});
  }
  return core::EncodeReportBatch(batch, core::WireVersion::kV2).ValueOrDie();
}

// A full base and three deltas, each taken after more ingest.
std::vector<std::string> ChainBlobs() {
  core::ShardedAggregator source = NewAggregator();
  EXPECT_TRUE(source.IngestEncoded(Registrations()).ok());
  EXPECT_TRUE(source.IngestEncoded(Reports(kClients, 1)).ok());
  std::vector<std::string> blobs;
  blobs.push_back(source.Checkpoint(core::CheckpointMode::kFull).ValueOrDie());
  for (int64_t t = 2; t <= 4; ++t) {
    // One client dirties one shard only in the last delta.
    EXPECT_TRUE(source.IngestEncoded(Reports(t == 4 ? 1 : kClients, t)).ok());
    blobs.push_back(
        source.Checkpoint(core::CheckpointMode::kDelta).ValueOrDie());
  }
  return blobs;
}

// Full-checkpoint bytes: equal bytes mean equal state. Taking one clears
// dirty marks, which no comparison here depends on.
std::string StateBytes(core::ShardedAggregator& aggregator) {
  return aggregator.Checkpoint(core::CheckpointMode::kFull).ValueOrDie();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), file),
            contents.size());
  ASSERT_EQ(std::fclose(file), 0);
}

TEST(CheckpointFileTest, EveryTruncationRestoresAWholePrefixOrNothing) {
  const std::vector<std::string> blobs = ChainBlobs();
  std::string file;
  // boundaries[j] = bytes of the first j frames.
  std::vector<size_t> boundaries = {0};
  for (const std::string& blob : blobs) {
    ASSERT_TRUE(AppendFrame(blob, &file).ok());
    boundaries.push_back(file.size());
  }
  // What each prefix of j >= 1 frames restores to, by replaying the blobs.
  std::vector<std::string> prefix_state(blobs.size() + 1);
  for (size_t j = 1; j <= blobs.size(); ++j) {
    core::ShardedAggregator replayed = NewAggregator();
    for (size_t b = 0; b < j; ++b) {
      ASSERT_TRUE(replayed.Restore(blobs[b]).ok());
    }
    prefix_state[j] = StateBytes(replayed);
  }
  // A failed restore must leave a live aggregator's state alone.
  core::ShardedAggregator bystander = NewAggregator();
  ASSERT_TRUE(bystander.IngestEncoded(Registrations()).ok());
  ASSERT_TRUE(bystander.IngestEncoded(Reports(kClients / 2, 7)).ok());
  const std::string bystander_state = StateBytes(bystander);

  char tmpl[] = "/tmp/fr_ckpt_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  ASSERT_FALSE(dir.empty());
  const std::string path = dir + "/torn.ckpt";
  int restored = 0;
  int torn = 0;
  for (size_t cut = 0; cut <= file.size(); ++cut) {
    WriteFile(path, file.substr(0, cut));
    size_t frames = 0;
    while (frames < blobs.size() && boundaries[frames + 1] <= cut) {
      ++frames;
    }
    if (cut == boundaries[frames] && frames > 0) {
      core::ShardedAggregator target = NewAggregator();
      ASSERT_TRUE(RestoreFromCheckpointFile(path, &target).ok())
          << "cut at frame boundary " << cut;
      EXPECT_EQ(StateBytes(target), prefix_state[frames])
          << frames << " frames";
      ++restored;
      continue;
    }
    // Mid-frame, or an empty file (no frame to restore).
    EXPECT_EQ(RestoreFromCheckpointFile(path, &bystander).code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
    EXPECT_EQ(StateBytes(bystander), bystander_state) << "cut at " << cut;
    ++torn;
  }
  EXPECT_EQ(restored, static_cast<int>(blobs.size()));
  EXPECT_EQ(torn, static_cast<int>(file.size()) + 1 - restored);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace futurerand::net
