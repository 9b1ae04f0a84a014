// End-to-end loopback of the ingestion service: a real IngestServer on a
// Unix or TCP socket, real StreamClients, and the invariant the whole
// net/ layer exists to preserve — bytes ingested over the stream leave the
// aggregator bit-identical to the same bytes ingested in process, through
// short reads, partial writes, several event loops, NACK retransmission,
// checkpoint and restore.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/threadpool.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/client.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/server.h"
#include "futurerand/sim/channel.h"
#include "futurerand/sim/metrics.h"
#include "futurerand/sim/pipeline.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace futurerand::net {
namespace {

core::ProtocolConfig Protocol() {
  core::ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 2;
  config.epsilon = 1.0;
  return config;
}

std::vector<core::RegistrationMessage> Registrations(int64_t n) {
  std::vector<core::RegistrationMessage> batch;
  for (int64_t u = 0; u < n; ++u) {
    batch.push_back({u, 0});  // level 0: reports legal at every period
  }
  return batch;
}

core::ReportBatch Reports(int64_t n, int64_t time) {
  core::ReportBatch batch;
  for (int64_t u = 0; u < n; ++u) {
    batch.push_back({u, time, (u + time) % 2 == 0 ? int8_t{1} : int8_t{-1}});
  }
  return batch;
}

std::string EncodeReports(int64_t n, int64_t time) {
  return core::EncodeReportBatch(Reports(n, time), core::WireVersion::kV2)
      .ValueOrDie();
}

// Scoped temp dir: short paths (Unix socket sun_path is ~100 bytes).
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/fr_loopback_XXXXXX";
    path = mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

struct TransportParam {
  bool tcp = false;
  bool force_poll = false;
};

class LoopbackTest : public ::testing::TestWithParam<TransportParam> {
 protected:
  // Creates + starts a server on the parameterized transport and returns a
  // connect function for it.
  void StartServer(ServiceConfig config) {
    config.force_poll = GetParam().force_poll;
    server_ = IngestServer::Create(config).ValueOrDie();
    if (GetParam().tcp) {
      port_ = server_->AddTcpListener("127.0.0.1", 0).ValueOrDie();
    } else {
      uds_ = dir_.path + "/fr.sock";
      ASSERT_TRUE(server_->AddUnixListener(uds_).ok());
    }
    ASSERT_TRUE(server_->Start().ok());
    EXPECT_EQ(server_->using_epoll(), !GetParam().force_poll);
  }

  StreamClient Connect() {
    if (GetParam().tcp) {
      return StreamClient::ConnectTcp("127.0.0.1", port_).ValueOrDie();
    }
    return StreamClient::ConnectUnix(uds_).ValueOrDie();
  }

  TempDir dir_;
  std::unique_ptr<IngestServer> server_;
  int port_ = -1;
  std::string uds_;
};

TEST_P(LoopbackTest, StreamIngestIsBitIdenticalToInProcess) {
  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 2;
  StartServer(config);

  // The in-process twin ingests the exact same wire bytes (different shard
  // count on purpose: estimates are shard-count-invariant).
  auto local = core::ShardedAggregator::ForProtocol(Protocol(), 1).ValueOrDie();

  const int64_t n = 64;
  const std::string registrations =
      core::EncodeRegistrationBatch(Registrations(n));
  StreamClient a = Connect();
  StreamClient b = Connect();
  const Reply reg_reply = a.Call(registrations).ValueOrDie();
  ASSERT_EQ(reg_reply.verdict, Verdict::kAck);
  EXPECT_EQ(reg_reply.applied, n);
  ASSERT_TRUE(local.IngestEncoded(registrations).ok());

  for (int64_t t = 1; t <= 16; ++t) {
    const std::string bytes = EncodeReports(n, t);
    StreamClient& client = t % 2 == 0 ? a : b;  // interleave connections
    const Reply reply = client.Call(bytes).ValueOrDie();
    ASSERT_EQ(reply.verdict, Verdict::kAck) << "tick " << t;
    EXPECT_EQ(reply.applied, n);
    ASSERT_TRUE(local.IngestEncoded(bytes).ok());
  }

  ASSERT_TRUE(a.SendControl(ControlOp::kShutdown).ok());
  ASSERT_TRUE(server_->Join().ok());

  const std::vector<double> over_stream =
      server_->aggregator().EstimateAll().ValueOrDie();
  const std::vector<double> in_process = local.EstimateAll().ValueOrDie();
  ASSERT_EQ(over_stream.size(), in_process.size());
  for (size_t t = 0; t < over_stream.size(); ++t) {
    EXPECT_EQ(over_stream[t], in_process[t]) << "estimate differs at " << t;
  }

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 2);
  EXPECT_EQ(stats.frames_received, 18);  // 1 reg + 16 batches + 1 control
  EXPECT_EQ(stats.batches_acked, 17);
  EXPECT_EQ(stats.batches_nacked, 0);
  EXPECT_EQ(stats.records_applied, n * 17);
}

TEST_P(LoopbackTest, LargeBatchSurvivesShortReadsAndPartialWrites) {
  // A couple hundred KB of payload: far beyond one read() chunk and the
  // socket buffer, so the frame necessarily crosses many short reads
  // server-side and partial writes client-side.
  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 1;
  StartServer(config);

  const int64_t n = 100'000;
  StreamClient client = Connect();
  const Reply reg = client
                        .Call(core::EncodeRegistrationBatch(Registrations(n)))
                        .ValueOrDie();
  ASSERT_EQ(reg.verdict, Verdict::kAck);
  // Ticks 3 and 4 alternate client by client: a batch of mixed times
  // ships as kind 7, about two bytes per report.
  core::ReportBatch reports = Reports(n, 3);
  for (size_t u = 1; u < reports.size(); u += 2) {
    reports[u].time = 4;
  }
  const std::string bytes =
      core::EncodeReportBatch(reports, core::WireVersion::kV2).ValueOrDie();
  ASSERT_GT(bytes.size(), 1u << 17);
  const Reply reply = client.Call(bytes).ValueOrDie();
  EXPECT_EQ(reply.verdict, Verdict::kAck);
  EXPECT_EQ(reply.applied, n);
  ASSERT_TRUE(client.SendControl(ControlOp::kShutdown).ok());
  EXPECT_TRUE(server_->Join().ok());
}

TEST_P(LoopbackTest, LargePackedBatchSurvivesShortReadsAndPartialWrites) {
  // The same path for a packed batch (kind 10), the form a fleet tick
  // ships in: one tick of clients at every eighth id, about 1.1 bytes per
  // report, so well over 128 KB.
  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 1;
  StartServer(config);

  const int64_t n = 120'000;
  constexpr int64_t kStride = 8;
  std::vector<core::RegistrationMessage> registrations;
  core::ReportBatch reports;
  for (int64_t u = 0; u < n; ++u) {
    registrations.push_back({kStride * u, 0});
    reports.push_back({kStride * u, 3, u % 3 == 0 ? int8_t{1} : int8_t{-1}});
  }
  StreamClient client = Connect();
  const Reply reg =
      client.Call(core::EncodeRegistrationBatch(registrations)).ValueOrDie();
  ASSERT_EQ(reg.verdict, Verdict::kAck);
  const std::string bytes =
      core::EncodeReportBatch(reports, core::WireVersion::kV2).ValueOrDie();
  ASSERT_EQ(core::PeekBatchKind(bytes).ValueOrDie(),
            core::WireBatchKind::kReportPackedV2);
  ASSERT_GT(bytes.size(), 1u << 17);
  const Reply reply = client.Call(bytes).ValueOrDie();
  EXPECT_EQ(reply.verdict, Verdict::kAck);
  EXPECT_EQ(reply.applied, n);
  ASSERT_TRUE(client.SendControl(ControlOp::kShutdown).ok());
  EXPECT_TRUE(server_->Join().ok());
}

// The threads of this process, or -1 where /proc/self/task is absent.
int CountThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  int count = 0;
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    ++count;
  }
  return ec ? -1 : count;
}

TEST_P(LoopbackTest, ThreeLoopsServeSevenConnectionsWithLiveCheckpoints) {
  // Connections get ids 1..7 and loop id mod 3, so every loop owns two or
  // three of them and loops 1 and 2 receive theirs from loop 0's accept.
  // Connections 0 and 1 ask for checkpoints while connections 2..6 ingest
  // disjoint client sets, and a 5 ms timer checkpoints on top.
  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 3;
  config.checkpoint_path = dir_.path + "/fr.ckpt";
  config.checkpoint_interval_ms = 5;
  config.checkpoint_mode = core::CheckpointMode::kDelta;
  config.checkpoint_compact_every = 4;
  const int threads_before = CountThreads();
  StartServer(config);
  if (threads_before > 0) {
    EXPECT_EQ(CountThreads() - threads_before, config.num_workers);
  }

  constexpr int kConnections = 7;
  constexpr int kCheckpointers = 2;
  constexpr int kIngesters = kConnections - kCheckpointers;
  constexpr int kCheckpointsEach = 4;
  constexpr int64_t kClientsEach = 12;
  std::vector<StreamClient> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(Connect());
  }
  // Ingester i owns clients u with u mod kIngesters == i.
  const auto registrations = [&](int i) {
    std::vector<core::RegistrationMessage> batch;
    for (int64_t u = i; u < kIngesters * kClientsEach; u += kIngesters) {
      batch.push_back({u, 0});
    }
    return core::EncodeRegistrationBatch(batch);
  };
  const auto reports = [&](int i, int64_t t) {
    core::ReportBatch batch;
    for (int64_t u = i; u < kIngesters * kClientsEach; u += kIngesters) {
      batch.push_back({u, t, (u + t) % 3 == 0 ? int8_t{1} : int8_t{-1}});
    }
    return core::EncodeReportBatch(batch, core::WireVersion::kV2)
        .ValueOrDie();
  };

  std::vector<Status> outcomes(kConnections);
  std::vector<std::thread> senders;
  for (int c = 0; c < kCheckpointers; ++c) {
    senders.emplace_back([&, c] {
      for (int k = 0; k < kCheckpointsEach && outcomes[c].ok(); ++k) {
        outcomes[c] = clients[c].SendControl(ControlOp::kCheckpoint);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int i = 0; i < kIngesters; ++i) {
    const int c = kCheckpointers + i;
    senders.emplace_back([&, c, i] {
      const auto expect = [&](const std::string& bytes, Verdict verdict,
                              int64_t applied) {
        const Result<Reply> reply = clients[c].Call(bytes);
        if (!reply.ok()) {
          return reply.status();
        }
        if (reply->verdict != verdict || reply->applied != applied) {
          return Status::Internal("unexpected reply");
        }
        return Status::OK();
      };
      Status status = expect(registrations(i), Verdict::kAck, kClientsEach);
      for (int64_t t = 1; t <= 16 && status.ok(); ++t) {
        const std::string bytes = reports(i, t);
        if (t == 4) {
          // One corrupted copy per connection: NACKed, nothing applied.
          std::string corrupted = bytes;
          corrupted[corrupted.size() / 2] ^= 0x40;
          status = expect(corrupted, Verdict::kNack, 0);
        }
        if (status.ok()) {
          status = expect(bytes, Verdict::kAck, kClientsEach);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      outcomes[c] = status;
    });
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_TRUE(outcomes[c].ok()) << "connection " << c << ": "
                                  << outcomes[c].ToString();
  }
  ASSERT_TRUE(clients[0].SendControl(ControlOp::kShutdown).ok());
  ASSERT_TRUE(server_->Join().ok());

  // The exactly-once twin: every batch once, one connection's order.
  auto twin = core::ShardedAggregator::ForProtocol(Protocol(), 1).ValueOrDie();
  for (int i = 0; i < kIngesters; ++i) {
    ASSERT_TRUE(twin.IngestEncoded(registrations(i)).ok());
  }
  for (int64_t t = 1; t <= 16; ++t) {
    for (int i = 0; i < kIngesters; ++i) {
      ASSERT_TRUE(twin.IngestEncoded(reports(i, t)).ok());
    }
  }
  // The shutdown compaction is one full blob, so it restores onto one
  // shard, where it must encode to the twin's exact bytes.
  auto restored =
      core::ShardedAggregator::ForProtocol(Protocol(), 1).ValueOrDie();
  ASSERT_TRUE(RestoreFromCheckpointFile(config.checkpoint_path, &restored)
                  .ok());
  EXPECT_EQ(restored.Checkpoint(core::CheckpointMode::kFull).ValueOrDie(),
            twin.Checkpoint(core::CheckpointMode::kFull).ValueOrDie());
  EXPECT_EQ(restored.EstimateAll().ValueOrDie(),
            twin.EstimateAll().ValueOrDie());

  const ServerStats stats = server_->stats();
  const int64_t control_frames = kCheckpointers * kCheckpointsEach + 1;
  EXPECT_EQ(stats.connections_accepted, kConnections);
  EXPECT_EQ(stats.batches_acked, kIngesters * 17);
  EXPECT_EQ(stats.batches_nacked, kIngesters);
  EXPECT_EQ(stats.batches_errored, 0);
  EXPECT_EQ(stats.batches_overloaded, 0);
  EXPECT_EQ(stats.frames_received, stats.batches_acked +
                                       stats.batches_nacked +
                                       stats.batches_errored + control_frames);
  EXPECT_EQ(stats.records_applied, kIngesters * kClientsEach * 17);
  // Every control frame and the shutdown took one; the ingest outlasts
  // the control checkpoints by several timer periods, so the timer took
  // at least one more.
  EXPECT_GT(stats.checkpoints_taken,
            kCheckpointers * kCheckpointsEach + 1);
  EXPECT_GT(stats.delta_checkpoints_taken, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, LoopbackTest,
    ::testing::Values(TransportParam{/*tcp=*/false, /*force_poll=*/false},
                      TransportParam{/*tcp=*/false, /*force_poll=*/true},
                      TransportParam{/*tcp=*/true, /*force_poll=*/false}),
    [](const ::testing::TestParamInfo<TransportParam>& info) {
      return std::string(info.param.tcp ? "Tcp" : "Unix") +
             (info.param.force_poll ? "Poll" : "Epoll");
    });

// ---------------------------------------------------------------------------
// Unparameterized behaviors (transport-independent; Unix socket).

TEST(LoopbackCheckpointTest, DeltaFileAndShutdownCompactionBothRestore) {
  TempDir dir;
  const std::string sock = dir.path + "/fr.sock";
  const std::string ckpt = dir.path + "/fr.ckpt";

  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 2;
  config.checkpoint_path = ckpt;
  config.checkpoint_mode = core::CheckpointMode::kDelta;
  config.checkpoint_compact_every = 100;  // keep deltas deltas
  auto server = IngestServer::Create(config).ValueOrDie();
  ASSERT_TRUE(server->AddUnixListener(sock).ok());
  ASSERT_TRUE(server->Start().ok());

  auto local = core::ShardedAggregator::ForProtocol(Protocol(), 1).ValueOrDie();
  const int64_t n = 32;
  StreamClient client = StreamClient::ConnectUnix(sock).ValueOrDie();
  const std::string registrations =
      core::EncodeRegistrationBatch(Registrations(n));
  ASSERT_EQ(client.Call(registrations).ValueOrDie().verdict, Verdict::kAck);
  ASSERT_TRUE(local.IngestEncoded(registrations).ok());

  const std::string batch_a = EncodeReports(n, 2);
  ASSERT_EQ(client.Call(batch_a).ValueOrDie().verdict, Verdict::kAck);
  ASSERT_TRUE(local.IngestEncoded(batch_a).ok());
  // First control checkpoint writes the full base (nothing checkpointed
  // yet), the second appends a delta on top of it.
  ASSERT_TRUE(client.SendControl(ControlOp::kCheckpoint).ok());
  const std::string batch_b = EncodeReports(n, 5);
  ASSERT_EQ(client.Call(batch_b).ValueOrDie().verdict, Verdict::kAck);
  ASSERT_TRUE(local.IngestEncoded(batch_b).ok());
  ASSERT_TRUE(client.SendControl(ControlOp::kCheckpoint).ok());

  // Freeze the base+delta file as of this instant (the synchronous client
  // guarantees quiescence), then mutate more and shut down.
  const std::string frozen = dir.path + "/frozen.ckpt";
  std::filesystem::copy_file(ckpt, frozen);
  const std::vector<double> frozen_estimates = local.EstimateAll().ValueOrDie();

  const std::string batch_c = EncodeReports(n, 9);
  ASSERT_EQ(client.Call(batch_c).ValueOrDie().verdict, Verdict::kAck);
  ASSERT_TRUE(local.IngestEncoded(batch_c).ok());
  ASSERT_TRUE(client.SendControl(ControlOp::kShutdown).ok());
  ASSERT_TRUE(server->Join().ok());
  // Two control checkpoints (full base + one delta) plus the shutdown
  // compaction; delta_checkpoints_taken is a subset of checkpoints_taken.
  EXPECT_EQ(server->stats().checkpoints_taken, 3);
  EXPECT_EQ(server->stats().delta_checkpoints_taken, 1);

  // The frozen base+delta restores to the pre-batch-C state. Deltas are
  // keyed by shard, so this restore must match the server's shard count
  // (num_shards = 0 -> one per worker); only a full blob is portable.
  auto from_delta =
      core::ShardedAggregator::ForProtocol(Protocol(), 2).ValueOrDie();
  ASSERT_TRUE(RestoreFromCheckpointFile(frozen, &from_delta).ok());
  EXPECT_EQ(from_delta.EstimateAll().ValueOrDie(), frozen_estimates);

  // The shutdown compaction restores to the final state.
  auto from_final =
      core::ShardedAggregator::ForProtocol(Protocol(), 3).ValueOrDie();
  ASSERT_TRUE(RestoreFromCheckpointFile(ckpt, &from_final).ok());
  EXPECT_EQ(from_final.EstimateAll().ValueOrDie(),
            local.EstimateAll().ValueOrDie());

  auto missing =
      core::ShardedAggregator::ForProtocol(Protocol(), 1).ValueOrDie();
  EXPECT_FALSE(
      RestoreFromCheckpointFile(dir.path + "/nope.ckpt", &missing).ok());
}

TEST(LoopbackDeliveryTest, StreamBudgetExhaustionMatchesInProcessContract) {
  TempDir dir;
  const std::string sock = dir.path + "/fr.sock";
  ServiceConfig config;
  config.protocol = Protocol();
  config.num_workers = 1;
  auto server = IngestServer::Create(config).ValueOrDie();
  ASSERT_TRUE(server->AddUnixListener(sock).ok());
  ASSERT_TRUE(server->Start().ok());
  StreamClient client = StreamClient::ConnectUnix(sock).ValueOrDie();
  ASSERT_EQ(client
                .Call(core::EncodeRegistrationBatch(Registrations(8)))
                .ValueOrDie()
                .verdict,
            Verdict::kAck);

  // corrupt_rate = 1: every traversal garbles the copy, the server NACKs
  // from its own checksum verdict, and a budget of 4 means exactly 4
  // frames on the wire — then kDataLoss, same as in-process.
  sim::ChannelConfig faults;
  faults.corrupt_rate = 1.0;
  sim::ChannelModel channel(faults, 17);
  sim::DeliveryMetrics delivery;
  const std::string pristine = EncodeReports(8, 4);
  const uint64_t frames_before = client.frames_sent();
  const Status exhausted = DeliverEncodedOverStream(
      client, pristine, &channel, core::WireVersion::kV2,
      /*retransmit_budget=*/4, &delivery);
  EXPECT_EQ(exhausted.code(), StatusCode::kDataLoss);
  EXPECT_EQ(client.frames_sent() - frames_before, 4u);
  EXPECT_EQ(delivery.batches_retransmitted, 3);
  EXPECT_EQ(delivery.batches_checksum_rejected, 4);
  EXPECT_EQ(delivery.records_applied, 0);

  // Without a channel the same bytes deliver first try.
  sim::DeliveryMetrics clean;
  ASSERT_TRUE(DeliverEncodedOverStream(client, pristine, nullptr,
                                       core::WireVersion::kV2, 4, &clean)
                  .ok());
  EXPECT_EQ(clean.records_applied, 8);
  EXPECT_EQ(clean.batches_retransmitted, 0);

  ASSERT_TRUE(client.SendControl(ControlOp::kShutdown).ok());
  ASSERT_TRUE(server->Join().ok());
  EXPECT_EQ(server->stats().batches_nacked, 4);
}

TEST(LoopbackShutdownTest, ShutdownAckIsTheLastFrameThenEof) {
  TempDir dir;
  const std::string sock = dir.path + "/fr.sock";
  ServiceConfig config;
  config.protocol = Protocol();
  auto server = IngestServer::Create(config).ValueOrDie();
  ASSERT_TRUE(server->AddUnixListener(sock).ok());
  ASSERT_TRUE(server->Start().ok());

  StreamClient client = StreamClient::ConnectUnix(sock).ValueOrDie();
  // SendControl consumes the shutdown ack — the server's last frame.
  ASSERT_TRUE(client.SendControl(ControlOp::kShutdown).ok());
  EXPECT_EQ(client.ReadReply().status().code(), StatusCode::kIoError);
  EXPECT_TRUE(server->Join().ok());

  // Batches arriving while draining are refused, not silently dropped:
  // a fresh server, stopped via RequestStop, still drains cleanly.
  auto second = IngestServer::Create(config).ValueOrDie();
  ASSERT_TRUE(second->AddUnixListener(dir.path + "/fr2.sock").ok());
  ASSERT_TRUE(second->Start().ok());
  second->RequestStop();
  EXPECT_TRUE(second->Join().ok());
}

// ---------------------------------------------------------------------------
// frload's path against the in-process run: sim::RunPipeline into a
// StreamSink over several connections must leave the server's aggregator
// bit-identical to sim::RunProtocol under the same FaultOptions, with every
// delivery counter equal — through churn re-registrations, delayed-record
// flushes, Gilbert-Elliott bursts and client outages.

struct FaultMix {
  const char* name;
  sim::WorkloadKind workload;
  sim::ChannelConfig channel;
};

void PrintTo(const FaultMix& mix, std::ostream* os) { *os << mix.name; }

FaultMix ChurnDelayMix() {
  FaultMix mix{"ChurnDelay", sim::WorkloadKind::kChurn, {}};
  mix.channel.corrupt_rate = 0.05;
  mix.channel.duplicate_rate = 0.01;
  mix.channel.delay_rate = 0.2;
  mix.channel.delay_ticks_max = 3;
  return mix;
}

FaultMix BurstOutageMix() {
  FaultMix mix{"BurstOutage", sim::WorkloadKind::kUniformChanges, {}};
  mix.channel.burst_enter_rate = 0.2;
  mix.channel.burst_exit_rate = 0.3;
  mix.channel.burst_drop_rate = 0.3;
  mix.channel.burst_corrupt_rate = 0.3;
  mix.channel.outage_enter_rate = 0.01;
  mix.channel.outage_exit_rate = 0.2;
  return mix;
}

using PipelineParam = std::tuple<sim::ProtocolKind, FaultMix>;

class PipelineLoopbackTest : public ::testing::TestWithParam<PipelineParam> {
};

TEST_P(PipelineLoopbackTest, PipelineOverStreamMatchesRunProtocol) {
  const auto& [kind, mix] = GetParam();
  core::ProtocolConfig protocol = Protocol();
  protocol.num_periods = 32;
  protocol.randomizer = sim::RandomizerForProtocol(kind).ValueOrDie();

  sim::WorkloadConfig workload_config;
  workload_config.kind = mix.workload;
  workload_config.num_users = 300;
  workload_config.num_periods = protocol.num_periods;
  workload_config.max_changes = protocol.max_changes;
  const sim::Workload workload =
      sim::Workload::Generate(workload_config, 3).ValueOrDie();

  sim::FaultOptions faults;
  faults.channel = mix.channel;
  faults.dedup = core::DedupPolicy::kIdempotent;
  ASSERT_TRUE(faults.Validate().ok());

  TempDir dir;
  const std::string sock = dir.path + "/fr.sock";
  ServiceConfig config;
  config.protocol = protocol;
  config.num_workers = 2;
  config.dedup = faults.dedup;
  auto server = IngestServer::Create(config).ValueOrDie();
  ASSERT_TRUE(server->AddUnixListener(sock).ok());
  ASSERT_TRUE(server->Start().ok());

  std::vector<StreamClient> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(StreamClient::ConnectUnix(sock).ValueOrDie());
  }
  StreamSink sink(clients, faults);
  ThreadPool pool(2);
  const uint64_t seed = 7;
  const sim::DeliveryMetrics remote =
      sim::RunPipeline(protocol, workload, seed, &pool, faults, sink)
          .ValueOrDie();
  ASSERT_TRUE(clients[0].SendControl(ControlOp::kShutdown).ok());
  ASSERT_TRUE(server->Join().ok());

  const sim::RunResult local =
      sim::RunProtocol(kind, protocol, workload, seed, nullptr, 0, faults)
          .ValueOrDie();
  EXPECT_EQ(server->aggregator().EstimateAll().ValueOrDie(), local.estimates);

  // The counters frload --verify compares, then everything else.
  const sim::DeliveryMetrics& in_process = local.delivery;
  EXPECT_EQ(remote.records_sent, in_process.records_sent);
  EXPECT_EQ(remote.records_dropped, in_process.records_dropped);
  EXPECT_EQ(remote.records_duplicated, in_process.records_duplicated);
  EXPECT_EQ(remote.records_delayed, in_process.records_delayed);
  EXPECT_EQ(remote.records_delivered, in_process.records_delivered);
  EXPECT_EQ(remote.records_applied, in_process.records_applied);
  EXPECT_EQ(remote.records_deduped, in_process.records_deduped);
  EXPECT_EQ(remote.records_out_of_window, in_process.records_out_of_window);
  EXPECT_EQ(remote.batches_sent, in_process.batches_sent);
  EXPECT_EQ(remote.batches_corrupted, in_process.batches_corrupted);
  EXPECT_EQ(remote.batches_checksum_rejected,
            in_process.batches_checksum_rejected);
  EXPECT_EQ(remote.batches_retransmitted, in_process.batches_retransmitted);
  EXPECT_EQ(remote.registrations_replayed, in_process.registrations_replayed);
  EXPECT_EQ(remote.ToString(), in_process.ToString());

  // Each mix must actually exercise the paths it is named for.
  EXPECT_GT(remote.batches_retransmitted, 0);
  if (mix.workload == sim::WorkloadKind::kChurn) {
    EXPECT_GT(remote.registrations_replayed, 0);
    EXPECT_GT(remote.records_delayed, 0);
  } else {
    EXPECT_GT(remote.batches_in_burst, 0);
    EXPECT_GT(remote.client_outages, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByFaultMix, PipelineLoopbackTest,
    ::testing::Combine(::testing::Values(sim::ProtocolKind::kFutureRand,
                                         sim::ProtocolKind::kLOlh),
                       ::testing::Values(ChurnDelayMix(), BurstOutageMix())),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      return std::string(sim::ProtocolKindToString(std::get<0>(info.param))) +
             "_" + std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace futurerand::net
