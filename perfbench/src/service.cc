// The service workload, service_at_least_once: frserve runs as its own
// process and two sender threads ship pre-generated, pre-encoded batches
// to it over two Unix-socket connections, closed loop. The batches went
// through a duplicating, reordering sim::ChannelModel while being
// generated (outside timing); corruption is drawn per attempt by
// net::DeliverEncodedOverStream, whose NACK retransmission needs each
// verdict before the next send.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/fleet.h"
#include "futurerand/core/wire.h"
#include "futurerand/net/client.h"
#include "futurerand/net/server.h"
#include "futurerand/sim/channel.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace futurerand;

// One worker on one shard, fed by two connections so it has the next
// batch queued while a reply travels. Two workers on four connections
// put six busy threads on the 4-vCPU host and spread throughput by up to
// 35% between runs; lock contention between workers did the rest.
constexpr int kConnections = 2;
constexpr int kServerWorkers = 1;
constexpr int kServerShards = 1;
// Live checkpoints: the first sender asks for one after every this-many
// of its batches (about every 80 ms). A timer instead took a number of
// checkpoints that varied with the pass's speed.
constexpr size_t kCheckpointEvery = 128;
constexpr int64_t kRetransmitBudget = 32;

/// frserve as a child process. The destructor kills and reaps it if it is
/// still running.
class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }

  /// Reads the rest of the server's stdout and reaps it; fails unless it
  /// exited with status 0.
  Result<std::string> Wait();

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  // Appends whatever arrives within `timeout_ms`; false on EOF or timeout.
  bool ReadSome(int timeout_ms);

  pid_t pid_;
  int out_fd_;
  std::string output_;
};

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int spawned = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return Status::IoError("cannot start " + binary + ": " +
                           std::strerror(spawned));
  }
  std::unique_ptr<ServerProcess> process(new ServerProcess(pid, fds[0]));
  // The ready line is the server's startup barrier.
  const int64_t deadline = NowNs() + 60'000'000'000;
  while (process->output_.find("frserve ready") == std::string::npos) {
    if (NowNs() > deadline || !process->ReadSome(1000)) {
      return Status::IoError("frserve did not become ready: " +
                             process->output_);
    }
  }
  process->output_.clear();
  return process;
}

bool ServerProcess::ReadSome(int timeout_ms) {
  pollfd pfd{out_fd_, POLLIN, 0};
  if (poll(&pfd, 1, timeout_ms) <= 0) {
    return false;
  }
  char buffer[4096];
  const ssize_t got = read(out_fd_, buffer, sizeof(buffer));
  if (got <= 0) {
    return false;
  }
  output_.append(buffer, static_cast<size_t>(got));
  return true;
}

Result<std::string> ServerProcess::Wait() {
  const int64_t deadline = NowNs() + 60'000'000'000;
  while (NowNs() < deadline && ReadSome(1000)) {
  }
  int status = 0;
  if (waitpid(pid_, &status, 0) != pid_) {
    return Status::IoError("waitpid failed");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("frserve exited abnormally: " + output_);
  }
  return output_;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  close(out_fd_);
}

// The server's socket and checkpoint file, inside the run directory.
std::string RunFile(const Options& options, const char* suffix) {
  return options.run_dir + "/frserve-" + std::to_string(options.seed) +
         suffix;
}

// The integer value of "key":N in frserve's --json stats line.
int64_t StatField(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) {
    return -1;
  }
  return std::stoll(json.substr(at + key.size() + 3));
}

struct WireBatch {
  std::string bytes;  // the delivered (duplicated, reordered) records
  int64_t records = 0;
  int64_t tick = 0;
  bool full = false;  // cut from a full pristine batch
};

struct SenderResult {
  Status status;
  sim::DeliveryMetrics delivery;
  // Full batches: (acked at, send -> ack ns), retransmits included.
  std::vector<std::pair<int64_t, int64_t>> latencies;
  Histogram wait;  // traced: call time minus the shadow's ingest time
  int64_t attempts = 0;
};

class ServiceRun {
 public:
  explicit ServiceRun(const Options& options)
      : options_(options),
        tracer_(options.trace),
        log_(tracer_.NewThreadLog()) {
    n_ = options.tiny ? kTinyClients : kClients;
    batch_records_ = options.tiny ? kTinyBatchRecords : kBatchRecords;
    config_.num_periods = 256;
    config_.max_changes = 4;
    config_.epsilon = 1.0;
    socket_path_ = RunFile(options, ".sock");
    checkpoint_path_ = RunFile(options, ".ckpt");
  }

  Status Run(RunReport* report);

 private:
  Status Generate();
  // Starts frserve, connects, and registers the fleet; returns seconds.
  Result<double> SetUp(bool with_shadows);
  Status RunPass(bool traced, std::vector<SenderResult>* results);
  void Send(int conn, ThreadLog* log, SenderResult* result);
  Status SendTraced(int conn, const WireBatch& batch, int64_t id,
                    ThreadLog* log, sim::ChannelModel* corrupt,
                    SenderResult* result);
  Status ShutDown(std::string* stats_json);

  const Options& options_;
  Tracer tracer_;
  ThreadLog* log_;
  core::ProtocolConfig config_;
  int64_t n_ = 0;
  int64_t batch_records_ = 0;
  std::string socket_path_;
  std::string checkpoint_path_;

  // Pre-generated inputs.
  std::string registrations_;
  std::vector<std::vector<WireBatch>> batches_{kConnections};
  sim::DeliveryMetrics channel_stats_;
  int64_t reports_ = 0;
  std::optional<core::ShardedAggregator> twin_;  // exactly-once ingest

  // The running server and its connections.
  std::unique_ptr<ServerProcess> server_;
  std::vector<net::StreamClient> clients_;
  std::optional<core::ShardedAggregator> shadow_;         // traced
  std::optional<core::ShardedAggregator> serial_shadow_;  // traced
};

Status ServiceRun::Generate() {
  sim::WorkloadConfig workload_config;
  workload_config.kind = sim::WorkloadKind::kUniformChanges;
  workload_config.num_users = n_;
  workload_config.num_periods = config_.num_periods;
  workload_config.max_changes = config_.max_changes;
  FR_ASSIGN_OR_RETURN(
      const sim::Workload workload,
      sim::Workload::Generate(workload_config, DeriveSeed(options_.seed, 0)));
  std::optional<core::ClientFleet> fleet;
  {
    SpanScope span(log_, "fleet.create", -1, n_);
    FR_ASSIGN_OR_RETURN(core::ClientFleet created,
                        core::ClientFleet::Create(
                            config_, n_, DeriveSeed(options_.seed, 1), nullptr));
    fleet.emplace(std::move(created));
  }
  registrations_ = fleet->EncodeRegistrations();
  FR_ASSIGN_OR_RETURN(core::ShardedAggregator twin,
                      core::ShardedAggregator::ForProtocol(config_, 1));
  twin_.emplace(std::move(twin));
  FR_RETURN_NOT_OK(twin_->IngestEncoded(registrations_, nullptr));

  sim::ChannelConfig channel_config;
  channel_config.duplicate_rate = 0.1;
  channel_config.reorder_rate = 0.5;
  std::vector<sim::ChannelModel> channels;
  for (int c = 0; c < kConnections; ++c) {
    channels.emplace_back(channel_config, DeriveSeed(options_.seed, 10 + c));
  }
  StateStepper stepper(workload);
  core::ReportBatch tick;
  core::ReportBatch chunk;
  core::ReportBatch delivered;
  const auto batch_size = static_cast<size_t>(batch_records_);
  int64_t chunk_index = 0;
  for (int64_t t = 1; t <= config_.num_periods; ++t) {
    {
      SpanScope span(log_, "workload.states", -1, n_);
      stepper.Advance(t);
    }
    {
      SpanScope span(log_, "fleet.tick", -1, n_);
      FR_RETURN_NOT_OK(fleet->AdvanceTick(stepper.states(), &tick));
    }
    for (size_t offset = 0; offset < tick.size(); offset += batch_size) {
      const size_t end = std::min(offset + batch_size, tick.size());
      chunk.assign(tick.begin() + static_cast<std::ptrdiff_t>(offset),
                   tick.begin() + static_cast<std::ptrdiff_t>(end));
      FR_ASSIGN_OR_RETURN(
          const std::string pristine,
          core::EncodeReportBatch(chunk, core::WireVersion::kV2));
      FR_RETURN_NOT_OK(twin_->IngestEncoded(pristine, nullptr));
      const int conn = static_cast<int>(chunk_index++ % kConnections);
      channels[static_cast<size_t>(conn)].Transmit(chunk, &delivered);
      WireBatch batch;
      {
        SpanScope span(log_, "wire.encode", -1,
                       static_cast<int64_t>(delivered.size()));
        FR_ASSIGN_OR_RETURN(
            batch.bytes,
            core::EncodeReportBatch(delivered, core::WireVersion::kV2));
      }
      batch.records = static_cast<int64_t>(delivered.size());
      batch.tick = t;
      batch.full = end - offset == batch_size;
      batches_[static_cast<size_t>(conn)].push_back(std::move(batch));
    }
  }
  reports_ = fleet->reports_emitted();
  for (const sim::ChannelModel& channel : channels) {
    channel_stats_.records_sent += channel.stats().records_sent;
    channel_stats_.records_dropped += channel.stats().records_dropped;
    channel_stats_.records_duplicated += channel.stats().records_duplicated;
    channel_stats_.records_delivered += channel.stats().records_delivered;
  }
  return Status::OK();
}

Result<double> ServiceRun::SetUp(bool with_shadows) {
  std::remove(socket_path_.c_str());
  const int64_t start = NowNs();
  FR_ASSIGN_OR_RETURN(
      server_,
      ServerProcess::Start(
          options_.frserve,
          {"--uds=" + socket_path_, "--d=256", "--k=4", "--eps=1",
           "--randomizer=future_rand", "--dedup",
           "--workers=" + std::to_string(kServerWorkers),
           "--shards=" + std::to_string(kServerShards),
           "--checkpoint=" + checkpoint_path_, "--checkpoint-mode=delta",
           "--json"}));
  clients_.clear();
  for (int c = 0; c < kConnections; ++c) {
    FR_ASSIGN_OR_RETURN(net::StreamClient client,
                        net::StreamClient::ConnectUnix(socket_path_));
    clients_.push_back(std::move(client));
  }
  FR_ASSIGN_OR_RETURN(const net::Reply reply, clients_[0].Call(registrations_));
  if (reply.verdict != net::Verdict::kAck) {
    return Status::Internal("frserve rejected the registration batch");
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  shadow_.reset();
  serial_shadow_.reset();
  if (with_shadows) {
    // Stand-ins for the server's aggregator, fed the same batches in the
    // traced run so network and queue time can be told from ingest time.
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator shadow,
                        core::ShardedAggregator::ForProtocol(
                            config_, kServerShards,
                            core::DedupPolicy::kIdempotent));
    shadow_.emplace(std::move(shadow));
    {
      SpanScope span(log_, "aggregator.register", -1, n_);
      FR_RETURN_NOT_OK(shadow_->IngestEncoded(registrations_, nullptr));
    }
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator serial,
                        core::ShardedAggregator::ForProtocol(
                            config_, 1, core::DedupPolicy::kIdempotent));
    serial_shadow_.emplace(std::move(serial));
    FR_RETURN_NOT_OK(serial_shadow_->IngestEncoded(registrations_, nullptr));
  }
  return seconds;
}

Status ServiceRun::ShutDown(std::string* stats_json) {
  // The ack comes after the drain and the final quiesced checkpoint.
  FR_RETURN_NOT_OK(clients_[0].SendControl(net::ControlOp::kShutdown));
  clients_.clear();
  FR_ASSIGN_OR_RETURN(const std::string output, server_->Wait());
  server_.reset();
  const size_t at = output.find("{\"bench\":\"frserve\"");
  if (at == std::string::npos) {
    return Status::Internal("frserve printed no stats line");
  }
  *stats_json = output.substr(at, output.find('\n', at) - at);
  return Status::OK();
}

sim::ChannelModel CorruptionChannel(uint64_t seed, int conn) {
  sim::ChannelConfig config;
  config.corrupt_rate = 0.02;
  return sim::ChannelModel(config, DeriveSeed(seed, 20 + conn));
}

void ServiceRun::Send(int conn, ThreadLog* log, SenderResult* result) {
  sim::ChannelModel corrupt = CorruptionChannel(options_.seed, conn);
  SpanScope sender_span(log, "loop.sender", conn);
  const std::vector<WireBatch>& batches = batches_[static_cast<size_t>(conn)];
  for (size_t i = 0; i < batches.size(); ++i) {
    const WireBatch& batch = batches[i];
    const auto id = static_cast<int64_t>(i) * kConnections + conn;
    const int64_t start = NowNs();
    if (log == nullptr) {
      result->status = net::DeliverEncodedOverStream(
          clients_[static_cast<size_t>(conn)], batch.bytes, &corrupt,
          core::WireVersion::kV2, kRetransmitBudget, &result->delivery);
    } else {
      result->status = SendTraced(conn, batch, id, log, &corrupt, result);
    }
    if (!result->status.ok()) {
      return;
    }
    const int64_t end = NowNs();
    if (batch.full) {
      result->latencies.emplace_back(end, end - start);
    }
    if (conn == 0 && (i + 1) % kCheckpointEvery == 0) {
      SpanScope span(log, "server.checkpoint", id);
      result->status = clients_[0].SendControl(net::ControlOp::kCheckpoint);
      if (!result->status.ok()) {
        return;
      }
    }
  }
}

// The traced twin of DeliverEncodedOverStream: the same per-attempt
// corruption draw and NACK/overload handling, written out so each round
// trip gets its own span, followed by the shadow ingest of the batch.
Status ServiceRun::SendTraced(int conn, const WireBatch& batch, int64_t id,
                              ThreadLog* log, sim::ChannelModel* corrupt,
                              SenderResult* result) {
  SpanScope batch_span(log, "loop.batch", id, batch.records);
  net::StreamClient& client = clients_[static_cast<size_t>(conn)];
  int64_t call_ns = 0;
  bool acked = false;
  for (int64_t attempt = 0; attempt < kRetransmitBudget && !acked; ++attempt) {
    std::string bytes = batch.bytes;
    {
      SpanScope span(log, "channel.corrupt", id);
      corrupt->MaybeCorrupt(&bytes);
    }
    net::Reply reply;
    for (;;) {
      const int64_t start = NowNs();
      {
        SpanScope span(log, "net.call", id, batch.records);
        FR_ASSIGN_OR_RETURN(reply, client.Call(bytes));
      }
      call_ns += NowNs() - start;
      ++result->attempts;
      if (reply.verdict != net::Verdict::kOverload) {
        break;
      }
      SpanScope span(log, "net.overload_backoff", id);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    result->delivery.records_applied += reply.applied;
    result->delivery.records_deduped += reply.deduped;
    result->delivery.records_out_of_window += reply.out_of_window;
    if (reply.verdict == net::Verdict::kAck) {
      acked = true;
    } else if (reply.status == StatusCode::kDataLoss) {
      ++result->delivery.batches_checksum_rejected;
      ++result->delivery.batches_retransmitted;
    } else {
      return Status(reply.status, "frserve rejected a batch");
    }
  }
  if (!acked) {
    return Status::DataLoss("retransmit budget exhausted");
  }
  int64_t ingest_ns = 0;
  {
    const int64_t start = NowNs();
    SpanScope span(log, "aggregator.ingest", id, batch.records);
    std::vector<core::ReportMessage> decoded;
    {
      SpanScope decode_span(log, "wire.decode", id, batch.records);
      FR_ASSIGN_OR_RETURN(decoded, core::DecodeReportBatch(batch.bytes));
    }
    {
      SpanScope apply_span(log, "aggregator.apply", id, batch.records);
      FR_RETURN_NOT_OK(shadow_->IngestReports(decoded, nullptr));
    }
    ingest_ns = NowNs() - start;
  }
  result->wait.Add(call_ns - ingest_ns);
  if (id % kSerialSampleEvery == 0) {
    SpanScope span(log, "aggregator.ingest_serial", id, batch.records);
    FR_RETURN_NOT_OK(serial_shadow_->IngestEncoded(batch.bytes, nullptr));
  }
  {
    SpanScope span(log, "query.estimate_at", id);
    FR_RETURN_NOT_OK(shadow_->EstimateAt(batch.tick).status());
  }
  SpanScope span(log, "query.window_delta", id);
  return shadow_->EstimateWindowDelta(WindowStart(batch.tick), batch.tick)
      .status();
}

Status ServiceRun::RunPass(bool traced, std::vector<SenderResult>* results) {
  results->assign(kConnections, SenderResult{});
  std::vector<ThreadLog*> logs(kConnections, nullptr);
  if (traced) {
    for (ThreadLog*& log : logs) {
      log = tracer_.NewThreadLog();
    }
  }
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    const auto i = static_cast<size_t>(c);
    senders.emplace_back([this, c, log = logs[i], result = &(*results)[i]] {
      Send(c, log, result);
    });
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  for (const SenderResult& result : *results) {
    FR_RETURN_NOT_OK(result.status);
  }
  return Status::OK();
}

Status ServiceRun::Run(RunReport* report) {
  FR_RETURN_NOT_OK(Generate());
  std::vector<double> setup_seconds;
  std::string stats_json;
  for (int i = 0; i < kWarmSetups; ++i) {
    FR_ASSIGN_OR_RETURN(const double seconds, SetUp(false));
    setup_seconds.push_back(seconds);
    FR_RETURN_NOT_OK(ShutDown(&stats_json));
  }

  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  double measured = 0.0;
  double server_cpu = 0.0;
  std::vector<double> peak_rss;
  int64_t applied = 0;
  int64_t batches = 0;
  std::vector<int64_t> latencies;
  std::vector<double> pass_rates;
  std::vector<double> recovery;
  std::optional<core::ShardedAggregator> restored;
  Histogram wait;
  sim::DeliveryMetrics delivery;  // the last pass
  int64_t attempts = 0;  // round trips of the traced passes
  for (int pass = 0;
       measured < options_.seconds || (options_.trace && traced_walls.empty());
       ++pass) {
    const bool traced = options_.trace && pass > 0 && pass <= kTracedPasses;
    FR_ASSIGN_OR_RETURN(const double seconds, SetUp(traced));
    setup_seconds.push_back(seconds);
    FR_ASSIGN_OR_RETURN(const double cpu_start,
                        ProcessCpuSeconds(server_->pid()));
    const int64_t start = NowNs();
    std::vector<SenderResult> results;
    FR_RETURN_NOT_OK(RunPass(traced, &results));
    const int64_t end = NowNs();
    const double wall = static_cast<double>(end - start) * 1e-9;
    FR_ASSIGN_OR_RETURN(const double cpu_end,
                        ProcessCpuSeconds(server_->pid()));
    FR_ASSIGN_OR_RETURN(const double rss, PeakRssMb(server_->pid()));
    FR_RETURN_NOT_OK(ShutDown(&stats_json));
    delivery = sim::DeliveryMetrics{};
    std::vector<std::pair<int64_t, int64_t>> acked;
    for (const SenderResult& result : results) {
      acked.insert(acked.end(), result.latencies.begin(),
                   result.latencies.end());
      wait.Merge(result.wait);
      delivery.records_applied += result.delivery.records_applied;
      delivery.records_deduped += result.delivery.records_deduped;
      delivery.records_out_of_window += result.delivery.records_out_of_window;
      delivery.batches_retransmitted += result.delivery.batches_retransmitted;
      attempts += result.attempts;
    }
    for (const auto& conn : batches_) {
      batches += static_cast<int64_t>(conn.size());
    }
    if (traced) {
      traced_walls.push_back(wall);
    } else {
      untraced_walls.push_back(wall);
      pass_rates.push_back(static_cast<double>(delivery.records_applied) /
                           wall);
      std::sort(acked.begin(), acked.end());
      for (const auto& [acked_at, latency] : acked) {
        latencies.push_back(latency);
      }
    }
    measured += wall;
    server_cpu += cpu_end - cpu_start;
    peak_rss.push_back(rss);
    applied += delivery.records_applied;
    std::printf("  pass %d: %.3f s, %lld reports applied, %lld retransmits, "
                "%lld live checkpoints, frserve cpu %.2f s%s\n",
                pass, wall, static_cast<long long>(delivery.records_applied),
                static_cast<long long>(delivery.batches_retransmitted),
                static_cast<long long>(StatField(stats_json,
                                                 "checkpoints_taken")),
                cpu_end - cpu_start, traced ? " (traced)" : "");

    // Conservation, per pass.
    if (channel_stats_.records_sent + channel_stats_.records_duplicated !=
        channel_stats_.records_delivered + channel_stats_.records_dropped) {
      report->Fail("channel: sent + duplicated != delivered + dropped");
    }
    const int64_t handled = delivery.records_applied +
                            delivery.records_deduped +
                            delivery.records_out_of_window;
    if (handled != channel_stats_.records_delivered) {
      report->Fail("delivered " +
                   std::to_string(channel_stats_.records_delivered) +
                   " != applied + deduped + out_of_window " +
                   std::to_string(handled));
    }
    if (delivery.records_out_of_window != 0) {
      report->Fail("out_of_window reports: " +
                   std::to_string(delivery.records_out_of_window));
    }
    if (delivery.records_applied != reports_) {
      report->Fail("applied " + std::to_string(delivery.records_applied) +
                   " != reports emitted " + std::to_string(reports_));
    }
    if (StatField(stats_json, "batches_errored") != 0) {
      report->Fail("frserve answered errors: " + stats_json);
    }

    // Recovery from this server's shutdown checkpoint file.
    for (int r = 0; r < kRecoveryPerPass; ++r) {
      restored.reset();
      const int64_t restore_start = NowNs();
      FR_ASSIGN_OR_RETURN(core::ShardedAggregator fresh,
                          core::ShardedAggregator::ForProtocol(
                              config_, kServerShards,
                              core::DedupPolicy::kIdempotent));
      {
        SpanScope span(log_, "snapshot.file_restore");
        FR_RETURN_NOT_OK(
            net::RestoreFromCheckpointFile(checkpoint_path_, &fresh));
      }
      recovery.push_back(static_cast<double>(NowNs() - restore_start) * 1e-9);
      restored.emplace(std::move(fresh));
    }
  }
  report->Attempt(batches);
  std::printf("  conservation: sent %lld + duplicated %lld = delivered %lld "
              "+ dropped %lld; delivered = applied %lld + deduped %lld + "
              "out_of_window %lld\n",
              static_cast<long long>(channel_stats_.records_sent),
              static_cast<long long>(channel_stats_.records_duplicated),
              static_cast<long long>(channel_stats_.records_delivered),
              static_cast<long long>(channel_stats_.records_dropped),
              static_cast<long long>(delivery.records_applied),
              static_cast<long long>(delivery.records_deduped),
              static_cast<long long>(delivery.records_out_of_window));

  // At-least-once delivery must equal the exactly-once in-process twin.
  FR_ASSIGN_OR_RETURN(const std::vector<double> served,
                      restored->EstimateAll());
  FR_ASSIGN_OR_RETURN(const std::vector<double> exact, twin_->EstimateAll());
  if (served != exact) {
    report->Fail("restored service estimates differ from exactly-once ingest");
  }
  if (restored->num_clients() != n_) {
    report->Fail("restored aggregator holds " +
                 std::to_string(restored->num_clients()) + " clients");
  }

  Figures figures;
  figures["setup_s"] = Median(setup_seconds);
  figures["throughput_rps"] = Median(pass_rates);
  figures["cpu_s_per_mreport"] =
      server_cpu / (static_cast<double>(applied) * 1e-6);
  figures["peak_rss_mb"] = Median(peak_rss);
  figures["recovery_s"] = TrimmedMean(recovery);
  figures["state_bytes_per_client"] =
      static_cast<double>(restored->ApproxMemoryBytes()) /
      static_cast<double>(n_);
  int64_t wire_bytes = 0;
  for (const auto& conn : batches_) {
    for (const WireBatch& batch : conn) {
      wire_bytes += static_cast<int64_t>(batch.bytes.size());
    }
  }
  figures["wire_bytes_per_report"] =
      static_cast<double>(wire_bytes) /
      static_cast<double>(channel_stats_.records_delivered);

  if (!options_.trace) {
    FR_ASSIGN_OR_RETURN(
        figures["latency_mean_ms"], BatchLatencyMs(latencies));
    return AddMetrics(kEndToEndMetrics, figures, report);
  }

  // Snapshot layers on the recovered state.
  std::string blob;
  for (int r = 0; r < kRecoveryPerPass; ++r) {
    {
      SpanScope span(log_, "snapshot.checkpoint_full");
      FR_ASSIGN_OR_RETURN(blob,
                          restored->Checkpoint(core::CheckpointMode::kFull));
    }
    FR_ASSIGN_OR_RETURN(core::ShardedAggregator fresh,
                        core::ShardedAggregator::ForProtocol(
                            config_, kServerShards,
                            core::DedupPolicy::kIdempotent));
    SpanScope span(log_, "snapshot.restore");
    FR_RETURN_NOT_OK(fresh.Restore(blob));
  }

  const TraceSummary trace = Summarize(tracer_);
  auto us = [&](const char* label, const Histogram& h, double q) {
    return Quantile(label, h, q, 1e-3);
  };
  auto mean_ms = [&](const char* name) {
    const LayerTotals& totals = trace.Get(name);
    return static_cast<double>(totals.total_ns) * 1e-6 /
           static_cast<double>(std::max<int64_t>(totals.count, 1));
  };
  Figures layers;
  layers["workload.states_ns_per_user_period"] =
      trace.NsPerItem("workload.states");
  layers["fleet.create_s"] = mean_ms("fleet.create") * 1e-3;
  layers["fleet.tick_ns_per_user_period"] = trace.NsPerItem("fleet.tick");
  layers["fleet.reports_per_user_period"] =
      static_cast<double>(reports_) /
      static_cast<double>(n_ * config_.num_periods);
  layers["wire.encode_ns_per_report"] = trace.NsPerItem("wire.encode");
  layers["wire.decode_ns_per_report"] = trace.NsPerItem("wire.decode");
  layers["wire.bytes_per_report"] = figures["wire_bytes_per_report"];
  layers["aggregator.ingest_ns_per_report"] =
      trace.NsPerItem("aggregator.ingest");
  layers["aggregator.apply_ns_per_report"] =
      trace.NsPerItem("aggregator.apply");
  layers["aggregator.ingest_serial_ns_per_report"] =
      trace.NsPerItem("aggregator.ingest_serial");
  layers["aggregator.register_ns_per_client"] =
      trace.NsPerItem("aggregator.register");
  layers["aggregator.state_bytes_per_client"] =
      figures["state_bytes_per_client"];
  layers["aggregator.dedup_ratio"] =
      static_cast<double>(delivery.records_deduped) /
      static_cast<double>(channel_stats_.records_delivered);
  const LayerTotals& estimate_at = trace.Get("query.estimate_at");
  FR_ASSIGN_OR_RETURN(layers["query.estimate_at_us_p50"],
                      us("estimate_at us", estimate_at.durations, 0.5));
  FR_ASSIGN_OR_RETURN(layers["query.estimate_at_us_p99"],
                      us("estimate_at us", estimate_at.durations, 0.99));
  FR_ASSIGN_OR_RETURN(
      layers["query.window_delta_us_p50"],
      us("window_delta us", trace.Get("query.window_delta").durations, 0.5));
  layers["snapshot.checkpoint_full_ms"] = mean_ms("snapshot.checkpoint_full");
  layers["snapshot.restore_ms"] = mean_ms("snapshot.restore");
  layers["snapshot.full_bytes_per_client"] =
      static_cast<double>(blob.size()) / static_cast<double>(n_);
  layers["snapshot.file_restore_ms"] = mean_ms("snapshot.file_restore");
  int64_t pass_batches = 0;
  for (const auto& conn : batches_) {
    pass_batches += static_cast<int64_t>(conn.size());
  }
  layers["channel.retransmit_ratio"] =
      static_cast<double>(delivery.batches_retransmitted) /
      static_cast<double>(pass_batches);
  layers["channel.duplicate_ratio"] =
      static_cast<double>(channel_stats_.records_duplicated) /
      static_cast<double>(channel_stats_.records_sent);
  const LayerTotals& call = trace.Get("net.call");
  FR_ASSIGN_OR_RETURN(layers["net.call_us_p50"],
                      us("net call us", call.durations, 0.5));
  FR_ASSIGN_OR_RETURN(layers["net.call_us_p99"],
                      us("net call us", call.durations, 0.99));
  FR_ASSIGN_OR_RETURN(layers["net.wait_us_p50"],
                      us("net wait us", wait, 0.5));
  FR_ASSIGN_OR_RETURN(layers["net.wait_us_p99"],
                      us("net wait us", wait, 0.99));
  const auto frames = static_cast<double>(
      std::max<int64_t>(StatField(stats_json, "frames_received"), 1));
  layers["server.overload_ratio"] =
      static_cast<double>(StatField(stats_json, "batches_overloaded")) / frames;
  layers["server.nack_ratio"] =
      static_cast<double>(StatField(stats_json, "batches_nacked")) / frames;
  layers["server.checkpoints_taken"] =
      static_cast<double>(StatField(stats_json, "checkpoints_taken"));
  layers["server.checkpoint_bytes"] =
      static_cast<double>(StatField(stats_json, "checkpoint_bytes"));
  layers["trace.unexplained_share"] = trace.UnexplainedShare();
  layers["trace.overhead_ratio"] =
      Median(traced_walls) / Median(untraced_walls) - 1.0;
  std::printf("  traced blocking path: %.3f s over %d senders, unexplained "
              "share %.4f, tracing overhead %+.1f%%, %lld traced attempts\n",
              static_cast<double>(trace.blocking_ns) * 1e-9, kConnections,
              trace.UnexplainedShare(), layers["trace.overhead_ratio"] * 100.0,
              static_cast<long long>(attempts));
  if (trace.UnexplainedShare() > 0.10) {
    report->Fail("layer spans explain less than 90% of the traced wall time");
  }
  const std::string trace_path = options_.run_dir + "/trace-" +
                                 options_.workload + "-" +
                                 std::to_string(options_.seed) + ".csv";
  if (!tracer_.WriteCsv(trace_path)) {
    return Status::IoError("cannot write " + trace_path);
  }
  return AddMetrics(kLayerMetrics, layers, report);
}

}  // namespace

Status RunServiceWorkload(const Options& options, RunReport* report) {
  Status status;
  {
    ServiceRun run(options);
    status = run.Run(report);
  }  // stops frserve if a failure left it running
  std::remove(RunFile(options, ".sock").c_str());
  std::remove(RunFile(options, ".ckpt").c_str());
  return status;
}

}  // namespace perfbench
