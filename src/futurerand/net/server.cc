#include "futurerand/net/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "futurerand/common/macros.h"

namespace futurerand::net {

namespace {

// Reads at most this many socket chunks per readable event, so one
// firehose connection cannot starve the rest of the loop (level-triggered
// polling re-fires for the remainder).
constexpr int kMaxReadsPerEvent = 16;

constexpr size_t kReadChunkBytes = 1 << 16;

Status WriteFileAtomically(const std::string& path,
                           const std::string& contents) {
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("fopen " + temp + ": " + std::strerror(errno));
  }
  const size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const bool flushed = std::fclose(file) == 0 && written == contents.size();
  if (!flushed) {
    (void)std::remove(temp.c_str());
    return Status::IoError("short write to " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    (void)std::remove(temp.c_str());
    return Status::IoError("rename " + temp + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status AppendToFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("fopen " + path + ": " + std::strerror(errno));
  }
  const size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  if (std::fclose(file) != 0 || written != contents.size()) {
    return Status::IoError("short append to " + path);
  }
  return Status::OK();
}

}  // namespace

Status ServiceConfig::Validate() const {
  FR_RETURN_NOT_OK(protocol.Validate());
  FR_RETURN_NOT_OK(dedup_window.Validate(dedup));
  if (num_shards < 0) {
    return Status::InvalidArgument("num_shards must be >= 0");
  }
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (max_write_buffer_bytes < 1) {
    return Status::InvalidArgument("max_write_buffer_bytes must be >= 1");
  }
  if (checkpoint_interval_ms < 0) {
    return Status::InvalidArgument("checkpoint_interval_ms must be >= 0");
  }
  if (checkpoint_interval_ms > 0 && checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_interval_ms needs a checkpoint_path");
  }
  FR_RETURN_NOT_OK(
      core::ValidateCheckpointChain(checkpoint_mode, checkpoint_compact_every));
  return Status::OK();
}

Result<std::unique_ptr<IngestServer>> IngestServer::Create(
    const ServiceConfig& config) {
  FR_RETURN_NOT_OK(config.Validate());
  const int shards =
      config.num_shards > 0 ? config.num_shards : config.num_workers;
  FR_ASSIGN_OR_RETURN(core::ShardedAggregator aggregator,
                      core::ShardedAggregator::ForProtocol(
                          config.protocol, shards, config.dedup,
                          config.dedup_window));
  std::unique_ptr<IngestServer> server(
      new IngestServer(config, std::move(aggregator)));
  for (int index = 0; index < config.num_workers; ++index) {
    FR_ASSIGN_OR_RETURN(Poller poller, Poller::Create(config.force_poll));
    auto loop = std::make_unique<Loop>(std::move(poller));
    loop->index = index;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    loop->wake_read.reset(pipe_fds[0]);
    loop->wake_write.reset(pipe_fds[1]);
    FR_RETURN_NOT_OK(SetNonBlocking(loop->wake_read.get()));
    FR_RETURN_NOT_OK(SetNonBlocking(loop->wake_write.get()));
    FR_RETURN_NOT_OK(loop->poller.Add(loop->wake_read.get(),
                                      /*want_read=*/true,
                                      /*want_write=*/false));
    server->loops_.push_back(std::move(loop));
  }
  return server;
}

IngestServer::IngestServer(const ServiceConfig& config,
                           core::ShardedAggregator aggregator)
    : config_(config), aggregator_(std::move(aggregator)) {}

IngestServer::~IngestServer() {
  if (started_ && !joined_) {
    RequestStop();
    (void)Join();
  }
}

Result<int> IngestServer::AddTcpListener(const std::string& host,
                                         int port) {
  if (started_) {
    return Status::FailedPrecondition("add listeners before Start");
  }
  FR_ASSIGN_OR_RETURN(TcpListener listener, ListenTcp(host, port));
  FR_RETURN_NOT_OK(SetNonBlocking(listener.fd.get()));
  FR_RETURN_NOT_OK(loops_.front()->poller.Add(
      listener.fd.get(), /*want_read=*/true, /*want_write=*/false));
  listeners_.push_back(std::move(listener.fd));
  return listener.port;
}

Status IngestServer::AddUnixListener(const std::string& path) {
  if (started_) {
    return Status::FailedPrecondition("add listeners before Start");
  }
  FR_ASSIGN_OR_RETURN(FdGuard fd, ListenUnix(path));
  FR_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  FR_RETURN_NOT_OK(loops_.front()->poller.Add(fd.get(), /*want_read=*/true,
                                              /*want_write=*/false));
  listeners_.push_back(std::move(fd));
  return Status::OK();
}

Status IngestServer::Launch() {
  if (started_) {
    return Status::FailedPrecondition("Start called twice");
  }
  if (listeners_.empty()) {
    return Status::FailedPrecondition("Start needs at least one listener");
  }
  started_ = true;
  if (config_.checkpoint_interval_ms > 0) {
    next_checkpoint_ =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.checkpoint_interval_ms);
  }
  for (size_t i = 1; i < loops_.size(); ++i) {
    Loop* loop = loops_[i].get();
    loop->thread = std::thread([this, loop] { RunLoop(loop); });
  }
  return Status::OK();
}

Status IngestServer::Start() {
  FR_RETURN_NOT_OK(Launch());
  Loop* primary = loops_.front().get();
  primary->thread = std::thread([this, primary] { RunLoop(primary); });
  return Status::OK();
}

Status IngestServer::Serve() {
  FR_RETURN_NOT_OK(Launch());
  RunLoop(loops_.front().get());
  joined_ = true;
  return serving_error_;
}

void IngestServer::RequestStop() {
  // Async-signal-safe: an atomic store and one pipe write per loop.
  stop_requested_.store(true);
  for (const std::unique_ptr<Loop>& loop : loops_) {
    Wake(loop.get());
  }
}

Status IngestServer::Join() {
  if (!started_ || joined_) {
    return serving_error_;
  }
  // Loop 0 joins every other loop before it takes the final checkpoint.
  loops_.front()->thread.join();
  joined_ = true;
  return serving_error_;
}

ServerStats IngestServer::stats() const {
  ServerStats total;
  {
    const std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    total = checkpoint_stats_;
  }
  for (const std::unique_ptr<Loop>& loop : loops_) {
    const std::lock_guard<std::mutex> lock(loop->mutex);
    const ServerStats& part = loop->stats;
    total.connections_accepted += part.connections_accepted;
    total.frames_received += part.frames_received;
    total.batches_acked += part.batches_acked;
    total.batches_nacked += part.batches_nacked;
    total.batches_errored += part.batches_errored;
    total.records_applied += part.records_applied;
    total.records_deduped += part.records_deduped;
    total.records_out_of_window += part.records_out_of_window;
  }
  return total;
}

void IngestServer::Wake(Loop* loop) {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(loop->wake_write.get(), &byte, 1);
}

void IngestServer::Fail(const Status& status) {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (serving_error_.ok()) {
      serving_error_ = status;
    }
  }
  RequestStop();
}

void IngestServer::RunLoop(Loop* loop) {
  const bool primary = loop->index == 0;
  std::vector<PollEvent> events;
  while (!stop_requested_.load()) {
    int timeout_ms = -1;
    if (primary && config_.checkpoint_interval_ms > 0) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_checkpoint_ - std::chrono::steady_clock::now());
      timeout_ms = std::max<int>(0, static_cast<int>(until.count()));
    }
    const Result<int> waited = loop->poller.Wait(&events, timeout_ms);
    if (!waited.ok()) {
      Fail(waited.status());
      break;
    }
    for (const PollEvent& event : events) {
      if (event.fd == loop->wake_read.get()) {
        char drain[256];
        while (::read(loop->wake_read.get(), drain, sizeof(drain)) > 0) {
        }
        AdoptHandoffs(loop);
        continue;
      }
      if (primary && std::any_of(listeners_.begin(), listeners_.end(),
                                 [&](const FdGuard& fd) {
                                   return fd.get() == event.fd;
                                 })) {
        if (event.readable) {
          AcceptAll(event.fd);
        }
        continue;
      }
      const auto it = loop->conns.find(event.fd);
      if (it == loop->conns.end()) {
        continue;  // already closed this sweep
      }
      Connection* conn = it->second.get();
      if (event.hangup && !event.readable) {
        CloseConnection(loop, conn);
        continue;
      }
      if (event.readable) {
        HandleReadable(loop, conn);
        if (conn->dead) {
          continue;  // closed during read
        }
      }
      if (event.writable) {
        FlushOutbox(loop, conn);
      }
    }
    // Closed connections were only unlinked during the sweep; destroy them
    // (and release their fds) now that no event can still reference them.
    loop->graveyard.clear();
    if (primary && config_.checkpoint_interval_ms > 0 &&
        !stop_requested_.load() &&
        std::chrono::steady_clock::now() >= next_checkpoint_) {
      if (ingests_since_checkpoint_.load() > 0) {
        const Status checkpointed = DoCheckpoint(/*final=*/false);
        if (!checkpointed.ok()) {
          Fail(checkpointed);
        }
      }
      next_checkpoint_ =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config_.checkpoint_interval_ms);
    }
  }
  if (primary) {
    CloseListeners();
    for (size_t i = 1; i < loops_.size(); ++i) {
      loops_[i]->thread.join();
    }
    FinishShutdown();
  }
}

void IngestServer::AcceptAll(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN (drained) or a transient accept error
    }
    FdGuard guard(fd);
    if (!SetNonBlocking(fd).ok()) {
      continue;
    }
    const uint64_t id = ++next_conn_id_;
    Loop* owner =
        loops_[static_cast<size_t>(id % loops_.size())].get();
    if (owner->index == 0) {
      AddConnection(owner, id, std::move(guard));
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(owner->mutex);
      owner->handoff.emplace_back(id, std::move(guard));
    }
    Wake(owner);
  }
}

void IngestServer::AdoptHandoffs(Loop* loop) {
  std::vector<std::pair<uint64_t, FdGuard>> adopted;
  {
    const std::lock_guard<std::mutex> lock(loop->mutex);
    adopted.swap(loop->handoff);
  }
  for (auto& [id, fd] : adopted) {
    AddConnection(loop, id, std::move(fd));
  }
}

void IngestServer::AddConnection(Loop* loop, uint64_t id, FdGuard fd) {
  if (!loop->poller.Add(fd.get(), /*want_read=*/true, /*want_write=*/false)
           .ok()) {
    return;  // the FdGuard closes it
  }
  auto conn = std::make_unique<Connection>();
  conn->id = id;
  conn->fd = std::move(fd);
  const int key = conn->fd.get();
  loop->conns[key] = std::move(conn);
  const std::lock_guard<std::mutex> lock(loop->mutex);
  ++loop->stats.connections_accepted;
}

void IngestServer::HandleReadable(Loop* loop, Connection* conn) {
  char buffer[kReadChunkBytes];
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    const ssize_t got = ::read(conn->fd.get(), buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        CloseConnection(loop, conn);
      }
      return;
    }
    if (got == 0) {
      CloseConnection(loop, conn);
      return;
    }
    loop->frames.clear();
    const Status fed = conn->parser.Feed(
        std::string_view(buffer, static_cast<size_t>(got)), &loop->frames);
    for (std::string& payload : loop->frames) {
      ProcessFrame(loop, conn, std::move(payload));
      if (conn->dead) {
        return;  // a frame closed the connection
      }
    }
    if (!fed.ok()) {
      // Framing desync is unrecoverable on a byte stream: flush whatever
      // replies are pending and drop the connection.
      conn->closing = true;
    }
    // One send for every reply this chunk produced.
    FlushOutbox(loop, conn);
    if (conn->dead || conn->paused || conn->closing) {
      return;  // closed, or backpressure kicked in mid-read
    }
    if (static_cast<size_t>(got) < sizeof(buffer)) {
      // A short read emptied the socket; level-triggered polling fires
      // again when more arrives, so no read() is spent on EAGAIN.
      return;
    }
  }
}

void IngestServer::ProcessFrame(Loop* loop, Connection* conn,
                                std::string payload) {
  Reply reply;
  reply.seq = ++conn->frames_received;
  // A payload that fails to classify is NOT a framing desync: the length
  // prefix parsed, so the stream is still synchronized and the damage is
  // confined to this payload — the signature of in-flight corruption that
  // hit the 3-byte magic. Route it through the ingest path like any batch:
  // IngestEncoded's header check fails with kDataLoss, the reply is
  // kNack, and the sender retransmits the pristine bytes. Closing the
  // connection here would kill the retransmit protocol exactly when it is
  // needed (and SIGPIPE the sender mid-recovery).
  const Result<PayloadType> type = ClassifyPayload(payload);
  const PayloadType routed = type.ok() ? *type : PayloadType::kBatch;
  if (routed == PayloadType::kBatch) {
    if (stop_requested_.load()) {
      // Shutting down: refused, not silently dropped.
      reply.verdict = Verdict::kError;
      reply.status = StatusCode::kFailedPrecondition;
    } else {
      core::IngestOutcome outcome;
      const Status ingested =
          aggregator_.IngestEncoded(payload, nullptr, &outcome);
      ingests_since_checkpoint_.fetch_add(1);
      reply.applied = outcome.applied;
      reply.deduped = outcome.deduped;
      reply.out_of_window = outcome.out_of_window;
      if (!ingested.ok()) {
        reply.verdict = ingested.code() == StatusCode::kDataLoss
                            ? Verdict::kNack
                            : Verdict::kError;
        reply.status = ingested.code();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(loop->mutex);
      ServerStats& stats = loop->stats;
      ++stats.frames_received;
      if (reply.verdict == Verdict::kAck) {
        ++stats.batches_acked;
      } else if (reply.verdict == Verdict::kNack) {
        ++stats.batches_nacked;
      } else {
        ++stats.batches_errored;
      }
      stats.records_applied += reply.applied;
      stats.records_deduped += reply.deduped;
      stats.records_out_of_window += reply.out_of_window;
    }
    FR_CHECK_OK(AppendFrame(EncodeReply(reply), &conn->outbox));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(loop->mutex);
    ++loop->stats.frames_received;
  }
  if (routed == PayloadType::kReply) {
    // Clients answer, servers ask: a reply arriving here is a protocol
    // violation, not damage we can recover from.
    CloseConnection(loop, conn);
    return;
  }
  const Result<ControlOp> op = DecodeControl(payload);
  if (op.ok() && *op == ControlOp::kShutdown) {
    // Acked only after the final checkpoint, as this connection's last
    // frame — the sender knows the checkpoint exists once it reads the
    // ack.
    {
      const std::lock_guard<std::mutex> lock(shutdown_mutex_);
      if (!have_shutdown_ack_) {
        have_shutdown_ack_ = true;
        shutdown_ack_loop_ = loop->index;
        shutdown_ack_conn_ = conn->id;
        shutdown_ack_seq_ = reply.seq;
      }
    }
    RequestStop();
    return;
  }
  Status done = op.status();
  if (op.ok()) {  // kCheckpoint
    done = config_.checkpoint_path.empty()
               ? Status::FailedPrecondition(
                     "server has no checkpoint_path configured")
               : DoCheckpoint(/*final=*/false);
  }
  if (!done.ok()) {
    reply.verdict = Verdict::kError;
    reply.status = done.code();
  }
  FR_CHECK_OK(AppendFrame(EncodeReply(reply), &conn->outbox));
}

void IngestServer::FlushOutbox(Loop* loop, Connection* conn) {
  size_t offset = 0;
  while (offset < conn->outbox.size()) {
    const ssize_t written =
        ::send(conn->fd.get(), conn->outbox.data() + offset,
               conn->outbox.size() - offset, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConnection(loop, conn);
      return;
    }
    offset += static_cast<size_t>(written);
  }
  conn->outbox.erase(0, offset);
  if (conn->outbox.empty() && conn->closing) {
    CloseConnection(loop, conn);
    return;
  }
  // Backpressure: a connection that will not read its replies stops being
  // read itself until the outbox drains below the cap.
  const bool should_pause =
      conn->closing || conn->outbox.size() > config_.max_write_buffer_bytes;
  const bool should_write = !conn->outbox.empty();
  if (should_pause != conn->paused || should_write != conn->want_write) {
    conn->paused = should_pause;
    conn->want_write = should_write;
    UpdateInterest(loop, conn);
  }
}

void IngestServer::UpdateInterest(Loop* loop, Connection* conn) {
  (void)loop->poller.Update(conn->fd.get(), /*want_read=*/!conn->paused,
                            /*want_write=*/conn->want_write);
}

void IngestServer::CloseConnection(Loop* loop, Connection* conn) {
  const auto it = loop->conns.find(conn->fd.get());
  if (it == loop->conns.end() || it->second.get() != conn) {
    return;  // already closed
  }
  (void)loop->poller.Remove(conn->fd.get());
  // Deferred destruction: callers up the stack still hold `conn`, and the
  // open fd parks the number so the kernel cannot hand it to a new accept
  // within this sweep. The graveyard empties once per loop iteration.
  conn->dead = true;
  loop->graveyard.push_back(std::move(it->second));
  loop->conns.erase(it);
}

void IngestServer::CloseListeners() {
  for (FdGuard& listener : listeners_) {
    (void)loops_.front()->poller.Remove(listener.get());
    listener.reset();
  }
  listeners_.clear();
}

Status IngestServer::DoCheckpoint(bool final) {
  const std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  // The shared durable-chain rule (core::NextCheckpointMode), plus a
  // forced full compaction for the final checkpoint.
  const core::CheckpointMode mode =
      final ? core::CheckpointMode::kFull
            : core::NextCheckpointMode(config_.checkpoint_mode,
                                       config_.checkpoint_compact_every,
                                       checkpoint_base_taken_,
                                       checkpoint_stats_.checkpoints_taken);
  const bool full = mode == core::CheckpointMode::kFull;
  // Reset before the capture: a batch that lands while it runs re-arms the
  // timer instead of being forgotten.
  ingests_since_checkpoint_.store(0);
  FR_ASSIGN_OR_RETURN(const std::string blob, aggregator_.Checkpoint(mode));
  std::string framed;
  FR_RETURN_NOT_OK(AppendFrame(blob, &framed));
  if (full) {
    FR_RETURN_NOT_OK(WriteFileAtomically(config_.checkpoint_path, framed));
    checkpoint_base_taken_ = true;
  } else {
    FR_RETURN_NOT_OK(AppendToFile(config_.checkpoint_path, framed));
  }
  ++checkpoint_stats_.checkpoints_taken;
  // checkpoint_bytes counts all blobs; the delta split mirrors
  // sim::DeliveryMetrics.
  checkpoint_stats_.checkpoint_bytes += static_cast<int64_t>(blob.size());
  if (!full) {
    ++checkpoint_stats_.delta_checkpoints_taken;
  }
  return Status::OK();
}

void IngestServer::FinishShutdown() {
  // Every other loop has exited and this one ingests no more, so this
  // compaction is a quiesced, point-in-time snapshot — the one
  // RestoreFromCheckpointFile callers compare against.
  const Status checkpointed = config_.checkpoint_path.empty()
                                  ? Status::OK()
                                  : DoCheckpoint(/*final=*/true);
  const std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (!checkpointed.ok() && serving_error_.ok()) {
    serving_error_ = checkpointed;
  }
  if (have_shutdown_ack_) {
    for (auto& [fd, conn] : loops_[static_cast<size_t>(shutdown_ack_loop_)]
                                ->conns) {
      if (conn->id == shutdown_ack_conn_) {
        Reply reply;
        reply.verdict =
            serving_error_.ok() ? Verdict::kAck : Verdict::kError;
        reply.seq = shutdown_ack_seq_;
        reply.status = serving_error_.code();
        FR_CHECK_OK(AppendFrame(EncodeReply(reply), &conn->outbox));
        break;
      }
    }
  }
  // Final flush: blocking writes so no pending reply (least of all the
  // shutdown ack) is lost to a full socket buffer.
  for (const std::unique_ptr<Loop>& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) {
      if (conn->outbox.empty()) {
        continue;
      }
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) {
        (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      }
      (void)WriteAll(fd, conn->outbox);
    }
    loop->conns.clear();
    loop->graveyard.clear();
    const std::lock_guard<std::mutex> handoff_lock(loop->mutex);
    loop->handoff.clear();
  }
}

Status RestoreFromCheckpointFile(const std::string& path,
                                 core::ShardedAggregator* aggregator) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open checkpoint file " + path);
  }
  std::string contents;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  const bool read_ok = std::ferror(file) == 0;
  (void)std::fclose(file);
  if (!read_ok) {
    return Status::IoError("read " + path + " failed");
  }
  FrameParser parser;
  std::vector<std::string> blobs;
  FR_RETURN_NOT_OK(parser.Feed(contents, &blobs));
  if (parser.buffered_bytes() != 0) {
    return Status::DataLoss("checkpoint file " + path +
                            " ends mid-frame (torn write)");
  }
  if (blobs.empty()) {
    return Status::DataLoss("checkpoint file " + path + " holds no frames");
  }
  // Full base first, then every delta in order — exactly the runner's
  // replay discipline.
  for (const std::string& blob : blobs) {
    FR_RETURN_NOT_OK(aggregator->Restore(blob));
  }
  return Status::OK();
}

}  // namespace futurerand::net
