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
  if (worker_queue_capacity < 1) {
    return Status::InvalidArgument("worker_queue_capacity must be >= 1");
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

bool IngestServer::BoundedQueue::TryPush(WorkItem item) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(item));
  }
  ready_.notify_one();
  return true;
}

bool IngestServer::BoundedQueue::Pop(WorkItem* item) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) {
    return false;
  }
  *item = std::move(items_.front());
  items_.pop_front();
  return true;
}

void IngestServer::BoundedQueue::Close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
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
  FR_ASSIGN_OR_RETURN(Poller poller, Poller::Create(config.force_poll));
  std::unique_ptr<IngestServer> server(new IngestServer(
      config, std::move(aggregator), std::move(poller)));
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  server->wake_read_.reset(pipe_fds[0]);
  server->wake_write_.reset(pipe_fds[1]);
  FR_RETURN_NOT_OK(SetNonBlocking(server->wake_read_.get()));
  FR_RETURN_NOT_OK(SetNonBlocking(server->wake_write_.get()));
  FR_RETURN_NOT_OK(server->poller_.Add(server->wake_read_.get(),
                                       /*want_read=*/true,
                                       /*want_write=*/false));
  for (int w = 0; w < config.num_workers; ++w) {
    server->queues_.push_back(
        std::make_unique<BoundedQueue>(config.worker_queue_capacity));
  }
  return server;
}

IngestServer::IngestServer(const ServiceConfig& config,
                           core::ShardedAggregator aggregator,
                           Poller poller)
    : config_(config),
      aggregator_(std::move(aggregator)),
      poller_(std::move(poller)) {}

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
  FR_RETURN_NOT_OK(poller_.Add(listener.fd.get(), /*want_read=*/true,
                               /*want_write=*/false));
  listeners_.push_back(std::move(listener.fd));
  return listener.port;
}

Status IngestServer::AddUnixListener(const std::string& path) {
  if (started_) {
    return Status::FailedPrecondition("add listeners before Start");
  }
  FR_ASSIGN_OR_RETURN(FdGuard fd, ListenUnix(path));
  FR_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  FR_RETURN_NOT_OK(
      poller_.Add(fd.get(), /*want_read=*/true, /*want_write=*/false));
  listeners_.push_back(std::move(fd));
  return Status::OK();
}

Status IngestServer::Start() {
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
  for (int w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void IngestServer::RequestStop() {
  stop_requested_.store(true);
  WakeIo();
}

Status IngestServer::Join() {
  if (!started_ || joined_) {
    return serving_error_;
  }
  io_thread_.join();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  joined_ = true;
  return serving_error_;
}

ServerStats IngestServer::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void IngestServer::WakeIo() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(wake_write_.get(), &byte, 1);
}

void IngestServer::WorkerLoop(int index) {
  WorkItem item;
  while (queues_[index]->Pop(&item)) {
    if (config_.before_ingest_hook) {
      config_.before_ingest_hook(item.seq);
    }
    core::IngestOutcome outcome;
    const Status ingested =
        aggregator_.IngestEncoded(item.payload, nullptr, &outcome);
    Completion completion;
    completion.conn_id = item.conn_id;
    completion.reply.seq = item.seq;
    completion.reply.applied = outcome.applied;
    completion.reply.deduped = outcome.deduped;
    completion.reply.out_of_window = outcome.out_of_window;
    completion.acked_ingest = true;
    if (ingested.ok()) {
      completion.reply.verdict = Verdict::kAck;
    } else {
      completion.reply.verdict = ingested.code() == StatusCode::kDataLoss
                                     ? Verdict::kNack
                                     : Verdict::kError;
      completion.reply.status = ingested.code();
    }
    {
      const std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    // Decrement after publishing the completion, so in_flight_ == 0 with
    // an empty completion list really means "everything replied".
    in_flight_.fetch_sub(1);
    WakeIo();
  }
}

void IngestServer::IoLoop() {
  std::vector<PollEvent> events;
  for (;;) {
    int timeout_ms = -1;
    if (config_.checkpoint_interval_ms > 0 && !draining_) {
      const auto now = std::chrono::steady_clock::now();
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_checkpoint_ - now);
      timeout_ms = std::max<int>(0, static_cast<int>(until.count()));
    }
    if (draining_) {
      // Fallback heartbeat while waiting for workers to drain: the wake
      // pipe is the primary signal, this bounds the race.
      timeout_ms = 10;
    }
    const Result<int> waited = poller_.Wait(&events, timeout_ms);
    if (!waited.ok()) {
      serving_error_ = waited.status();
      break;
    }
    for (const PollEvent& event : events) {
      if (event.fd == wake_read_.get()) {
        char drain[256];
        while (::read(wake_read_.get(), drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      const bool is_listener = std::any_of(
          listeners_.begin(), listeners_.end(),
          [&](const FdGuard& fd) { return fd.get() == event.fd; });
      if (is_listener) {
        if (event.readable) {
          AcceptAll(event.fd);
        }
        continue;
      }
      const auto it = fd_to_conn_.find(event.fd);
      if (it == fd_to_conn_.end()) {
        continue;  // already closed this iteration
      }
      const uint64_t conn_id = it->second;
      Connection* conn = conns_.at(conn_id).get();
      if (event.hangup && !event.readable) {
        CloseConnection(conn_id);
        continue;
      }
      if (event.readable) {
        HandleReadable(conn);
        if (conn->dead) {
          continue;  // closed during read
        }
      }
      if (event.writable) {
        FlushOutbox(conn);
      }
    }
    DrainCompletions();
    // Closed connections were only unlinked during the sweep; destroy them
    // (and release their fds) now that no event can still reference them.
    graveyard_.clear();
    if (stop_requested_.load() && !draining_) {
      draining_ = true;
      CloseListeners();
    }
    if (config_.checkpoint_interval_ms > 0 && !draining_ &&
        std::chrono::steady_clock::now() >= next_checkpoint_) {
      if (ingests_since_checkpoint_ > 0) {
        const Status checkpointed = DoCheckpoint(/*final=*/false);
        if (!checkpointed.ok()) {
          serving_error_ = checkpointed;
          break;
        }
      }
      next_checkpoint_ =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config_.checkpoint_interval_ms);
    }
    if (draining_ && in_flight_.load() == 0) {
      // One more sweep: a worker may have published its last completion
      // between DrainCompletions above and the in_flight_ read.
      DrainCompletions();
      FinishShutdown();
      break;
    }
  }
  for (const std::unique_ptr<BoundedQueue>& queue : queues_) {
    queue->Close();
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
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = ++next_conn_id_;
    conn->fd.reset(fd);
    conn->worker = static_cast<int>(conn->id %
                                    static_cast<uint64_t>(
                                        config_.num_workers));
    if (!poller_.Add(fd, /*want_read=*/true, /*want_write=*/false).ok()) {
      continue;  // conn's FdGuard closes it
    }
    fd_to_conn_[fd] = conn->id;
    conns_[conn->id] = std::move(conn);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
}

void IngestServer::HandleReadable(Connection* conn) {
  char buffer[kReadChunkBytes];
  std::vector<std::string> frames;
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    const ssize_t got = ::read(conn->fd.get(), buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConnection(conn->id);
      return;
    }
    if (got == 0) {
      CloseConnection(conn->id);
      return;
    }
    frames.clear();
    const Status fed = conn->parser.Feed(
        std::string_view(buffer, static_cast<size_t>(got)), &frames);
    for (std::string& payload : frames) {
      ProcessFrame(conn, std::move(payload));
      if (conn->dead) {
        return;  // a frame closed the connection
      }
    }
    if (!fed.ok()) {
      // Framing desync is unrecoverable on a byte stream: flush whatever
      // replies are pending and drop the connection.
      conn->closing = true;
      if (!conn->paused) {
        conn->paused = true;
        UpdateInterest(conn);
      }
      if (conn->outbox.empty()) {
        CloseConnection(conn->id);
      }
      return;
    }
    if (conn->paused || conn->closing) {
      return;  // backpressure kicked in mid-read
    }
  }
}

void IngestServer::ProcessFrame(Connection* conn, std::string payload) {
  const uint64_t seq = ++conn->frames_received;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_received;
  }
  // A payload that fails to classify is NOT a framing desync: the length
  // prefix parsed, so the stream is still synchronized and the damage is
  // confined to this payload — the signature of in-flight corruption that
  // hit the 3-byte magic. Route it through the ingest path like any batch:
  // IngestEncoded's header check fails with kDataLoss, the worker answers
  // kNack, and the sender retransmits the pristine bytes. Closing the
  // connection here would kill the retransmit protocol exactly when it is
  // needed (and SIGPIPE the sender mid-recovery).
  const Result<PayloadType> type = ClassifyPayload(payload);
  const PayloadType routed = type.ok() ? *type : PayloadType::kBatch;
  switch (routed) {
    case PayloadType::kBatch: {
      if (draining_) {
        Reply reply;
        reply.verdict = Verdict::kError;
        reply.seq = seq;
        reply.status = StatusCode::kFailedPrecondition;
        EnqueueReply(conn, reply);
        return;
      }
      WorkItem item;
      item.conn_id = conn->id;
      item.seq = seq;
      item.payload = std::move(payload);
      in_flight_.fetch_add(1);
      if (!queues_[static_cast<size_t>(conn->worker)]->TryPush(
              std::move(item))) {
        in_flight_.fetch_sub(1);
        Reply reply;
        reply.verdict = Verdict::kOverload;
        reply.seq = seq;
        {
          const std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.batches_overloaded;
        }
        EnqueueReply(conn, reply);
      }
      return;
    }
    case PayloadType::kControl: {
      const Result<ControlOp> op = DecodeControl(payload);
      Reply reply;
      reply.seq = seq;
      if (!op.ok()) {
        reply.verdict = Verdict::kError;
        reply.status = op.status().code();
        EnqueueReply(conn, reply);
        return;
      }
      if (*op == ControlOp::kCheckpoint) {
        const Status checkpointed =
            config_.checkpoint_path.empty()
                ? Status::FailedPrecondition(
                      "server has no checkpoint_path configured")
                : DoCheckpoint(/*final=*/false);
        if (checkpointed.ok()) {
          reply.verdict = Verdict::kAck;
        } else {
          reply.verdict = Verdict::kError;
          reply.status = checkpointed.code();
        }
        EnqueueReply(conn, reply);
        return;
      }
      // kShutdown: ack only after the drain, as this connection's final
      // frame — the sender knows the final checkpoint exists once it
      // reads the ack.
      draining_ = true;
      have_shutdown_ack_ = true;
      shutdown_ack_conn_ = conn->id;
      shutdown_ack_seq_ = seq;
      CloseListeners();
      return;
    }
    case PayloadType::kReply:
      // Clients answer, servers ask: a reply arriving here is a protocol
      // violation, not damage we can recover from.
      CloseConnection(conn->id);
      return;
  }
}

void IngestServer::EnqueueReply(Connection* conn, const Reply& reply) {
  if (conn->dead) {
    return;
  }
  FR_CHECK_OK(AppendFrame(EncodeReply(reply), &conn->outbox));
  FlushOutbox(conn);
}

void IngestServer::FlushOutbox(Connection* conn) {
  if (conn->dead) {
    return;
  }
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
      CloseConnection(conn->id);
      return;
    }
    offset += static_cast<size_t>(written);
  }
  conn->outbox.erase(0, offset);
  if (conn->outbox.empty() && conn->closing) {
    CloseConnection(conn->id);
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
    UpdateInterest(conn);
  }
}

void IngestServer::UpdateInterest(Connection* conn) {
  (void)poller_.Update(conn->fd.get(), /*want_read=*/!conn->paused,
                       /*want_write=*/conn->want_write);
}

void IngestServer::CloseConnection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  Connection* conn = it->second.get();
  (void)poller_.Remove(conn->fd.get());
  fd_to_conn_.erase(conn->fd.get());
  // Deferred destruction: callers up the stack still hold `conn`, and the
  // open fd parks the number so the kernel cannot hand it to a new accept
  // within this sweep. The graveyard empties once per IoLoop iteration.
  conn->dead = true;
  graveyard_.push_back(std::move(it->second));
  conns_.erase(it);
  // Worker items for this connection may still be in flight; their
  // completions are dropped in DrainCompletions (lookup miss).
}

void IngestServer::DrainCompletions() {
  std::vector<Completion> drained;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    drained.swap(completions_);
  }
  for (const Completion& completion : drained) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      switch (completion.reply.verdict) {
        case Verdict::kAck:
          ++stats_.batches_acked;
          break;
        case Verdict::kNack:
          ++stats_.batches_nacked;
          break;
        case Verdict::kError:
          ++stats_.batches_errored;
          break;
        case Verdict::kOverload:
          break;  // counted at enqueue time
      }
      stats_.records_applied += completion.reply.applied;
      stats_.records_deduped += completion.reply.deduped;
      stats_.records_out_of_window += completion.reply.out_of_window;
    }
    if (completion.acked_ingest) {
      ++ingests_since_checkpoint_;
    }
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      continue;  // connection died before its reply could be sent
    }
    EnqueueReply(it->second.get(), completion.reply);
  }
}

void IngestServer::CloseListeners() {
  for (FdGuard& listener : listeners_) {
    (void)poller_.Remove(listener.get());
    listener.reset();
  }
  listeners_.clear();
}

Status IngestServer::DoCheckpoint(bool final) {
  // The shared durable-chain rule (core::NextCheckpointMode), plus a
  // forced full compaction for the final checkpoint.
  int64_t taken;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    taken = stats_.checkpoints_taken;
  }
  const core::CheckpointMode mode =
      final ? core::CheckpointMode::kFull
            : core::NextCheckpointMode(config_.checkpoint_mode,
                                       config_.checkpoint_compact_every,
                                       checkpoint_base_taken_, taken);
  const bool full = mode == core::CheckpointMode::kFull;
  FR_ASSIGN_OR_RETURN(const std::string blob, aggregator_.Checkpoint(mode));
  std::string framed;
  FR_RETURN_NOT_OK(AppendFrame(blob, &framed));
  if (full) {
    FR_RETURN_NOT_OK(WriteFileAtomically(config_.checkpoint_path, framed));
    checkpoint_base_taken_ = true;
  } else {
    FR_RETURN_NOT_OK(AppendToFile(config_.checkpoint_path, framed));
  }
  ingests_since_checkpoint_ = 0;
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.checkpoints_taken;
  stats_.checkpoint_bytes += static_cast<int64_t>(blob.size());
  if (!full) {
    ++stats_.delta_checkpoints_taken;
    // checkpoint_bytes counts all blobs; the delta split mirrors
    // sim::DeliveryMetrics.
  }
  return Status::OK();
}

void IngestServer::FinishShutdown() {
  // Workers are drained and idle, so this compaction is a quiesced,
  // point-in-time snapshot — the one RestoreFromCheckpointFile callers
  // compare against.
  if (!config_.checkpoint_path.empty()) {
    const Status checkpointed = DoCheckpoint(/*final=*/true);
    if (!checkpointed.ok() && serving_error_.ok()) {
      serving_error_ = checkpointed;
    }
  }
  if (have_shutdown_ack_) {
    const auto it = conns_.find(shutdown_ack_conn_);
    if (it != conns_.end()) {
      Reply reply;
      reply.verdict = serving_error_.ok() ? Verdict::kAck : Verdict::kError;
      reply.seq = shutdown_ack_seq_;
      reply.status = serving_error_.code();
      FR_CHECK_OK(AppendFrame(EncodeReply(reply), &it->second->outbox));
    }
  }
  // Final flush: blocking writes so no queued reply (least of all the
  // shutdown ack) is lost to a full socket buffer.
  for (auto& [conn_id, conn] : conns_) {
    if (conn->outbox.empty()) {
      continue;
    }
    const int flags = ::fcntl(conn->fd.get(), F_GETFL, 0);
    if (flags >= 0) {
      (void)::fcntl(conn->fd.get(), F_SETFL, flags & ~O_NONBLOCK);
    }
    (void)WriteAll(conn->fd.get(), conn->outbox);
  }
  conns_.clear();
  fd_to_conn_.clear();
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
