// The async FRW ingestion service: a non-blocking, epoll-driven (poll
// fallback) server that accepts FRS-framed FRW batches over TCP and Unix
// domain sockets and feeds them to the in-process core::ShardedAggregator.
//
// Threading model (docs/ARCHITECTURE.md "Service"): num_workers identical
// event loops, one thread each, and no other thread. Every loop has its
// own Poller and wake pipe and owns the connections pinned to it
// (conn id mod N). In one pass on that thread it reads a frame
// (tolerating short reads via FrameParser), ingests it with
// IngestEncoded, and sends the reply (tolerating partial writes via a
// per-connection outbox), so a batch never crosses a thread and one
// connection's batches ingest strictly in order — the property the NACK
// retransmit protocol and kStrict dedup rely on. Separate connections
// ingest concurrently, sharded by the aggregator's per-shard mutexes.
// Loop 0 also owns the listeners and the checkpoint timer; it hands each
// accepted fd to its loop once per connection.
//
// Per batch the server answers one reply frame: kAck with the ingest
// outcome, kNack when the receiver's own verdict is kDataLoss (the sender
// retransmits under sim::RetransmitLoop, the in-process policy), kError
// for non-retryable failures. The kernel socket buffer is the queue: a
// connection whose outbox exceeds max_write_buffer_bytes stops being read
// until it drains, and its sender blocks on a full socket.
//
// Durability: with a checkpoint path configured, loop 0 checkpoints on a
// timer and any loop on a kCheckpoint control frame, one at a time —
// full blobs rewrite the file atomically (temp + rename), delta blobs
// append — and shutdown always ends with a quiesced full compaction, so
// RestoreFromCheckpointFile needs no shard-count match.

#ifndef FUTURERAND_NET_SERVER_H_
#define FUTURERAND_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/poller.h"
#include "futurerand/net/socket.h"

namespace futurerand::net {

/// Everything an IngestServer is built from. Validated at Create.
struct ServiceConfig {
  core::ProtocolConfig protocol;
  /// Aggregator shards; 0 = one per worker.
  int num_shards = 0;
  /// Event-loop threads (>= 1); each reads, ingests and answers its own
  /// connections.
  int num_workers = 2;
  core::DedupPolicy dedup = core::DedupPolicy::kStrict;
  core::DedupWindowPolicy dedup_window;
  /// Outbox bytes above which a connection stops being read until its
  /// replies drain (>= 1).
  size_t max_write_buffer_bytes = 4u << 20;
  /// Durable checkpoint file; empty disables checkpointing entirely
  /// (including the final one).
  std::string checkpoint_path;
  /// Timer cadence; 0 = only on ControlOp::kCheckpoint and at shutdown.
  /// Timer checkpoints are live (concurrent ingest may land partially;
  /// the shutdown compaction is quiesced and exact).
  int64_t checkpoint_interval_ms = 0;
  core::CheckpointMode checkpoint_mode = core::CheckpointMode::kFull;
  /// Under kDelta, every this-many-th checkpoint is a full compaction
  /// that rewrites the file (>= 1); mirrors sim::FaultOptions.
  int64_t checkpoint_compact_every = 8;
  /// Forces the poll(2) backend even where epoll exists (tests).
  bool force_poll = false;

  Status Validate() const;
};

/// Monotonic counters, readable from any thread while the server runs.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t frames_received = 0;
  int64_t batches_acked = 0;
  int64_t batches_nacked = 0;      // kDataLoss verdicts (checksum NACKs)
  // Always 0: no server path answers kOverload any more. Kept because
  // frserve --json prints it and perfbench's server.overload_ratio
  // reads that key.
  int64_t batches_overloaded = 0;
  // Non-retryable ingest failures, and batches refused while shutting
  // down; so frames_received = acked + nacked + errored + control frames.
  int64_t batches_errored = 0;
  int64_t records_applied = 0;
  int64_t records_deduped = 0;
  int64_t records_out_of_window = 0;
  int64_t checkpoints_taken = 0;
  int64_t delta_checkpoints_taken = 0;
  int64_t checkpoint_bytes = 0;
};

/// One server instance: Create -> Add*Listener -> Start -> (serve) ->
/// Join. Stop arrives either as a ControlOp::kShutdown frame from a
/// client (acked after the drain, as the connection's last frame) or via
/// RequestStop() from any thread. Shutdown stops every loop after its
/// current pass (batches already read are answered, unread bytes stay in
/// the socket), takes the final full checkpoint, then exits.
class IngestServer {
 public:
  static Result<std::unique_ptr<IngestServer>> Create(
      const ServiceConfig& config);

  /// Joins outstanding threads (issuing RequestStop first if needed).
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds a TCP listener; returns the actual port (port 0 = ephemeral).
  /// Call before Start.
  Result<int> AddTcpListener(const std::string& host, int port);

  /// Binds a Unix-domain listener at `path`. Call before Start.
  Status AddUnixListener(const std::string& path);

  /// Spawns the num_workers event loops. Requires at least one listener.
  Status Start();

  /// Start + Join with loop 0 on the calling thread, so the server uses
  /// exactly num_workers threads, the caller's included.
  Status Serve();

  /// Initiates graceful shutdown from any thread (idempotent).
  void RequestStop();

  /// Blocks until the server has shut down (after a kShutdown control
  /// frame or RequestStop) and returns the first serving error, if any.
  Status Join();

  /// The live aggregator. Concurrent queries are safe while serving;
  /// mutation (Restore) is only safe before Start or after Join.
  core::ShardedAggregator& aggregator() { return aggregator_; }
  const core::ShardedAggregator& aggregator() const { return aggregator_; }

  ServerStats stats() const;

  bool using_epoll() const { return loops_.front()->poller.using_epoll(); }

 private:
  struct Connection {
    uint64_t id = 0;
    FdGuard fd;
    FrameParser parser;
    std::string outbox;
    uint64_t frames_received = 0;  // assigns reply sequence numbers
    bool want_write = false;       // current poller write interest
    bool paused = false;           // read interest dropped (backpressure)
    bool closing = false;          // close once the outbox drains
    bool dead = false;             // unlinked; destroyed after this event
                                   // sweep (deferred so in-sweep pointers
                                   // stay valid)
  };

  // One event loop. Everything but `mutex` and what it guards belongs to
  // the loop's thread (and to loop 0 once every other loop has exited).
  struct Loop {
    explicit Loop(Poller p) : poller(std::move(p)) {}

    int index = 0;
    Poller poller;
    FdGuard wake_read;
    FdGuard wake_write;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;  // by fd
    // Connections unlinked mid-sweep; their fds close when the sweep ends.
    std::vector<std::unique_ptr<Connection>> graveyard;
    std::vector<std::string> frames;  // reused by HandleReadable

    std::mutex mutex;
    // Accepted by loop 0, not yet registered with this loop's poller.
    std::vector<std::pair<uint64_t, FdGuard>> handoff;
    ServerStats stats;  // checkpoint fields unused (see checkpoint_stats_)

    std::thread thread;  // runs RunLoop on this loop
  };

  IngestServer(const ServiceConfig& config,
               core::ShardedAggregator aggregator);

  // Checks and spawns loops 1..N-1; the caller runs loop 0.
  Status Launch();
  void RunLoop(Loop* loop);
  void Wake(Loop* loop);
  void AcceptAll(int listener_fd);
  void AdoptHandoffs(Loop* loop);
  void AddConnection(Loop* loop, uint64_t id, FdGuard fd);
  void HandleReadable(Loop* loop, Connection* conn);
  void ProcessFrame(Loop* loop, Connection* conn, std::string payload);
  void FlushOutbox(Loop* loop, Connection* conn);
  void UpdateInterest(Loop* loop, Connection* conn);
  void CloseConnection(Loop* loop, Connection* conn);
  void CloseListeners();
  // Records the first serving error and stops every loop.
  void Fail(const Status& status);
  // `final` forces a quiesced full compaction (shutdown path).
  Status DoCheckpoint(bool final);
  void FinishShutdown();

  ServiceConfig config_;
  core::ShardedAggregator aggregator_;

  // Loop-0-only state.
  std::vector<FdGuard> listeners_;
  uint64_t next_conn_id_ = 0;
  std::chrono::steady_clock::time_point next_checkpoint_;

  bool started_ = false;
  bool joined_ = false;
  std::atomic<bool> stop_requested_{false};
  // Batches ingested since the last checkpoint began; the timer skips
  // idle intervals.
  std::atomic<int64_t> ingests_since_checkpoint_{0};

  // Serializes checkpoints (timer and control frames, from any loop).
  mutable std::mutex checkpoint_mutex_;
  bool checkpoint_base_taken_ = false;
  ServerStats checkpoint_stats_;  // only the checkpoint fields

  std::mutex shutdown_mutex_;
  bool have_shutdown_ack_ = false;
  int shutdown_ack_loop_ = 0;
  uint64_t shutdown_ack_conn_ = 0;
  uint64_t shutdown_ack_seq_ = 0;
  Status serving_error_;

  // Declared last, so destroyed first: no loop thread outlives the
  // state it uses.
  std::vector<std::unique_ptr<Loop>> loops_;
};

/// Rebuilds aggregator state from an IngestServer checkpoint file: a
/// sequence of FRS frames, each one core::ShardedAggregator checkpoint
/// blob, restored in order (full base, then deltas). The shutdown path
/// always leaves a single full blob, which restores onto any shard count.
Status RestoreFromCheckpointFile(const std::string& path,
                                 core::ShardedAggregator* aggregator);

}  // namespace futurerand::net

#endif  // FUTURERAND_NET_SERVER_H_
