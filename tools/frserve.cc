// frserve: the async FRW ingestion service as a standalone daemon.
//
//   frserve --uds=/tmp/fr.sock --d=64 --k=4 --eps=1.0
//           --checkpoint=/tmp/fr.ckpt --checkpoint-interval-ms=200
//
// Listens on a Unix domain socket and/or TCP, ingests FRS-framed FRW
// batches into a ShardedAggregator (see net/server.h for the protocol and
// threading model), and exits on SIGINT/SIGTERM or a kShutdown control
// frame — after draining, taking the final full checkpoint, and acking.
// With --json the exit path prints one {"bench":"frserve",...} stats line.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "futurerand/common/flags.h"
#include "futurerand/common/json.h"
#include "futurerand/net/server.h"
#include "futurerand/randomizer/randomizer.h"
#include "futurerand/sim/flag_groups.h"

namespace {

using namespace futurerand;

net::IngestServer* g_server = nullptr;

void HandleSignal(int /*signum*/) {
  if (g_server != nullptr) {
    // Atomic store + one self-pipe write per loop: async-signal-safe.
    g_server->RequestStop();
  }
}

int Run(int argc, char** argv) {
  std::string uds;
  std::string host = "127.0.0.1";
  int64_t port = -1;
  int64_t d = 64;
  int64_t k = 4;
  double eps = 1.0;
  double alpha = 0.5;
  std::string randomizer = "future_rand";
  int64_t shards = 0;
  int64_t workers = 2;
  sim::DedupFlags dedup_flags;
  std::string checkpoint;
  int64_t checkpoint_interval_ms = 0;
  sim::CheckpointFlags checkpoint_flags;
  std::string restore;
  bool force_poll = false;
  bool json = false;
  bool help = false;

  FlagParser parser;
  parser.AddString("uds", &uds, "Unix domain socket path to listen on");
  parser.AddString("host", &host, "TCP bind address (with --port)");
  parser.AddInt64("port", &port,
                  "TCP port to listen on (0 = ephemeral, printed on "
                  "startup; -1 = no TCP listener)");
  parser.AddInt64("d", &d, "time periods (power of two)");
  parser.AddInt64("k", &k, "per-user change budget");
  parser.AddDouble("eps", &eps, "privacy budget (0 < eps <= 1)");
  parser.AddDouble("alpha", &alpha,
                   "longitudinal eps_1/eps_perm split in (0, 1); only the "
                   "lgrr | lolh | loloha randomizers read it");
  parser.AddString("randomizer", &randomizer,
                   "future_rand | independent | bun | adaptive | lgrr | "
                   "lolh | loloha — must match the fleet that registers");
  parser.AddInt64("shards", &shards,
                  "aggregator shards (0 = one per worker)");
  parser.AddInt64("workers", &workers,
                  "event-loop threads; each reads, ingests and answers its "
                  "own connections (the server runs exactly this many)");
  dedup_flags.Register(&parser);
  parser.AddString("checkpoint", &checkpoint,
                   "durable checkpoint file (empty = no checkpointing)");
  parser.AddInt64("checkpoint-interval-ms", &checkpoint_interval_ms,
                  "live checkpoint cadence (0 = only on control frames "
                  "and at shutdown)");
  checkpoint_flags.Register(&parser);
  parser.AddString("restore", &restore,
                   "checkpoint file to restore before serving (warm "
                   "restart)");
  parser.AddBool("force-poll", &force_poll,
                 "use the poll(2) backend even where epoll exists");
  parser.AddBool("json", &json,
                 "print one {\"bench\":\"frserve\",...} stats line on exit");
  parser.AddBool("help", &help, "print usage");

  // Every flag error exits 2 with the Status text and usage.
  const auto flag_error = [&parser](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("frserve").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return flag_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("frserve").c_str(), stdout);
    return 0;
  }
  if (uds.empty() && port < 0) {
    return flag_error(Status::InvalidArgument("need --uds and/or --port"));
  }

  net::ServiceConfig config;
  config.protocol.num_periods = d;
  config.protocol.max_changes = k;
  config.protocol.epsilon = eps;
  config.protocol.longitudinal_alpha = alpha;
  const auto kind = rand::ParseRandomizerKind(randomizer);
  if (!kind.ok()) {
    return flag_error(kind.status());
  }
  config.protocol.randomizer = *kind;
  config.num_shards = static_cast<int>(shards);
  config.num_workers = static_cast<int>(workers);
  config.checkpoint_path = checkpoint;
  config.checkpoint_interval_ms = checkpoint_interval_ms;
  config.force_poll = force_poll;
  for (const Status& status :
       {dedup_flags.ToPolicies(&config.dedup, &config.dedup_window),
        checkpoint_flags.ToChain(&config.checkpoint_mode,
                                 &config.checkpoint_compact_every)}) {
    if (!status.ok()) {
      return flag_error(status);
    }
  }
  if (const Status valid = config.Validate(); !valid.ok()) {
    return flag_error(valid);
  }

  auto server = net::IngestServer::Create(config);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  if (!restore.empty()) {
    const Status restored =
        net::RestoreFromCheckpointFile(restore, &(*server)->aggregator());
    if (!restored.ok()) {
      std::fprintf(stderr, "%s\n", restored.ToString().c_str());
      return 1;
    }
    std::printf("frserve restored from %s\n", restore.c_str());
  }
  if (!uds.empty()) {
    const Status listening = (*server)->AddUnixListener(uds);
    if (!listening.ok()) {
      std::fprintf(stderr, "%s\n", listening.ToString().c_str());
      return 1;
    }
    std::printf("frserve listening uds=%s\n", uds.c_str());
  }
  int bound_port = -1;
  if (port >= 0) {
    const auto tcp = (*server)->AddTcpListener(host, static_cast<int>(port));
    if (!tcp.ok()) {
      std::fprintf(stderr, "%s\n", tcp.status().ToString().c_str());
      return 1;
    }
    bound_port = *tcp;
    std::printf("frserve listening tcp=%s:%d\n", host.c_str(), bound_port);
  }

  g_server = server->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // The ready line is the startup barrier scripts wait on. The listeners
  // are bound and queue connections until the loops accept them.
  std::printf("frserve ready (backend=%s workers=%d)\n",
              (*server)->using_epoll() ? "epoll" : "poll",
              config.num_workers);
  std::fflush(stdout);

  // Loop 0 runs on this thread: the process serves on exactly --workers
  // threads.
  const Status served = (*server)->Serve();
  g_server = nullptr;

  const net::ServerStats stats = (*server)->stats();
  if (json) {
    JsonLine line;
    line.Add("bench", "frserve")
        .Add("backend", (*server)->using_epoll() ? "epoll" : "poll")
        .Add("workers", config.num_workers)
        .Add("port", bound_port)
        .Add("connections_accepted", stats.connections_accepted)
        .Add("frames_received", stats.frames_received)
        .Add("batches_acked", stats.batches_acked)
        .Add("batches_nacked", stats.batches_nacked)
        .Add("batches_overloaded", stats.batches_overloaded)
        .Add("batches_errored", stats.batches_errored)
        .Add("records_applied", stats.records_applied)
        .Add("records_deduped", stats.records_deduped)
        .Add("records_out_of_window", stats.records_out_of_window)
        .Add("checkpoints_taken", stats.checkpoints_taken)
        .Add("delta_checkpoints_taken", stats.delta_checkpoints_taken)
        .Add("checkpoint_bytes", stats.checkpoint_bytes);
    std::printf("%s\n", line.Str().c_str());
  } else {
    std::printf(
        "frserve exit: %lld conns, %lld frames, %lld acked, %lld nacked, "
        "%lld overloaded, %lld errored, %lld applied\n",
        static_cast<long long>(stats.connections_accepted),
        static_cast<long long>(stats.frames_received),
        static_cast<long long>(stats.batches_acked),
        static_cast<long long>(stats.batches_nacked),
        static_cast<long long>(stats.batches_overloaded),
        static_cast<long long>(stats.batches_errored),
        static_cast<long long>(stats.records_applied));
  }
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
