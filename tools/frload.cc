// frload: load generator for frserve, built to be bit-identical to the
// in-process simulation.
//
//   frload --uds=/tmp/fr.sock --n=2000 --d=32 --k=2 --eps=1.0
//          --corrupt-rate=0.05 --drop-rate=0.02 --dedup
//          --checkpoint=/tmp/fr.ckpt --verify --json
//
// Runs sim::RunPipeline, the period loop sim::RunProtocol runs, with the
// same workload and seeds, into a net::StreamSink: each encoded batch
// rides an FRS stream to frserve, round-robin over --connections sockets,
// and the server's ack/NACK verdicts drive the shared retransmit policy.
//
// --verify closes the loop: after the kShutdown ack (which guarantees the
// server's final quiesced full checkpoint exists), it restores the
// checkpoint into a fresh aggregator, runs the identical protocol
// in-process, and requires bitwise-equal estimates plus equal delivery
// counters. Exit 3 on any mismatch.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "futurerand/common/flags.h"
#include "futurerand/common/json.h"
#include "futurerand/common/threadpool.h"
#include "futurerand/net/client.h"
#include "futurerand/net/server.h"
#include "futurerand/sim/flag_groups.h"
#include "futurerand/sim/pipeline.h"
#include "futurerand/sim/runner.h"
#include "futurerand/sim/workload.h"

namespace {

using namespace futurerand;

#define FRLOAD_REQUIRE_OK(expr)                                  \
  do {                                                           \
    const ::futurerand::Status _st = (expr);                     \
    if (!_st.ok()) {                                             \
      std::fprintf(stderr, "%s\n", _st.ToString().c_str());      \
      return 1;                                                  \
    }                                                            \
  } while (false)

// The delivery counters --verify requires to equal the in-process run's.
struct VerifiedCounter {
  const char* name;
  int64_t sim::DeliveryMetrics::*field;
};
constexpr VerifiedCounter kVerifiedCounters[] = {
    {"records_sent", &sim::DeliveryMetrics::records_sent},
    {"records_dropped", &sim::DeliveryMetrics::records_dropped},
    {"records_duplicated", &sim::DeliveryMetrics::records_duplicated},
    {"records_delayed", &sim::DeliveryMetrics::records_delayed},
    {"records_delivered", &sim::DeliveryMetrics::records_delivered},
    {"records_applied", &sim::DeliveryMetrics::records_applied},
    {"records_deduped", &sim::DeliveryMetrics::records_deduped},
    {"records_out_of_window", &sim::DeliveryMetrics::records_out_of_window},
    {"batches_sent", &sim::DeliveryMetrics::batches_sent},
    {"batches_corrupted", &sim::DeliveryMetrics::batches_corrupted},
    {"batches_checksum_rejected",
     &sim::DeliveryMetrics::batches_checksum_rejected},
    {"batches_retransmitted", &sim::DeliveryMetrics::batches_retransmitted},
    {"registrations_replayed", &sim::DeliveryMetrics::registrations_replayed},
};

int Run(int argc, char** argv) {
  std::string uds;
  std::string host = "127.0.0.1";
  int64_t port = -1;
  int64_t connections = 2;
  std::string protocol_name = "future_rand";
  sim::WorkloadFlags workload_flags;
  int64_t n = 2000;
  int64_t d = 32;
  int64_t k = 2;
  double eps = 1.0;
  int64_t seed = 2;
  int64_t workload_seed = 1;
  int64_t threads = ThreadPool::DefaultThreadCount();
  sim::ChannelFlags channel_flags;
  sim::DedupFlags dedup_flags;
  std::string checkpoint;
  bool do_shutdown = true;
  bool verify = false;
  bool json = false;
  bool help = false;

  FlagParser parser;
  parser.AddString("uds", &uds, "connect to this Unix domain socket");
  parser.AddString("host", &host, "TCP host (with --port)");
  parser.AddInt64("port", &port, "TCP port (-1 = use --uds)");
  parser.AddInt64("connections", &connections,
                  "sockets to multiplex ticks over (round-robin; delivery "
                  "stays synchronous per batch, so the fault sequence is "
                  "connection-count independent)");
  parser.AddString("protocol", &protocol_name,
                   "future_rand | independent | bun | adaptive | lgrr | "
                   "lolh | loloha");
  workload_flags.Register(&parser);
  parser.AddInt64("n", &n, "number of users");
  parser.AddInt64("d", &d, "time periods (power of two; must match frserve)");
  parser.AddInt64("k", &k, "per-user change budget (must match frserve)");
  parser.AddDouble("eps", &eps, "privacy budget (must match frserve)");
  parser.AddInt64("seed", &seed, "protocol seed (fleet + channel)");
  parser.AddInt64("workload-seed", &workload_seed, "workload seed");
  parser.AddInt64("threads", &threads,
                  "local worker threads (fleet advance + verify run)");
  channel_flags.Register(&parser);
  dedup_flags.Register(&parser);
  parser.AddString("checkpoint", &checkpoint,
                   "the server's checkpoint file; --verify restores it "
                   "after shutdown and compares estimates");
  parser.AddBool("shutdown", &do_shutdown,
                 "send a kShutdown control frame when done (the ack "
                 "guarantees the final checkpoint)");
  parser.AddBool("verify", &verify,
                 "after shutdown, restore the server checkpoint and "
                 "require bitwise-equal estimates + equal delivery "
                 "counters vs the identical in-process run (exit 3 on "
                 "mismatch)");
  parser.AddBool("json", &json,
                 "print one {\"bench\":\"frload\",...} line");
  parser.AddBool("help", &help, "print usage");

  // Every flag error exits 2 with the Status text and usage, before any
  // socket traffic.
  const auto flag_error = [&parser](const Status& status) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage("frload").c_str());
    return 2;
  };
  if (const Status parsed = parser.Parse(argc, argv); !parsed.ok()) {
    return flag_error(parsed);
  }
  if (help) {
    std::fputs(parser.Usage("frload").c_str(), stdout);
    return 0;
  }
  if (uds.empty() && port < 0) {
    return flag_error(Status::InvalidArgument("need --uds or --port"));
  }
  if (connections < 1 || threads < 1) {
    return flag_error(Status::InvalidArgument(
        "--connections and --threads must be >= 1"));
  }
  if (verify && checkpoint.empty()) {
    return flag_error(Status::InvalidArgument(
        "--verify needs --checkpoint (the server's checkpoint file)"));
  }
  if (verify && !do_shutdown) {
    return flag_error(Status::InvalidArgument(
        "--verify needs --shutdown (only the shutdown checkpoint is "
        "quiesced)"));
  }

  const auto protocol = sim::ParseProtocolKind(protocol_name);
  if (!protocol.ok()) {
    return flag_error(protocol.status());
  }
  const auto randomizer = sim::RandomizerForProtocol(*protocol);
  if (!randomizer.ok()) {
    return flag_error(randomizer.status());
  }

  core::ProtocolConfig config;
  config.num_periods = d;
  config.max_changes = k;
  config.epsilon = eps;
  config.randomizer = *randomizer;

  // The same FaultOptions the in-process verify run gets.
  sim::FaultOptions faults;
  for (const Status& status :
       {channel_flags.ApplyTo(&faults),
        dedup_flags.ToPolicies(&faults.dedup, &faults.dedup_window)}) {
    if (!status.ok()) {
      return flag_error(status);
    }
  }
  for (const Status& status : {faults.Validate(), config.Validate()}) {
    if (!status.ok()) {
      return flag_error(status);
    }
  }

  const auto workload_config = workload_flags.ToConfig(n, d, k);
  if (!workload_config.ok()) {
    return flag_error(workload_config.status());
  }
  const auto workload = sim::Workload::Generate(
      *workload_config, static_cast<uint64_t>(workload_seed));
  FRLOAD_REQUIRE_OK(workload.status());

  ThreadPool pool(static_cast<int>(threads));
  const auto protocol_seed = static_cast<uint64_t>(seed);

  // Connect the socket pool.
  std::vector<net::StreamClient> clients;
  for (int64_t c = 0; c < connections; ++c) {
    auto client = uds.empty()
                      ? net::StreamClient::ConnectTcp(
                            host, static_cast<int>(port))
                      : net::StreamClient::ConnectUnix(uds);
    FRLOAD_REQUIRE_OK(client.status());
    clients.push_back(std::move(*client));
  }

  const auto start = std::chrono::steady_clock::now();
  net::StreamSink sink(clients, faults);
  const auto run = sim::RunPipeline(config, *workload, protocol_seed, &pool,
                                    faults, sink);
  FRLOAD_REQUIRE_OK(run.status());
  const sim::DeliveryMetrics& delivery = *run;

  if (do_shutdown) {
    // The ack arrives after the drain and the final quiesced full
    // checkpoint — from here the checkpoint file is complete.
    FRLOAD_REQUIRE_OK(clients[0].SendControl(net::ControlOp::kShutdown));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  int verify_result = -1;  // -1 = not run, 1 = pass, 0 = fail
  if (verify) {
    bool all_ok = true;
    const auto local = sim::RunProtocol(*protocol, config, *workload,
                                        protocol_seed, &pool,
                                        /*num_shards=*/0, faults);
    FRLOAD_REQUIRE_OK(local.status());
    auto restored = core::ShardedAggregator::ForProtocol(
        config, /*num_shards=*/1, faults.dedup, faults.dedup_window);
    FRLOAD_REQUIRE_OK(restored.status());
    FRLOAD_REQUIRE_OK(net::RestoreFromCheckpointFile(checkpoint, &*restored));
    const auto remote_estimates = config.consistent_estimation
                                      ? restored->EstimateAllConsistent()
                                      : restored->EstimateAll();
    FRLOAD_REQUIRE_OK(remote_estimates.status());
    if (remote_estimates->size() != local->estimates.size()) {
      std::fprintf(stderr, "verify mismatch: estimate lengths differ\n");
      all_ok = false;
    } else {
      for (size_t t = 0; t < local->estimates.size(); ++t) {
        if ((*remote_estimates)[t] != local->estimates[t]) {
          std::fprintf(stderr,
                       "verify mismatch: estimate[%zu] remote=%.17g "
                       "in-process=%.17g\n",
                       t, (*remote_estimates)[t], local->estimates[t]);
          all_ok = false;
          break;
        }
      }
    }
    for (const auto& [name, field] : kVerifiedCounters) {
      const int64_t remote = delivery.*field;
      const int64_t in_process = local->delivery.*field;
      if (remote != in_process) {
        std::fprintf(stderr,
                     "verify mismatch: %s remote=%lld in-process=%lld\n",
                     name, static_cast<long long>(remote),
                     static_cast<long long>(in_process));
        all_ok = false;
      }
    }
    verify_result = all_ok ? 1 : 0;
  }

  if (json) {
    JsonLine line;
    line.Add("bench", "frload")
        .Add("protocol", protocol_name)
        .Add("workload", workload_flags.workload)
        .Add("n", n)
        .Add("d", d)
        .Add("k", k)
        .Add("eps", eps)
        .Add("connections", connections)
        .Add("wire_version", 2)
        .Add("records_sent", delivery.records_sent)
        .Add("records_delivered", delivery.records_delivered)
        .Add("records_applied", delivery.records_applied)
        .Add("records_deduped", delivery.records_deduped)
        .Add("batches_sent", delivery.batches_sent)
        .Add("batches_corrupted", delivery.batches_corrupted)
        .Add("batches_checksum_rejected", delivery.batches_checksum_rejected)
        .Add("batches_retransmitted", delivery.batches_retransmitted)
        .Add("wall_seconds", wall)
        .Add("records_per_sec",
             wall > 0.0 ? static_cast<double>(delivery.records_sent) / wall
                        : 0.0)
        .Add("verify", static_cast<int64_t>(verify_result));
    std::printf("%s\n", line.Str().c_str());
  } else {
    std::printf("frload: %s\n", delivery.ToString().c_str());
    if (verify_result >= 0) {
      std::printf("verify: %s\n", verify_result == 1 ? "PASS" : "FAIL");
    }
  }
  return verify_result == 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
