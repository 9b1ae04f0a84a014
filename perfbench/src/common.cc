#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

using futurerand::Result;
using futurerand::Status;

void RunReport::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void RunReport::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

std::string RunReport::Json() const {
  std::string out = "{\"correct\": ";
  out += failures_ == 0 ? "true" : "false";
  const int64_t attempted = std::max<int64_t>(attempted_, 1);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failures_ == 0 ? 0 : attempted);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"throughput_rps", "1/s"},
    {"latency_mean_ms", "ms"},
    {"cpu_s_per_mreport", "s"},
    {"peak_rss_mb", "MiB"},
    {"recovery_s", "s"},
    {"state_bytes_per_client", "bytes"},
    {"wire_bytes_per_report", "bytes"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"workload.states_ns_per_user_period", "ns"},
    {"fleet.create_s", "s"},
    {"fleet.tick_ns_per_user_period", "ns"},
    {"fleet.reports_per_user_period", "count"},
    {"wire.encode_ns_per_report", "ns"},
    {"wire.decode_ns_per_report", "ns"},
    {"wire.bytes_per_report", "bytes"},
    {"aggregator.ingest_ns_per_report", "ns"},
    {"aggregator.apply_ns_per_report", "ns"},
    {"aggregator.ingest_serial_ns_per_report", "ns"},
    {"aggregator.register_ns_per_client", "ns"},
    {"aggregator.state_bytes_per_client", "bytes"},
    {"aggregator.dedup_ratio", "ratio"},
    {"query.estimate_at_us_p50", "us"},
    {"query.estimate_at_us_p99", "us"},
    {"query.window_delta_us_p50", "us"},
    {"snapshot.checkpoint_full_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.full_bytes_per_client", "bytes"},
    {"snapshot.file_restore_ms", "ms"},
    {"channel.retransmit_ratio", "ratio"},
    {"channel.duplicate_ratio", "ratio"},
    {"net.call_us_p50", "us"},
    {"net.call_us_p99", "us"},
    {"net.wait_us_p50", "us"},
    {"net.wait_us_p99", "us"},
    {"server.overload_ratio", "ratio"},
    {"server.nack_ratio", "ratio"},
    {"server.checkpoints_taken", "count"},
    {"server.checkpoint_bytes", "bytes"},
    {"trace.unexplained_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

Status AddMetrics(const std::vector<MetricSpec>& specs, const Figures& figures,
                  RunReport* report) {
  for (const MetricSpec& spec : specs) {
    const auto it = figures.find(spec.name);
    if (it == figures.end()) {
      return Status::Internal(std::string("metric not measured: ") +
                              spec.name);
    }
    report->Add(spec.name, it->second, spec.unit);
  }
  return Status::OK();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double TrimmedMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * trim);
}

Result<double> Quantile(const char* label, const Histogram& histogram,
                        double q, double scale) {
  const auto value = histogram.Percentile(q);
  std::printf("  %s p%g = %s (samples %lld, beyond %lld)\n", label, q * 100,
              value ? std::to_string(*value * scale).c_str() : "n/a",
              static_cast<long long>(histogram.count()),
              static_cast<long long>(histogram.Beyond(q)));
  if (!value) {
    return Status::FailedPrecondition(
        std::string(label) + ": too few samples for the percentile");
  }
  return *value * scale;
}

Result<double> GroupedQuantile(const char* label,
                               std::span<const int64_t> samples, double q,
                               double scale) {
  std::vector<double> values;
  for (size_t begin = 0; begin < samples.size(); begin += kLatencyGroup) {
    const size_t end = std::min(begin + kLatencyGroup, samples.size());
    if (end - begin < kLatencyGroup && begin > 0) {
      break;
    }
    Histogram group;
    for (size_t i = begin; i < end; ++i) {
      group.Add(samples[i]);
    }
    const auto value = group.Percentile(q);
    if (!value) {
      return Status::FailedPrecondition(
          std::string(label) + ": too few samples for the percentile");
    }
    values.push_back(*value * scale);
  }
  if (values.empty()) {
    return Status::FailedPrecondition(std::string(label) + ": no samples");
  }
  const double median = Median(values);
  std::printf("  %s p%g = %.6g (median of %zu groups; %zu samples)\n", label,
              q * 100, median, values.size(), samples.size());
  return median;
}

Result<double> BatchLatencyMs(std::span<const int64_t> samples) {
  for (const double q : {0.5, 0.9, 0.99}) {
    FR_RETURN_NOT_OK(
        GroupedQuantile("batch latency ms", samples, q, 1e-6).status());
  }
  std::vector<double> ms(samples.begin(), samples.end());
  for (double& value : ms) {
    value *= 1e-6;
  }
  const double mean = TrimmedMean(std::move(ms));
  std::printf("  batch latency ms trimmed mean = %.6g (%zu samples)\n", mean,
              samples.size());
  return mean;
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Result<double> PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM in " + path);
}

Result<double> ProcessCpuSeconds(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream file(path);
  std::string stat;
  std::getline(file, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return Status::NotFound("cannot parse " + path);
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

StateStepper::StateStepper(const futurerand::sim::Workload& workload)
    : workload_(workload),
      states_(static_cast<size_t>(workload.num_users()), 0),
      next_change_(static_cast<size_t>(workload.num_users()), 0) {}

void StateStepper::Advance(int64_t t) {
  for (int64_t u = 0; u < workload_.num_users(); ++u) {
    const auto i = static_cast<size_t>(u);
    const std::vector<int64_t>& changes = workload_.trace(u).change_times;
    if (next_change_[i] < changes.size() && changes[next_change_[i]] == t) {
      states_[i] = static_cast<int8_t>(1 - states_[i]);
      ++next_change_[i];
    }
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
