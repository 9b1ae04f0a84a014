#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int32_t ThreadLog::Open(const char* name, int64_t batch, int64_t items) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.batch = batch;
  span.items = items;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void ThreadLog::Close(int32_t index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

ThreadLog* Tracer::NewThreadLog() {
  if (!enabled_) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  return logs_.back().get();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "thread,index,parent,name,batch,items,start_ns,end_ns\n");
  for (size_t t = 0; t < logs_.size(); ++t) {
    const std::vector<Span>& spans = logs_[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(file, "%zu,%zu,%d,%s,%lld,%lld,%lld,%lld\n", t, i,
                   s.parent, s.name, static_cast<long long>(s.batch),
                   static_cast<long long>(s.items),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

double TraceSummary::NsPerItem(const std::string& name) const {
  const LayerTotals& totals = Get(name);
  return totals.items > 0 ? static_cast<double>(totals.total_ns) /
                                static_cast<double>(totals.items)
                          : 0.0;
}

const LayerTotals& TraceSummary::Get(const std::string& name) const {
  static const LayerTotals kEmpty;
  const auto it = layers.find(name);
  return it == layers.end() ? kEmpty : it->second;
}

namespace {

bool IsLoop(const char* name) { return std::strncmp(name, "loop.", 5) == 0; }

}  // namespace

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary summary;
  for (const auto& log : tracer.logs()) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<int32_t> root_of(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
        root_of[i] = root_of[static_cast<size_t>(s.parent)];
      } else {
        root_of[i] = static_cast<int32_t>(i);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t duration = s.end_ns - s.start_ns;
      const int64_t self = duration - child_ns[i];
      LayerTotals& totals = summary.layers[s.name];
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += self;
      totals.items += s.items;
      totals.durations.Add(duration);
      totals.self_durations.Add(self);
      // Only trees rooted at a loop span are on the blocking path; set-up
      // and recovery spans lie outside the timed passes.
      const Span& root = spans[static_cast<size_t>(root_of[i])];
      if (!IsLoop(root.name)) {
        continue;
      }
      if (s.parent < 0) {
        summary.blocking_ns += duration;
      }
      if (IsLoop(s.name)) {
        summary.unexplained_ns += self;
      }
    }
  }
  return summary;
}

}  // namespace perfbench
