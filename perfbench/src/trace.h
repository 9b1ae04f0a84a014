// Span recording for the traced benchmark run.
//
// The benchmark times the library from outside: each call into a layer's
// public function is wrapped in a span (name, start, end, parent span,
// batch id, work items). Spans live in per-thread logs in memory and are
// written out when the run ends. A layer's self time is its span minus
// the part its child spans cover. Spans named "loop.*" are the
// benchmark's own loop structure; the self time of those is the share of
// the blocking path that no layer explains.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "histogram.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same thread's log; -1 = root
  int64_t batch = -1;   // batch id, -1 when the span is not about one batch
  int64_t items = 0;    // work units: reports, clients or user-periods
};

/// One thread's spans, in open order. Used by exactly one thread.
class ThreadLog {
 public:
  int32_t Open(const char* name, int64_t batch, int64_t items);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;  // innermost open span
};

/// Owns every thread's log. Disabled tracers hand out null logs, which
/// make SpanScope a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A fresh log for the calling thread (thread-safe); null when disabled.
  ThreadLog* NewThreadLog();

  /// Writes every span as CSV: thread,index,parent,name,batch,items,
  /// start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

  const std::vector<std::unique_ptr<ThreadLog>>& logs() const {
    return logs_;
  }

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; does nothing when `log` is null.
class SpanScope {
 public:
  SpanScope(ThreadLog* log, const char* name, int64_t batch = -1,
            int64_t items = 0)
      : log_(log), index_(log ? log->Open(name, batch, items) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadLog* log_;
  int32_t index_;
};

/// Per-name totals over all threads.
struct LayerTotals {
  int64_t count = 0;
  int64_t total_ns = 0;  // inclusive span time
  int64_t self_ns = 0;   // minus child spans
  int64_t items = 0;
  Histogram durations;       // inclusive span durations, ns
  Histogram self_durations;  // span durations minus child spans, ns
};

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  int64_t blocking_ns = 0;     // duration of the root "loop.*" spans
  int64_t unexplained_ns = 0;  // self time of "loop.*" spans under them
  double UnexplainedShare() const {
    return blocking_ns > 0 ? static_cast<double>(unexplained_ns) /
                                 static_cast<double>(blocking_ns)
                           : 1.0;
  }
  /// Inclusive ns per item of one layer; 0 when it never ran.
  double NsPerItem(const std::string& name) const;
  const LayerTotals& Get(const std::string& name) const;
};

TraceSummary Summarize(const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
