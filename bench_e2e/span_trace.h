// In-memory span recorder for the end-to-end benchmark.
//
// Spans are taken by the benchmark around its own calls into the library's
// public functions, never inside the library, so a later change that
// reworks a layer's internals is still timed at the same boundaries. Each
// span carries a name, start, end, parent span and round id; spans stay in
// memory and are written once, at exit. A span's self time is its duration
// minus the part of its interval that its child spans cover (children may
// run on other threads and overlap each other, so the union is taken).

#ifndef FEDSC_BENCH_E2E_SPAN_TRACE_H_
#define FEDSC_BENCH_E2E_SPAN_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fedsc::e2e {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  // string literal; outlives the trace
  int64_t parent = -1;    // index of the parent span, -1 for a root
  int64_t round = -1;
  int thread = 0;
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  int64_t Begin(const char* name, int64_t parent, int64_t round,
                Clock::time_point start) {
    SpanRecord span;
    span.name = name;
    span.parent = parent;
    span.round = round;
    span.thread = ThreadIndex();
    span.start = start;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = end;
  }

  // Snapshot of every span; call once all spans have ended.
  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  // Chrome trace-event JSON ("X" events, microseconds from the trace's
  // creation) with id, parent, round and self time in each event's args.
  bool WriteChromeJson(const std::string& path) const {
    const std::vector<SpanRecord> spans = Spans();
    const std::vector<double> self = SelfSeconds(spans);
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << Micros(s.start) << ",\"dur\":" << s.seconds() * 1e6
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"round\":" << s.round << ",\"self_us\":" << self[i] * 1e6
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  // Self time of every span: duration minus the union of its children's
  // intervals clipped to it.
  static std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[static_cast<size_t>(spans[i].parent)].push_back(i);
      }
    }
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].seconds() - CoveredSeconds(spans, i, children[i]);
    }
    return self;
  }

  // Length of the union of the `kids` intervals clipped to span `i`.
  static double CoveredSeconds(const std::vector<SpanRecord>& spans, size_t i,
                               const std::vector<size_t>& kids) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
    intervals.reserve(kids.size());
    for (size_t k : kids) {
      const Clock::time_point a = std::max(spans[k].start, spans[i].start);
      const Clock::time_point b = std::min(spans[k].end, spans[i].end);
      if (a < b) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    Clock::time_point reach = spans[i].start;
    for (const auto& [a, b] : intervals) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += std::chrono::duration<double>(b - from).count();
        reach = b;
      }
    }
    return covered;
  }

 private:
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// Times one call. With a Trace it also records a span; without one it is
// just a stopwatch, so traced and untraced runs share one code path.
class Span {
 public:
  Span(Trace* trace, const char* name, int64_t parent, int64_t round)
      : trace_(trace), start_(Clock::now()) {
    if (trace_ != nullptr) id_ = trace_->Begin(name, parent, round, start_);
  }
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent) and returns its duration in seconds.
  double Stop() {
    if (seconds_ < 0.0) {
      const Clock::time_point end = Clock::now();
      seconds_ = std::chrono::duration<double>(end - start_).count();
      if (trace_ != nullptr) trace_->End(id_, end);
    }
    return seconds_;
  }

  int64_t id() const { return id_; }

 private:
  Trace* trace_;
  Clock::time_point start_;
  int64_t id_ = -1;
  double seconds_ = -1.0;
};

}  // namespace fedsc::e2e

#endif  // FEDSC_BENCH_E2E_SPAN_TRACE_H_
