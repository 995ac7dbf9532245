// Scoped-span tracing across the Fed-SC pipeline.
//
// A span is an RAII begin/end event pair recorded on the calling thread:
//
//   FEDSC_TRACE_SPAN("fedsc/phase1/device", {{"z", z}});
//
// Spans nest naturally (each thread's events form a well-parenthesized
// sequence) and the recorder exports them as Chrome trace-event JSON, which
// loads directly in chrome://tracing and https://ui.perfetto.dev — Phase 1's
// per-device spans land on the worker-thread tracks, making the paper's
// parallel running-time claim (Section IV-E) visible on a timeline.
//
// Cost contract: with tracing disabled (the default) the macro performs one
// relaxed atomic load and touches nothing else — no allocation, no locking,
// and the span's argument list is not even evaluated. Span *timestamps* are
// wall-clock and therefore vary run to run; deterministic accounting belongs
// in the metrics registry (common/metrics.h), not in span durations.
//
// Enable/disable and ResetTrace are meant for quiescent points (before/after
// a run); resetting while spans are open leaves unmatched end events behind,
// which CheckTraceWellFormed will report.

#ifndef FEDSC_COMMON_TRACE_H_
#define FEDSC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"

namespace fedsc {

namespace internal {
extern std::atomic<bool> g_trace_enabled;

// One recorded begin/end event as the per-thread buffers store it. Exposed
// for the span profiler (common/profile.h), which folds the same buffers
// the Chrome exporter reads into inclusive/exclusive time tables.
struct RawTraceEvent {
  const char* name;       // literal passed to the span macro
  std::string args_json;  // "" or "\"z\":3,\"kind\":\"ssc\""
  double ts_micros;
  bool begin;
};

// Copies every thread's events as (tid, events) pairs in tid order.
std::vector<std::pair<int, std::vector<RawTraceEvent>>> SnapshotTraceEvents();
}  // namespace internal

// The single relaxed load on the disabled path.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

void EnableTracing(bool on);
// Drops every recorded event (all threads) and restarts the trace clock.
void ResetTrace();

// One key/value annotation on a span. Only constructed when tracing is
// enabled (the macro gates the argument list behind TraceEnabled()).
struct TraceArg {
  TraceArg(const char* key, int64_t value);
  TraceArg(const char* key, int value);
  TraceArg(const char* key, uint64_t value);
  TraceArg(const char* key, double value);
  TraceArg(const char* key, const char* value);

  std::string key;
  std::string json_value;  // rendered JSON (strings arrive quoted + escaped)
};

class TraceSpan {
 public:
  TraceSpan() = default;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Records the begin event. `name` must outlive the trace (the macros pass
  // string literals).
  void Begin(const char* name);
  void Begin(const char* name, std::initializer_list<TraceArg> args);
  // Records the end event now, carrying args known only once the work is
  // done (trace viewers merge them into the span's). A span not ended this
  // way ends without args when it goes out of scope.
  void End(std::initializer_list<TraceArg> args);

 private:
  bool active_ = false;
  const char* name_ = nullptr;
};

}  // namespace fedsc

#define FEDSC_OBS_CONCAT_INNER(a, b) a##b
#define FEDSC_OBS_CONCAT(a, b) FEDSC_OBS_CONCAT_INNER(a, b)

// Declares a scoped span covering the rest of the enclosing block. Two
// statements by design: the span object must outlive the macro, and Begin
// (which evaluates the argument list) only runs when tracing is enabled.
#define FEDSC_TRACE_SPAN(...)                                       \
  ::fedsc::TraceSpan FEDSC_OBS_CONCAT(fedsc_trace_span_, __LINE__); \
  if (::fedsc::TraceEnabled())                                      \
  FEDSC_OBS_CONCAT(fedsc_trace_span_, __LINE__).Begin(__VA_ARGS__)

namespace fedsc {

// Chrome trace-event JSON ("B"/"E" duration events plus thread-name
// metadata), loadable in chrome://tracing and Perfetto.
void WriteChromeTrace(std::ostream& os);
std::string ChromeTraceString();
Status WriteChromeTraceFile(const std::string& path);

// Aggregated wall-clock per span key. The key is the span name plus its
// rendered args ("fedsc/phase1/device z=3"), so per-device rows come out
// separated — the per-device/per-phase time table of Section VI.
struct TraceSpanStats {
  std::string key;
  int64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};
std::vector<TraceSpanStats> SummarizeTrace();
// Pretty-prints SummarizeTrace() as an aligned table.
void PrintTraceSummary(std::ostream& os);

// Verifies every recorded begin has a matching end with proper nesting on
// every thread (used by tests and the exporter validators).
Status CheckTraceWellFormed();

}  // namespace fedsc

#endif  // FEDSC_COMMON_TRACE_H_
