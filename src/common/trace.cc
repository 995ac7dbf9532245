#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

namespace fedsc {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

using TraceEvent = internal::RawTraceEvent;

struct ThreadLog {
  explicit ThreadLog(int tid_in) : tid(tid_in) {}
  const int tid;
  std::mutex mutex;
  std::vector<TraceEvent> events;
};

class TraceRecorder {
 public:
  static TraceRecorder& Global() {
    // Leaked: thread-pool workers may record until process teardown.
    static TraceRecorder* recorder = new TraceRecorder();
    return *recorder;
  }

  void Record(const char* name, std::string args_json, bool begin) {
    const int64_t now = NowNanos();
    ThreadLog* log = MyLog();
    const double ts =
        static_cast<double>(now - start_ns_.load(std::memory_order_relaxed)) *
        1e-3;
    std::lock_guard<std::mutex> lock(log->mutex);
    log->events.push_back({name, std::move(args_json), ts, begin});
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& log : logs_) {
      std::lock_guard<std::mutex> log_lock(log->mutex);
      log->events.clear();
    }
    start_ns_.store(NowNanos(), std::memory_order_relaxed);
  }

  // Copies every thread's events (tid, events) in tid order.
  std::vector<std::pair<int, std::vector<TraceEvent>>> Snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<int, std::vector<TraceEvent>>> out;
    out.reserve(logs_.size());
    for (auto& log : logs_) {
      std::lock_guard<std::mutex> log_lock(log->mutex);
      out.push_back({log->tid, log->events});
    }
    return out;
  }

 private:
  TraceRecorder() : start_ns_(NowNanos()) {}

  ThreadLog* MyLog() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>(
          static_cast<int>(logs_.size())));
      log = logs_.back().get();
    }
    return log;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<int64_t> start_ns_;
};

std::string RenderArgs(std::initializer_list<TraceArg> args) {
  std::string out;
  for (const TraceArg& arg : args) {
    if (!out.empty()) out += ",";
    out += "\"" + JsonEscape(arg.key.c_str()) + "\":" + arg.json_value;
  }
  return out;
}

// "\"z\":3,\"kind\":\"ssc\"" -> "z=3 kind=ssc" for the summary table.
std::string ArgsDisplay(const std::string& args_json) {
  std::string out;
  for (char c : args_json) {
    if (c == '"') continue;
    if (c == ':') {
      out += '=';
    } else if (c == ',') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

TraceArg::TraceArg(const char* key_in, int64_t value)
    : key(key_in), json_value(std::to_string(value)) {}
TraceArg::TraceArg(const char* key_in, int value)
    : key(key_in), json_value(std::to_string(value)) {}
TraceArg::TraceArg(const char* key_in, uint64_t value)
    : key(key_in), json_value(std::to_string(value)) {}
TraceArg::TraceArg(const char* key_in, double value) : key(key_in) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  json_value = buffer;
}
TraceArg::TraceArg(const char* key_in, const char* value)
    : key(key_in), json_value("\"" + JsonEscape(value) + "\"") {}

namespace internal {
std::vector<std::pair<int, std::vector<RawTraceEvent>>> SnapshotTraceEvents() {
  return TraceRecorder::Global().Snapshot();
}
}  // namespace internal

void EnableTracing(bool on) {
  TraceRecorder::Global();  // construct before anyone can record
  internal::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void ResetTrace() { TraceRecorder::Global().Reset(); }

TraceSpan::~TraceSpan() {
  if (active_) {
    TraceRecorder::Global().Record(name_, std::string(), /*begin=*/false);
  }
}

void TraceSpan::Begin(const char* name) {
  name_ = name;
  active_ = true;
  TraceRecorder::Global().Record(name, std::string(), /*begin=*/true);
}

void TraceSpan::Begin(const char* name,
                      std::initializer_list<TraceArg> args) {
  name_ = name;
  active_ = true;
  TraceRecorder::Global().Record(name, RenderArgs(args), /*begin=*/true);
}

void TraceSpan::End(std::initializer_list<TraceArg> args) {
  if (!active_) return;
  active_ = false;
  TraceRecorder::Global().Record(name_, RenderArgs(args), /*begin=*/false);
}

void WriteChromeTrace(std::ostream& os) {
  const auto logs = TraceRecorder::Global().Snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  char buffer[64];
  for (const auto& [tid, events] : logs) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"fedsc-" << tid << "\"}}";
    for (const TraceEvent& event : events) {
      std::snprintf(buffer, sizeof(buffer), "%.3f", event.ts_micros);
      os << ",\n{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":"
         << "\"fedsc\",\"ph\":\"" << (event.begin ? 'B' : 'E')
         << "\",\"ts\":" << buffer << ",\"pid\":1,\"tid\":" << tid;
      if (!event.args_json.empty()) {
        os << ",\"args\":{" << event.args_json << "}";
      }
      os << "}";
    }
  }
  os << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string ChromeTraceString() {
  std::ostringstream os;
  WriteChromeTrace(os);
  return os.str();
}

Status WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open trace output file " + path);
  }
  WriteChromeTrace(out);
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

std::vector<TraceSpanStats> SummarizeTrace() {
  const auto logs = TraceRecorder::Global().Snapshot();
  std::map<std::string, TraceSpanStats> by_key;
  struct Open {
    const TraceEvent* begin;
  };
  for (const auto& [tid, events] : logs) {
    std::vector<Open> stack;
    for (const TraceEvent& event : events) {
      if (event.begin) {
        stack.push_back({&event});
        continue;
      }
      if (stack.empty()) continue;  // reset mid-span; skip the orphan
      const TraceEvent* begin = stack.back().begin;
      stack.pop_back();
      std::string key = begin->name;
      if (!begin->args_json.empty()) {
        key += " " + ArgsDisplay(begin->args_json);
      }
      const double seconds = (event.ts_micros - begin->ts_micros) * 1e-6;
      TraceSpanStats& stats = by_key[key];
      stats.key = key;
      stats.count += 1;
      stats.total_seconds += seconds;
      stats.max_seconds = std::max(stats.max_seconds, seconds);
    }
  }
  std::vector<TraceSpanStats> out;
  out.reserve(by_key.size());
  for (auto& [key, stats] : by_key) out.push_back(std::move(stats));
  return out;
}

void PrintTraceSummary(std::ostream& os) {
  const std::vector<TraceSpanStats> rows = SummarizeTrace();
  size_t width = 4;  // "span"
  for (const TraceSpanStats& row : rows) {
    width = std::max(width, row.key.size());
  }
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%-*s | %8s | %12s | %12s\n",
                static_cast<int>(width), "span", "count", "total ms",
                "max ms");
  os << buffer;
  os << std::string(width, '-') << "-+----------+--------------+-------------"
     << "-\n";
  for (const TraceSpanStats& row : rows) {
    std::snprintf(buffer, sizeof(buffer),
                  "%-*s | %8lld | %12.3f | %12.3f\n",
                  static_cast<int>(width), row.key.c_str(),
                  static_cast<long long>(row.count),
                  row.total_seconds * 1e3, row.max_seconds * 1e3);
    os << buffer;
  }
}

Status CheckTraceWellFormed() {
  const auto logs = TraceRecorder::Global().Snapshot();
  for (const auto& [tid, events] : logs) {
    std::vector<const TraceEvent*> stack;
    for (const TraceEvent& event : events) {
      if (event.begin) {
        stack.push_back(&event);
      } else if (stack.empty()) {
        return Status::Internal("trace tid " + std::to_string(tid) +
                                ": end event without a matching begin");
      } else {
        stack.pop_back();
      }
    }
    if (!stack.empty()) {
      return Status::Internal("trace tid " + std::to_string(tid) + ": " +
                              std::to_string(stack.size()) +
                              " span(s) never ended (" +
                              std::string(stack.back()->name) + ")");
    }
  }
  return Status::OK();
}

}  // namespace fedsc
