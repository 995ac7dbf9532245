// Process-wide metrics registry: named counters, gauges, and histograms with
// a determinism contract matching the threading model of DESIGN.md.
//
// The paper's headline claims are running-time claims (T = sum_z T^(z) + T_c,
// Section IV-E / VI), so the kernels report *what they computed* — ADMM
// iterations, Jacobi sweeps and rotations, subspace-iteration steps, GEMM
// calls and FLOP estimates, communication bits — not just how long it took.
// Two metric classes keep that reconcilable with the bit-exact threading
// contract:
//
//  * kDeterministic — the value is a pure function of (input, options) and is
//    bit-identical for every num_threads. Counters and histograms only ever
//    accumulate int64 deltas (integer addition is exactly commutative, so
//    relaxed concurrent adds from any interleaving produce the same total);
//    deterministic gauges may only be Set from serial code.
//  * kExecution — describes how the run executed (thread-pool tasks, wall
//    clock, racy last-writer gauges) and is explicitly excluded from the
//    cross-thread-count bit-identity check.
//
// Cost: every instrument mutation starts with one relaxed atomic load of the
// global enabled flag (default off) and returns immediately when disabled —
// no allocation, no locking. Name lookup happens once per call site (cached
// in a function-local static), never on the hot path.

#ifndef FEDSC_COMMON_METRICS_H_
#define FEDSC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace fedsc {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

// The disabled-path check every instrument performs first.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

void EnableMetrics(bool on);
// Zeroes every registered instrument (registrations and kinds are kept).
void ResetMetrics();

enum class MetricKind { kDeterministic, kExecution };

// Monotonic int64 accumulator. Deterministic when every Add is itself a
// deterministic function of the input (see the contract above).
class Counter {
 public:
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Last-writer-wins double. Defaults to the kExecution class because "last"
// is timing-dependent when writers run concurrently; register explicitly as
// kDeterministic only for gauges set from serial code.
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when empty
  int64_t max = 0;
  // (bit_width, count) for non-empty buckets: bucket b holds values v with
  // std::bit_width(v) == b, i.e. 2^(b-1) <= v < 2^b (b = 0 holds v == 0).
  std::vector<std::pair<int, int64_t>> buckets;

  // Percentile estimate for q in [0, 1] from the log2 buckets: walks bucket
  // counts to the rank q*(count-1) and interpolates linearly inside the
  // bucket's value range, clamped to the observed [min, max] (so q=0 and
  // q=1 return min and max exactly). Returns 0 when empty. Deterministic:
  // a pure function of the (integer) snapshot.
  double Percentile(double q) const;
};

// Log2-bucketed histogram of nonnegative int64 samples (negatives clamp to
// 0). All state is integer, so concurrent Records commute bit-exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value);
  HistogramSnapshot Snapshot() const;

 private:
  friend class MetricsRegistry;
  void Reset();
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;            // kDeterministic
  std::map<std::string, int64_t> execution_counters;  // kExecution
  std::map<std::string, double> gauges;               // kDeterministic
  std::map<std::string, double> execution_gauges;     // kExecution
  std::map<std::string, HistogramSnapshot> histograms;  // all deterministic
};

class MetricsRegistry {
 public:
  // The process-wide registry; pre-registers the pipeline's core instrument
  // names so exported JSON always carries them (as zeros) even for runs that
  // never reach a given kernel.
  static MetricsRegistry& Global();

  // Find-or-create by name; the returned reference stays valid for the
  // process lifetime. A kind passed on a later lookup of an existing name is
  // ignored (first registration wins).
  Counter& GetCounter(const std::string& name,
                      MetricKind kind = MetricKind::kDeterministic);
  Gauge& GetGauge(const std::string& name,
                  MetricKind kind = MetricKind::kExecution);
  Histogram& GetHistogram(const std::string& name);

  void Reset();
  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry();

  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    MetricKind kind;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

MetricsSnapshot SnapshotMetrics();
// Flat metrics JSON: {"counters": {...}, "execution_counters": {...},
// "gauges": {...}, "execution_gauges": {...}, "histograms": {...}}.
void WriteMetricsJson(std::ostream& os);
std::string MetricsJsonString();
Status WriteMetricsJsonFile(const std::string& path);

}  // namespace fedsc

// Call-site instrument accessors: one registry lookup ever (function-local
// static), then direct atomic access.
#define FEDSC_METRIC_COUNTER(name)                                     \
  ([]() -> ::fedsc::Counter& {                                         \
    static ::fedsc::Counter& fedsc_counter =                           \
        ::fedsc::MetricsRegistry::Global().GetCounter(name);           \
    return fedsc_counter;                                              \
  }())

#define FEDSC_METRIC_COUNTER_KIND(name, kind)                          \
  ([]() -> ::fedsc::Counter& {                                         \
    static ::fedsc::Counter& fedsc_counter =                           \
        ::fedsc::MetricsRegistry::Global().GetCounter(name, kind);     \
    return fedsc_counter;                                              \
  }())

#define FEDSC_METRIC_GAUGE(name, kind)                                 \
  ([]() -> ::fedsc::Gauge& {                                           \
    static ::fedsc::Gauge& fedsc_gauge =                               \
        ::fedsc::MetricsRegistry::Global().GetGauge(name, kind);       \
    return fedsc_gauge;                                                \
  }())

#define FEDSC_METRIC_HISTOGRAM(name)                                   \
  ([]() -> ::fedsc::Histogram& {                                       \
    static ::fedsc::Histogram& fedsc_histogram =                       \
        ::fedsc::MetricsRegistry::Global().GetHistogram(name);         \
    return fedsc_histogram;                                            \
  }())

#endif  // FEDSC_COMMON_METRICS_H_
