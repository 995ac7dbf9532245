#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace fedsc {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void EnableMetrics(bool on) {
  // Touch the registry first so pre-registration happens before any
  // instrument can observe the enabled flag.
  MetricsRegistry::Global();
  internal::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void ResetMetrics() { MetricsRegistry::Global().Reset(); }

void Histogram::Record(int64_t value) {
  if (!MetricsEnabled()) return;
  const int64_t v = value < 0 ? 0 : value;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  const int bucket = std::bit_width(static_cast<uint64_t>(v));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count - 1);  // 0-based rank
  int64_t below = 0;
  for (const auto& [bits, n] : buckets) {
    if (target < static_cast<double>(below + n)) {
      // Bucket value range: b = 0 holds only 0; b > 0 holds [2^(b-1), 2^b-1].
      const double lo = bits == 0 ? 0.0 : std::ldexp(1.0, bits - 1);
      const double hi = bits == 0 ? 0.0 : std::ldexp(1.0, bits) - 1.0;
      const double frac =
          n <= 1 ? 0.0 : (target - static_cast<double>(below)) /
                             static_cast<double>(n - 1);
      double value = lo + (hi - lo) * frac;
      value = std::max(value, static_cast<double>(min));
      value = std::min(value, static_cast<double>(max));
      return value;
    }
    below += n;
  }
  return static_cast<double>(max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = out.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  out.max = out.count == 0 ? 0 : max_.load(std::memory_order_relaxed);
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) out.buckets.push_back({b, n});
  }
  return out;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so instruments outlive thread-pool workers still draining at
  // process exit.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  // Core pipeline instruments, pre-registered so metrics JSON always carries
  // the full schema. See DESIGN.md "Observability".
  for (const char* name :
       {"linalg.gemm.calls", "linalg.gemm.flops", "linalg.gemm.bytes",
        "linalg.gemm.thin_calls",
        "linalg.syrk.calls", "linalg.syrk.flops", "linalg.syrk.bytes",
        "linalg.gemv.calls",
        "linalg.gemv.flops", "linalg.qr.calls", "linalg.qr.flops",
        "linalg.svd.calls", "linalg.svd.sweeps", "linalg.svd.rotations",
        "linalg.basis.gram", "linalg.basis.looped",
        "linalg.eig.calls", "linalg.eig.tridiag_flops", "linalg.eig.vectors",
        "linalg.subspace_iteration.calls",
        "linalg.subspace_iteration.iterations", "sc.ssc_admm.solves",
        "sc.ssc_admm.iterations", "sc.ssc_admm.converged",
        "sc.ssc_admm.rho_updates", "sc.ssc_admm.reduced_solves",
        "sc.ssc_admm.warm_starts",
        "cluster.kmeans.runs", "cluster.kmeans.restarts",
        "cluster.kmeans.iterations", "fed.comm.uplink_values",
        "fed.comm.uplink_bits", "fed.comm.uplink_wire_bytes",
        "fed.comm.downlink_values", "fed.comm.retries", "fed.comm.timeouts",
        "fed.comm.rounds", "fedsc.runs", "fedsc.devices",
        "fedsc.local_clusters", "fedsc.total_samples"}) {
    counters_.emplace(name, Entry<Counter>{std::make_unique<Counter>(),
                                           MetricKind::kDeterministic});
  }
  for (const char* name :
       {"threadpool.tasks_scheduled", "threadpool.tasks_executed"}) {
    counters_.emplace(name, Entry<Counter>{std::make_unique<Counter>(),
                                           MetricKind::kExecution});
  }
  gauges_.emplace("fed.comm.downlink_bits",
                  Entry<Gauge>{std::make_unique<Gauge>(),
                               MetricKind::kDeterministic});
  gauges_.emplace("sc.ssc_admm.last_residual",
                  Entry<Gauge>{std::make_unique<Gauge>(),
                               MetricKind::kExecution});
  for (const char* name :
       {"sc.ssc_admm.iterations_per_solve", "sc.ssc_admm.dictionary_rows"}) {
    histograms_.emplace(name, std::make_unique<Histogram>());
  }
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, Entry<Counter>{std::make_unique<Counter>(), kind})
             .first;
  }
  return *it->second.instrument;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, Entry<Gauge>{std::make_unique<Gauge>(), kind})
             .first;
  }
  return *it->second.instrument;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : counters_) entry.instrument->Reset();
  for (auto& [name, entry] : gauges_) entry.instrument->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, entry] : counters_) {
    (entry.kind == MetricKind::kDeterministic ? out.counters
                                              : out.execution_counters)
        .emplace(name, entry.instrument->value());
  }
  for (const auto& [name, entry] : gauges_) {
    (entry.kind == MetricKind::kDeterministic ? out.gauges
                                              : out.execution_gauges)
        .emplace(name, entry.instrument->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace(name, histogram->Snapshot());
  }
  return out;
}

MetricsSnapshot SnapshotMetrics() {
  return MetricsRegistry::Global().Snapshot();
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  // JSON has no inf/nan literals; clamp to null-safe strings is overkill
  // here — the pipeline never emits them — but guard anyway.
  std::string s = buffer;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

template <typename Map, typename Render>
void WriteJsonObject(std::ostream& os, const char* key, const Map& map,
                     Render render, bool trailing_comma) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << render(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

void WriteMetricsJson(std::ostream& os) {
  const MetricsSnapshot snapshot = SnapshotMetrics();
  os << "{\n";
  auto render_int = [](int64_t v) { return std::to_string(v); };
  auto render_double = [](double v) { return JsonDouble(v); };
  auto render_histogram = [](const HistogramSnapshot& h) {
    std::string out = "{\"count\": " + std::to_string(h.count) +
                      ", \"sum\": " + std::to_string(h.sum) +
                      ", \"min\": " + std::to_string(h.min) +
                      ", \"max\": " + std::to_string(h.max) +
                      ", \"p50\": " + JsonDouble(h.Percentile(0.50)) +
                      ", \"p90\": " + JsonDouble(h.Percentile(0.90)) +
                      ", \"p99\": " + JsonDouble(h.Percentile(0.99)) +
                      ", \"log2_buckets\": {";
    bool first = true;
    for (const auto& [bits, count] : h.buckets) {
      out += (first ? "" : ", ");
      out += "\"" + std::to_string(bits) + "\": " + std::to_string(count);
      first = false;
    }
    out += "}}";
    return out;
  };
  WriteJsonObject(os, "counters", snapshot.counters, render_int, true);
  WriteJsonObject(os, "execution_counters", snapshot.execution_counters,
                  render_int, true);
  WriteJsonObject(os, "gauges", snapshot.gauges, render_double, true);
  WriteJsonObject(os, "execution_gauges", snapshot.execution_gauges,
                  render_double, true);
  WriteJsonObject(os, "histograms", snapshot.histograms, render_histogram,
                  false);
  os << "}\n";
}

std::string MetricsJsonString() {
  std::ostringstream os;
  WriteMetricsJson(os);
  return os.str();
}

Status WriteMetricsJsonFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open metrics output file " + path);
  }
  WriteMetricsJson(out);
  out.flush();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace fedsc
