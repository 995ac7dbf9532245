// Observability subsystem tests: the metrics determinism contract (every
// kDeterministic instrument bit-identical across thread counts on a full
// Fed-SC run), trace well-formedness (every begin has a matching end on
// every thread), the exporters, and the near-zero disabled path.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/isa.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "graph/components.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "sc/affinity.h"
#include "sc/ssc_admm.h"

namespace fedsc {
namespace {

// The FedScDeterminismTest federation: 4 subspaces over 6 devices, small
// enough to run three times in this test binary.
Result<FederatedDataset> MakeFederation() {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 30;
  synth.seed = 31;
  FEDSC_ASSIGN_OR_RETURN(Dataset data, GenerateUnionOfSubspaces(synth));
  PartitionOptions partition;
  partition.num_devices = 6;
  partition.clusters_per_device = 2;
  partition.seed = 31 ^ 0xABCDEF;
  return PartitionAcrossDevices(data, partition);
}

// Flattens the deterministic slices of a snapshot (counters, deterministic
// gauges, histograms — never the execution sections) into a comparable
// string with full double precision.
std::string DeterministicFingerprint(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : snapshot.counters) {
    os << name << "=" << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    os << name << "=" << value << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    os << name << ": count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " max=" << h.max << " buckets=";
    for (const auto& [bits, count] : h.buckets) {
      os << bits << ":" << count << ",";
    }
    os << "\n";
  }
  return os.str();
}

MetricsSnapshot RunFedScWithMetrics(const FederatedDataset& fed,
                                    int num_threads,
                                    double rank_rel_tol = 0.1) {
  ResetMetrics();
  EnableMetrics(true);
  FedScOptions options;
  options.num_threads = num_threads;
  options.rank_rel_tol = rank_rel_tol;
  auto result = RunFedSc(fed, 4, options);
  EnableMetrics(false);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return SnapshotMetrics();
}

// Counts occurrences of `needle` in `haystack` (non-overlapping).
int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Structural JSON sanity: braces/brackets balance outside of strings, and
// the scan ends at depth zero. (Full parsing lives in
// scripts/validate_trace.py; this catches broken emission in-process.)
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(MetricsDeterminismTest, CountersBitIdenticalAcrossThreadCounts) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  // The default rank_rel_tol takes the Gram basis route on every panel;
  // one below kGramSigmaFloor takes the looped SVD route, so the SVD
  // counters are fingerprinted too.
  for (double rank_rel_tol : {0.1, 1e-6}) {
    const MetricsSnapshot serial = RunFedScWithMetrics(*fed, 1, rank_rel_tol);
    const std::string expected = DeterministicFingerprint(serial);

    // Sanity: the run actually exercised the instrumented kernels.
    EXPECT_EQ(serial.counters.at("fedsc.runs"), 1);
    EXPECT_EQ(serial.counters.at("fedsc.devices"), 6);
    EXPECT_GT(serial.counters.at("sc.ssc_admm.solves"), 0);
    EXPECT_GT(serial.counters.at("sc.ssc_admm.iterations"), 0);
    EXPECT_GT(serial.counters.at("linalg.gemm.calls"), 0);
    EXPECT_GT(serial.counters.at("linalg.gemm.flops"), 0);
    if (rank_rel_tol < kGramSigmaFloor) {
      EXPECT_GT(serial.counters.at("linalg.svd.calls"), 0);
      EXPECT_GT(serial.counters.at("linalg.basis.looped"), 0);
      EXPECT_EQ(serial.counters.at("linalg.basis.gram"), 0);
    } else {
      EXPECT_GT(serial.counters.at("linalg.basis.gram"), 0);
      EXPECT_EQ(serial.counters.at("linalg.basis.looped"), 0);
      EXPECT_EQ(serial.counters.at("linalg.svd.calls"), 0);
    }
    EXPECT_GT(serial.counters.at("cluster.kmeans.iterations"), 0);
    EXPECT_GT(serial.counters.at("fed.comm.uplink_bits"), 0);
    EXPECT_EQ(serial.counters.at("fed.comm.rounds"), 1);
    EXPECT_GT(serial.histograms.at("sc.ssc_admm.iterations_per_solve").count,
              0);
    // The residual-balancing rho changes are part of the deterministic
    // record.
    EXPECT_TRUE(serial.counters.count("sc.ssc_admm.rho_updates"));
    // So is each solve's dictionary: every device holds 20 points on two
    // 3-dimensional subspaces of R^24, so its exact solve runs over the
    // rank-6 Cholesky factor of its Gram, not over X.
    EXPECT_GE(serial.counters.at("sc.ssc_admm.reduced_solves"), 6);
    const HistogramSnapshot& rows =
        serial.histograms.at("sc.ssc_admm.dictionary_rows");
    EXPECT_EQ(rows.count, serial.counters.at("sc.ssc_admm.solves"));
    EXPECT_EQ(rows.min, 6);

    for (int threads : {2, 8}) {
      const MetricsSnapshot threaded =
          RunFedScWithMetrics(*fed, threads, rank_rel_tol);
      EXPECT_EQ(expected, DeterministicFingerprint(threaded))
          << "deterministic metrics diverged at num_threads=" << threads
          << ", rank_rel_tol=" << rank_rel_tol;
    }
  }
}

// Multi-vertex connected components of a graph: the eigensolves
// ComponentSpectrum runs on it (an isolated vertex needs none).
int64_t SolvedComponents(const SparseMatrix& affinity) {
  const ComponentsResult components = ConnectedComponents(affinity);
  std::vector<int64_t> sizes(static_cast<size_t>(components.count), 0);
  for (int64_t label : components.labels) ++sizes[static_cast<size_t>(label)];
  return std::count_if(sizes.begin(), sizes.end(),
                       [](int64_t size) { return size > 1; });
}

// Each device reduces its affinity once per connected component: r^(z) and
// the spectral embedding come from those reductions. The other eigensolves
// of a round are one Gram per Gram-route basis and, unless the central
// pool's components are its k clusters, one per component of the central
// spectral step's affinity.
TEST(MetricsDeterminismTest, OneEigensolvePerDeviceAffinity) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  const FedScOptions options;
  int64_t devices_with_affinity = 0;
  int64_t device_solves = 0;
  for (const Matrix& points : fed->points) {
    if (points.cols() < 3) continue;
    ++devices_with_affinity;
    Matrix normalized = points;
    normalized.NormalizeColumns();
    auto coefficients = SscSelfExpression(normalized, options.local_ssc);
    ASSERT_TRUE(coefficients.ok()) << coefficients.status().ToString();
    device_solves += SolvedComponents(AffinityFromCoefficients(*coefficients));
  }
  ASSERT_EQ(devices_with_affinity, 6);
  ASSERT_GE(device_solves, devices_with_affinity);
  ResetMetrics();
  EnableMetrics(true);
  auto result = RunFedSc(*fed, 4, options);
  EnableMetrics(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsSnapshot snapshot = SnapshotMetrics();
  // When the central pool has exactly k components, they are its clusters
  // and the central step solves nothing.
  const int64_t central_solves =
      ConnectedComponents(result->central_affinity).count == 4
          ? 0
          : SolvedComponents(result->central_affinity);
  EXPECT_EQ(snapshot.counters.at("linalg.eig.calls"),
            device_solves + snapshot.counters.at("linalg.basis.gram") +
                central_solves);
}

// A round forms only the eigenvectors it reads: at most r^(z) per device
// (none where the components are the clusters), each Gram-route basis's
// rank, and the central step's k.
TEST(MetricsDeterminismTest, EigenvectorsFormedAreTheOnesRead) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  const FedScOptions options;
  ResetMetrics();
  EnableMetrics(true);
  auto result = RunFedSc(*fed, 4, options);
  EnableMetrics(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t vectors = SnapshotMetrics().counters.at("linalg.eig.vectors");

  // Replays each device's local step outside the metrics, with the seeds
  // RunFedSc draws from Rng(options.seed) in device order, for its r^(z)
  // and partition, then the rank of each cluster's Gram-route basis.
  Rng seeds(options.seed);
  int64_t bound = 4;  // the central k
  for (size_t z = 0; z < fed->points.size(); ++z) {
    const Matrix& points = fed->points[z];
    auto local = LocalClusterAndSample(points, options, seeds.Next());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_EQ(local->num_local_clusters, result->local_cluster_counts[z]);
    bound += local->num_local_clusters;
    std::vector<std::vector<int64_t>> members(
        static_cast<size_t>(local->num_local_clusters));
    for (int64_t i = 0; i < points.cols(); ++i) {
      members[static_cast<size_t>(local->partition[static_cast<size_t>(i)])]
          .push_back(i);
    }
    Matrix normalized = points;
    normalized.NormalizeColumns();
    BatchedSubspaceOptions batch;
    batch.rank = options.sample_dim;
    batch.rel_tol = options.rank_rel_tol;
    for (const Result<Matrix>& basis :
         BatchedPrincipalSubspace(normalized, members, batch)) {
      if (basis.ok()) bound += basis->cols();
    }
  }
  EXPECT_GT(vectors, 0);
  EXPECT_LE(vectors, bound);
}

// On the AVX-512 tier the exact solve of a rank-8 device (20 x 120) runs
// its Z-update's T = K M (8 x 120 x 120) on the GEMM's thin-output route,
// once per iteration. Two setup products take the route too: the operator's
// K = (lambda S^{-1}) R (8 x 8 x 120, ZUpdate::WithRho), formed once when
// the operator is built and once more at the solve's one residual-balancing
// change of rho. The route reproduces the packed path's bits, so the
// solve counts the iterations and GEMM flops the packed path gave this
// device: 108 and 49,797,120, recorded before the route existed.
TEST(MetricsDeterminismTest, ThinGemmRouteLeavesTheDeviceSolveUnchanged) {
  if (ResolveDefaultIsa().chosen != CpuIsa::kAvx512) {
    GTEST_SKIP() << "the thin-output route belongs to the AVX-512 tier; this "
                 << "process runs " << CpuIsaName(ResolveDefaultIsa().chosen);
  }
  Rng rng(47);
  Matrix u(20, 8);
  Matrix v(8, 120);
  for (int64_t j = 0; j < 8; ++j) {
    for (int64_t i = 0; i < 20; ++i) u(i, j) = rng.Gaussian();
  }
  for (int64_t j = 0; j < 120; ++j) {
    for (int64_t i = 0; i < 8; ++i) v(i, j) = rng.Gaussian();
  }
  Matrix x = MatMul(u, v);
  x.NormalizeColumns();

  ResetMetrics();
  EnableMetrics(true);
  SscAdmmInfo info;
  const auto c = SscSelfExpression(x, SscAdmmOptions(), &info);
  EnableMetrics(false);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(info.dictionary_rows, 8);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  EXPECT_GT(snapshot.counters.at("linalg.gemm.thin_calls"), 0);
  EXPECT_EQ(snapshot.counters.at("linalg.gemm.thin_calls"),
            info.iterations + 2);
  EXPECT_EQ(snapshot.counters.at("sc.ssc_admm.iterations"), 108);
  EXPECT_EQ(snapshot.counters.at("linalg.gemm.flops"), 49797120);
}

TEST(MetricsDeterminismTest, ExecutionCountersAreSegregated) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());
  const MetricsSnapshot snapshot = RunFedScWithMetrics(*fed, 8);

  // Thread-pool task counts depend on the thread count by nature; they must
  // live in the execution section so the bit-identity check above never
  // sees them.
  EXPECT_TRUE(snapshot.execution_counters.count("threadpool.tasks_scheduled"));
  EXPECT_TRUE(snapshot.execution_counters.count("threadpool.tasks_executed"));
  EXPECT_FALSE(snapshot.counters.count("threadpool.tasks_scheduled"));
  EXPECT_TRUE(snapshot.execution_gauges.count("sc.ssc_admm.last_residual"));
  // The gauge is the last solve's max(r / eps_pri, s / eps_dual), <= 1
  // exactly when that solve converged; every solve of this run converges.
  EXPECT_EQ(snapshot.counters.at("sc.ssc_admm.converged"),
            snapshot.counters.at("sc.ssc_admm.solves"));
  EXPECT_GT(snapshot.execution_gauges.at("sc.ssc_admm.last_residual"), 0.0);
  EXPECT_LE(snapshot.execution_gauges.at("sc.ssc_admm.last_residual"), 1.0);
  EXPECT_GT(snapshot.execution_counters.at("threadpool.tasks_scheduled"), 0);
}

TEST(MetricsRegistryTest, DisabledPathRecordsNothing) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("test.disabled_counter");
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.disabled_gauge");
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.disabled_histogram");
  ResetMetrics();
  EnableMetrics(false);

  counter.Add(7);
  gauge.Set(3.5);
  histogram.Record(11);
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.Snapshot().count, 0);

  EnableMetrics(true);
  counter.Add(7);
  gauge.Set(3.5);
  histogram.Record(11);
  EnableMetrics(false);
  EXPECT_EQ(counter.value(), 7);
  EXPECT_EQ(gauge.value(), 3.5);
  const HistogramSnapshot h = histogram.Snapshot();
  EXPECT_EQ(h.count, 1);
  EXPECT_EQ(h.sum, 11);
  EXPECT_EQ(h.min, 11);
  EXPECT_EQ(h.max, 11);
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].first, 4);  // bit_width(11) == 4
  EXPECT_EQ(h.buckets[0].second, 1);

  ResetMetrics();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(histogram.Snapshot().count, 0);
}

TEST(MetricsRegistryTest, JsonCarriesPreRegisteredSchema) {
  ResetMetrics();
  const std::string json = MetricsJsonString();
  ExpectBalancedJson(json);
  // Never-touched kernels still appear (as zeros), so downstream dashboards
  // get a stable schema.
  EXPECT_NE(json.find("\"linalg.gemm.calls\""), std::string::npos);
  EXPECT_NE(json.find("\"sc.ssc_admm.iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"threadpool.tasks_scheduled\""), std::string::npos);
  EXPECT_NE(json.find("\"execution_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(TraceTest, FullRunIsWellFormedAndExports) {
  auto fed = MakeFederation();
  ASSERT_TRUE(fed.ok());

  EnableTracing(true);
  ResetTrace();
  FedScOptions options;
  options.num_threads = 8;
  auto result = RunFedSc(*fed, 4, options);
  EnableTracing(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Status well_formed = CheckTraceWellFormed();
  EXPECT_TRUE(well_formed.ok()) << well_formed.ToString();

  const std::string json = ChromeTraceString();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("fedsc/run"), std::string::npos);
  EXPECT_NE(json.find("fedsc/phase1/device"), std::string::npos);
  EXPECT_NE(json.find("fedsc/phase2/central"), std::string::npos);
  EXPECT_NE(json.find("sc/ssc_admm"), std::string::npos);
  // The local solves' end events carry the rank-6 dictionary they ran over.
  EXPECT_NE(json.find("\"args\":{\"dictionary_rows\":6}}"),
            std::string::npos);
  // Each device's local/spectral span opens with the affinity's order and
  // closes with the r^(z) its one eigensolve picked.
  int spectral_begins = 0;
  int spectral_ends = 0;
  std::istringstream events(json);
  for (std::string line; std::getline(events, line);) {
    if (line.find("\"name\":\"local/spectral\"") == std::string::npos) {
      continue;
    }
    if (line.find("\"ph\":\"B\"") != std::string::npos) {
      ++spectral_begins;
      EXPECT_NE(line.find("\"args\":{\"n\":"), std::string::npos) << line;
    } else {
      ++spectral_ends;
      EXPECT_NE(line.find("\"args\":{\"r\":"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(spectral_begins, 6);
  EXPECT_EQ(spectral_ends, 6);
  EXPECT_EQ(json.find("local/eigengap"), std::string::npos);
  // Every begin pairs with an end.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));

  const std::vector<TraceSpanStats> summary = SummarizeTrace();
  ASSERT_FALSE(summary.empty());
  bool saw_device_span = false;
  for (const TraceSpanStats& row : summary) {
    EXPECT_GT(row.count, 0);
    EXPECT_GE(row.total_seconds, 0.0);
    EXPECT_GE(row.max_seconds, 0.0);
    if (row.key.rfind("fedsc/phase1/device", 0) == 0) saw_device_span = true;
  }
  EXPECT_TRUE(saw_device_span);

  std::ostringstream table;
  PrintTraceSummary(table);
  EXPECT_NE(table.str().find("span"), std::string::npos);
  EXPECT_NE(table.str().find("fedsc/run"), std::string::npos);

  ResetTrace();
}

TEST(TraceTest, DisabledMacroSkipsArgumentEvaluation) {
  ResetTrace();
  EnableTracing(false);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return int64_t{7};
  };
  {
    FEDSC_TRACE_SPAN("test/disabled", {{"v", expensive()}});
  }
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(CountOccurrences(ChromeTraceString(), "test/disabled"), 0);

  EnableTracing(true);
  {
    FEDSC_TRACE_SPAN("test/enabled", {{"v", expensive()}});
  }
  EnableTracing(false);
  EXPECT_EQ(evaluations, 1);
  const Status well_formed = CheckTraceWellFormed();
  EXPECT_TRUE(well_formed.ok()) << well_formed.ToString();
  const std::string json = ChromeTraceString();
  EXPECT_NE(json.find("test/enabled"), std::string::npos);
  EXPECT_NE(json.find("\"v\":7"), std::string::npos);
  ResetTrace();
}

TEST(TraceTest, ArgsRenderEscapedStringsAndDoubles) {
  ResetTrace();
  EnableTracing(true);
  {
    FEDSC_TRACE_SPAN("test/args", {{"s", "quo\"te"}, {"d", 0.5}});
  }
  EnableTracing(false);
  const std::string json = ChromeTraceString();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"s\":\"quo\\\"te\""), std::string::npos);
  EXPECT_NE(json.find("\"d\":0.5"), std::string::npos);
  ResetTrace();
}

}  // namespace
}  // namespace fedsc
