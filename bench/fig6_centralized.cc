// Reproduces Fig. 6: Fed-SC (SSC/TSC) against the centralized subspace
// clustering baselines (SSC, TSC, SSC-OMP, EnSC, NSN) on statistically
// heterogeneous federations — accuracy, NMI, graph connectivity, and total
// running time as functions of Z.
//
// Paper setup: L = 50 subspaces, L' = 3, Z growing. Scaled-down setup:
// L = 25, L' = 3, Z in {15, 30, 60, 120} (see EXPERIMENTS.md). The expected
// shape: Fed-SC matches or beats the centralized methods in ACC/NMI once Z
// gives each subspace enough devices, improves connectivity, and its total
// time grows far slower than the centralized methods'.

#include <cstdio>

#include "bench_util.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"
#include "metrics/connectivity.h"
#include "sc/pipeline.h"

namespace fedsc {
namespace {

constexpr int64_t kAmbientDim = 20;
constexpr int64_t kSubspaceDim = 4;
constexpr int64_t kNumSubspaces = 25;
constexpr int64_t kLPrime = 3;
constexpr int64_t kPointsPerDeviceCluster = 8;

void Run(bool csv) {
  bench::Table table({"Z", "N", "method", "ACC a%", "NMI n%", "CONN c-bar",
                      "T (s)"});
  const int64_t device_counts[] = {15, 30, 60, 120};

  for (int64_t num_devices : device_counts) {
    const int64_t holders =
        std::max<int64_t>(1, num_devices * kLPrime / kNumSubspaces);
    SyntheticOptions synth;
    synth.ambient_dim = kAmbientDim;
    synth.subspace_dim = kSubspaceDim;
    synth.num_subspaces = kNumSubspaces;
    synth.points_per_subspace = holders * kPointsPerDeviceCluster;
    synth.seed = 0xF16'0000ULL + static_cast<uint64_t>(num_devices);
    auto data = GenerateUnionOfSubspaces(synth);
    if (!data.ok()) continue;
    const int64_t total_points = data->points.cols();

    PartitionOptions partition;
    partition.num_devices = num_devices;
    partition.clusters_per_device = kLPrime;
    partition.seed = 0xF16'1111ULL + static_cast<uint64_t>(num_devices);
    auto fed = PartitionAcrossDevices(*data, partition);
    if (!fed.ok()) continue;

    // Federated methods.
    for (ScMethod central : {ScMethod::kSsc, ScMethod::kTsc}) {
      FedScOptions options;
      options.central_method = central;
      auto result = RunFedSc(*fed, kNumSubspaces, options);
      std::vector<std::string> row{
          bench::Fmt(num_devices), bench::Fmt(total_points),
          central == ScMethod::kSsc ? "Fed-SC (SSC)" : "Fed-SC (TSC)"};
      if (result.ok()) {
        row.push_back(bench::Fmt(
            ClusteringAccuracy(data->labels, result->global_labels)));
        row.push_back(bench::Fmt(NormalizedMutualInformation(
            data->labels, result->global_labels)));
        auto conn = InducedConnectivity(*fed, *result);
        row.push_back(conn.ok() ? bench::Fmt(conn->mean_lambda2, 4) : "-");
        row.push_back(bench::Fmt(result->seconds, 3));
      } else {
        row.insert(row.end(), {"-", "-", "-", "-"});
      }
      table.AddRow(std::move(row));
    }

    // Centralized baselines on the pooled dataset.
    for (ScMethod method :
         {ScMethod::kSsc, ScMethod::kSscOmp, ScMethod::kEnsc, ScMethod::kTsc,
          ScMethod::kNsn}) {
      ScPipelineOptions options;
      options.method = method;
      options.tsc.q = std::max<int64_t>(
          3, total_points / (100 * kNumSubspaces));
      options.ssc_omp.max_support = kSubspaceDim + 2;
      options.nsn.num_neighbors = 2 * kSubspaceDim;
      options.nsn.max_subspace_dim = kSubspaceDim;
      auto result =
          RunSubspaceClustering(data->points, kNumSubspaces, options);
      std::vector<std::string> row{bench::Fmt(num_devices),
                                   bench::Fmt(total_points),
                                   ScMethodName(method)};
      if (result.ok()) {
        row.push_back(
            bench::Fmt(ClusteringAccuracy(data->labels, result->labels)));
        row.push_back(bench::Fmt(
            NormalizedMutualInformation(data->labels, result->labels)));
        auto conn = GraphConnectivity(RunAffinity(*result), data->labels);
        row.push_back(conn.ok() ? bench::Fmt(conn->mean_lambda2, 4) : "-");
        row.push_back(bench::Fmt(result->seconds, 3));
      } else {
        row.insert(row.end(), {"-", "-", "-", "-"});
      }
      table.AddRow(std::move(row));
    }
  }
  std::printf(
      "Fig. 6 — Fed-SC vs centralized subspace clustering (L=%ld, L'=%ld)\n",
      static_cast<long>(kNumSubspaces), static_cast<long>(kLPrime));
  table.Print(csv);
}

}  // namespace
}  // namespace fedsc

int main(int argc, char** argv) {
  fedsc::bench::Observability observability(argc, argv);
  fedsc::Run(fedsc::bench::HasFlag(argc, argv, "--csv"));
  return 0;
}
