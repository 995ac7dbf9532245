// Reproduces Table IV: clustering accuracy of the federated methods on the
// real-world stand-ins as the number of local clusters L' grows (less
// statistical heterogeneity). Expected shape: every method degrades
// monotonically with L'; Fed-SC stays far above k-FED at every L'; the
// k-FED + local-PCA variants sit near chance throughout.

#include <cstdio>

#include "bench_util.h"
#include "core/fedsc.h"
#include "data/realworld_sim.h"
#include "fed/kfed.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

// Z must be large enough that L' = 2 already satisfies the sample-count
// condition Z_l > d+1 of Theorem 1 (otherwise server-side sample scarcity
// inverts the trend); the degradation at large L' then comes from the
// paper's mechanism — a fixed per-device budget spread over more clusters.
constexpr int64_t kNumDevices = 200;

void RunDataset(const char* name, const Dataset& data, bench::Table* table) {
  const int64_t l_primes[] = {2, 4, 6, 8, 10};
  // One row per method; columns are L' values.
  std::vector<std::string> fedsc_ssc{name, "Fed-SC (SSC)"};
  std::vector<std::string> fedsc_tsc{name, "Fed-SC (TSC)"};
  std::vector<std::string> kfed{name, "k-FED"};
  std::vector<std::string> kfed_pca10{name, "k-FED + PCA-10"};
  std::vector<std::string> kfed_pca100{name, "k-FED + PCA-100"};

  for (int64_t l_prime : l_primes) {
    PartitionOptions partition;
    partition.num_devices = kNumDevices;
    partition.clusters_per_device = l_prime;
    partition.seed = 0x7AB'4444ULL + static_cast<uint64_t>(l_prime);
    auto fed = PartitionAcrossDevices(data, partition);
    if (!fed.ok()) {
      for (auto* row :
           {&fedsc_ssc, &fedsc_tsc, &kfed, &kfed_pca10, &kfed_pca100}) {
        row->push_back("-");
      }
      continue;
    }

    for (ScMethod central : {ScMethod::kSsc, ScMethod::kTsc}) {
      FedScOptions options;
      options.central_method = central;
      options.use_eigengap = false;
      options.max_local_clusters = l_prime;
      auto result = RunFedSc(*fed, data.num_clusters, options);
      auto& row = central == ScMethod::kSsc ? fedsc_ssc : fedsc_tsc;
      row.push_back(result.ok()
                        ? bench::Fmt(ClusteringAccuracy(
                              data.labels, result->global_labels))
                        : "-");
    }
    for (auto [pca_dim, row] :
         {std::pair<int64_t, std::vector<std::string>*>{0, &kfed},
          {10, &kfed_pca10},
          {100, &kfed_pca100}}) {
      KFedOptions options;
      options.local_k = l_prime;
      options.pca_dim = pca_dim;
      auto result = RunKFed(*fed, data.num_clusters, options);
      row->push_back(result.ok()
                         ? bench::Fmt(ClusteringAccuracy(
                               data.labels, result->global_labels))
                         : "-");
    }
  }
  for (auto& row :
       {fedsc_ssc, fedsc_tsc, kfed, kfed_pca10, kfed_pca100}) {
    table->AddRow(row);
  }
}

void Run(bool csv) {
  bench::Table table({"dataset", "method", "L'=2", "L'=4", "L'=6", "L'=8",
                      "L'=10"});

  EmnistSimOptions emnist;
  emnist.num_classes = 20;
  emnist.ambient_dim = 512;
  emnist.min_class_size = 200;
  emnist.max_class_size = 400;
  auto emnist_data = GenerateEmnistSim(emnist);
  if (emnist_data.ok()) RunDataset("EMNIST-sim", *emnist_data, &table);

  Coil100SimOptions coil;
  coil.num_classes = 30;
  coil.ambient_dim = 256;
  coil.images_per_class = 200;
  auto coil_data = GenerateCoil100Sim(coil);
  if (coil_data.ok()) RunDataset("COIL100-sim", *coil_data, &table);

  std::printf(
      "Table IV — accuracy (a%%) vs number of local clusters L' (Z=%ld)\n",
      static_cast<long>(kNumDevices));
  table.Print(csv);
}

}  // namespace
}  // namespace fedsc

int main(int argc, char** argv) {
  fedsc::bench::Observability observability(argc, argv);
  fedsc::Run(fedsc::bench::HasFlag(argc, argv, "--csv"));
  return 0;
}
