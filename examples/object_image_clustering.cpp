// Scenario: a fleet of smart cameras jointly organizing the objects they
// photograph (the paper's COIL100 experiment, Section VI-B). Each camera
// sees a handful of object classes under varying brightness/contrast; the
// images of one object, taken across poses, approximately span a
// low-dimensional subspace of pixel space.
//
// This example compares Fed-SC's two server algorithms (SSC vs TSC) and
// shows the connectivity advantage of the induced global affinity graph
// (Section IV-E): each uploaded sample stands for a whole local cluster, so
// the induced graph is denser and less prone to over-segmentation.
//
// Build & run:  ./build/examples/object_image_clustering

#include <cstdio>

#include "core/fedsc.h"
#include "data/realworld_sim.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"
#include "metrics/connectivity.h"
#include "sc/pipeline.h"

int main() {
  using namespace fedsc;

  Coil100SimOptions objects;
  objects.num_classes = 15;
  objects.ambient_dim = 256;   // 16x16 gray thumbnails
  objects.images_per_class = 60;
  objects.seed = 314;
  auto gallery = GenerateCoil100Sim(objects);
  if (!gallery.ok()) {
    std::fprintf(stderr, "%s\n", gallery.status().ToString().c_str());
    return 1;
  }

  PartitionOptions partition;
  partition.num_devices = 40;
  partition.clusters_per_device = 2;
  partition.clusters_per_device_max = 4;
  partition.seed = 2718;
  auto cameras = PartitionAcrossDevices(*gallery, partition);
  if (!cameras.ok()) {
    std::fprintf(stderr, "%s\n", cameras.status().ToString().c_str());
    return 1;
  }

  std::printf("Object gallery: %lld augmented images of %lld objects across "
              "%lld cameras\n\n",
              static_cast<long long>(cameras->total_points),
              static_cast<long long>(objects.num_classes),
              static_cast<long long>(cameras->num_devices()));

  for (ScMethod server : {ScMethod::kSsc, ScMethod::kTsc}) {
    FedScOptions options;
    options.central_method = server;
    options.use_eigengap = false;
    options.max_local_clusters = 4;
    auto result = RunFedSc(*cameras, objects.num_classes, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      continue;
    }
    auto connectivity = InducedConnectivity(*cameras, *result);
    std::printf("Fed-SC (%s server):\n",
                server == ScMethod::kSsc ? "SSC" : "TSC");
    std::printf("  accuracy %.2f%%, NMI %.2f%%\n",
                ClusteringAccuracy(gallery->labels, result->global_labels),
                NormalizedMutualInformation(gallery->labels,
                                            result->global_labels));
    if (connectivity.ok()) {
      std::printf("  induced graph connectivity: c = %.4f, c-bar = %.4f\n",
                  connectivity->min_lambda2, connectivity->mean_lambda2);
    }
    std::printf("  server saw %lld samples; time %.3fs\n\n",
                static_cast<long long>(result->total_samples),
                result->seconds);
  }

  // Centralized SSC on the pooled gallery, for the connectivity contrast.
  ScPipelineOptions central;
  central.method = ScMethod::kSsc;
  auto pooled = RunSubspaceClustering(gallery->points, objects.num_classes,
                                      central);
  if (pooled.ok()) {
    auto connectivity =
        GraphConnectivity(RunAffinity(*pooled), gallery->labels);
    std::printf("Centralized SSC (pooled images — what federation avoids):\n");
    std::printf("  accuracy %.2f%%, time %.3fs\n",
                ClusteringAccuracy(gallery->labels, pooled->labels),
                pooled->seconds);
    if (connectivity.ok()) {
      std::printf("  affinity connectivity: c-bar = %.4f (sparser graph, "
                  "over-segmentation risk)\n",
                  connectivity->mean_lambda2);
    }
  }
  return 0;
}
