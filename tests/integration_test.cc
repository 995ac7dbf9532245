// End-to-end integration tests: miniature versions of every experiment in
// the benchmark suite, checking the *shapes* the paper reports (who wins,
// monotone trends), plus failure injection across module boundaries.

#include <cmath>

#include <gtest/gtest.h>

#include "core/fedsc.h"
#include "core/theory.h"
#include "data/realworld_sim.h"
#include "data/synthetic.h"
#include "fed/kfed.h"
#include "fed/partition.h"
#include "metrics/clustering_metrics.h"
#include "sc/pipeline.h"

namespace fedsc {
namespace {

struct MiniFederation {
  Dataset data;
  FederatedDataset fed;
};

MiniFederation Make(const SyntheticOptions& synth, int64_t devices,
                    int64_t l_prime, uint64_t seed) {
  auto data = GenerateUnionOfSubspaces(synth);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = devices;
  partition.clusters_per_device = l_prime;
  partition.seed = seed;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return {std::move(data).value(), std::move(fed).value()};
}

// Fig. 4 in miniature: Fed-SC (SSC) beats k-FED on subspace data under
// heterogeneity.
TEST(IntegrationTest, Fig4Shape_FedScBeatsKFed) {
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 8;
  synth.points_per_subspace = 100;
  synth.seed = 101;
  // 32 devices x L'=2 over 8 subspaces: Z_l ~ 8 > d + 1, the sample-count
  // condition of Theorem 1.
  MiniFederation m = Make(synth, 32, 2, 11);

  auto fedsc = RunFedSc(m.fed, 8, FedScOptions{});
  ASSERT_TRUE(fedsc.ok()) << fedsc.status().ToString();
  KFedOptions kfed_options;
  kfed_options.local_k = 2;
  auto kfed = RunKFed(m.fed, 8, kfed_options);
  ASSERT_TRUE(kfed.ok());

  const double acc_fedsc =
      ClusteringAccuracy(m.data.labels, fedsc->global_labels);
  const double acc_kfed =
      ClusteringAccuracy(m.data.labels, kfed->global_labels);
  EXPECT_GE(acc_fedsc, 95.0);
  // Points drawn from a subspace union are not centroid-separable: k-FED
  // lands far below Fed-SC.
  EXPECT_GT(acc_fedsc, acc_kfed + 20.0);
}

// Fig. 5 in miniature: accuracy degrades as L'/L grows. One draw of
// either federation spreads by several points of ACC (sd ~6 at L' = 2), so
// the figure's claim is checked on the mean over a fixed set of 20 dataset
// seeds rather than on a single draw.
TEST(IntegrationTest, Fig5Shape_HeterogeneityHelps) {
  SyntheticOptions synth;
  synth.ambient_dim = 16;
  synth.subspace_dim = 4;
  synth.num_subspaces = 10;
  synth.points_per_subspace = 120;

  auto accuracy_at = [&](int64_t l_prime) {
    MiniFederation m = Make(synth, 50, l_prime, 13);
    auto result = RunFedSc(m.fed, 10, FedScOptions{});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ClusteringAccuracy(m.data.labels, result->global_labels);
  };
  constexpr int kSeeds = 20;
  double acc2 = 0.0;
  double acc_iid = 0.0;
  for (int i = 0; i < kSeeds; ++i) {
    synth.seed = 300 + static_cast<uint64_t>(i);
    acc2 += accuracy_at(2) / kSeeds;
    acc_iid += accuracy_at(0) / kSeeds;
  }
  EXPECT_GE(acc2, acc_iid - 3.0);
  EXPECT_GE(acc2, 90.0);
}

// Fig. 6 in miniature: Fed-SC at least matches centralized SSC in accuracy
// while running faster on a federation of this size.
TEST(IntegrationTest, Fig6Shape_FedScVsCentralized) {
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 10;
  synth.points_per_subspace = 60;
  synth.seed = 107;
  MiniFederation m = Make(synth, 30, 3, 17);

  auto fedsc = RunFedSc(m.fed, 10, FedScOptions{});
  ASSERT_TRUE(fedsc.ok());
  auto central = RunSubspaceClustering(m.data.points, 10);
  ASSERT_TRUE(central.ok());

  const double acc_fed =
      ClusteringAccuracy(m.data.labels, fedsc->global_labels);
  const double acc_central =
      ClusteringAccuracy(m.data.labels, central->labels);
  EXPECT_GE(acc_fed, acc_central - 5.0);
}

// Fig. 7 in miniature: accuracy is flat for small delta and eventually
// degrades for very large delta.
TEST(IntegrationTest, Fig7Shape_NoiseRobustness) {
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 6;
  synth.points_per_subspace = 100;
  synth.seed = 109;
  MiniFederation m = Make(synth, 24, 2, 19);

  auto accuracy_at = [&](double delta) {
    FedScOptions options;
    options.channel.noise_delta = delta;
    auto result = RunFedSc(m.fed, 6, options);
    EXPECT_TRUE(result.ok());
    return ClusteringAccuracy(m.data.labels, result->global_labels);
  };
  const double clean = accuracy_at(0.0);
  const double mild = accuracy_at(0.05);
  EXPECT_GE(clean, 95.0);
  EXPECT_GE(mild, clean - 5.0);  // robust to mild channel noise
}

// Table III in miniature: on a high-dimensional real-world-like dataset,
// Fed-SC beats both k-FED and k-FED + PCA.
TEST(IntegrationTest, Table3Shape_RealWorldSim) {
  EmnistSimOptions emnist;
  emnist.num_classes = 6;
  emnist.ambient_dim = 128;
  emnist.min_class_size = 60;
  emnist.max_class_size = 120;
  emnist.seed = 113;
  auto data = GenerateEmnistSim(emnist);
  ASSERT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 30;
  partition.clusters_per_device = 2;
  partition.seed = 23;
  auto fed = PartitionAcrossDevices(*data, partition);
  ASSERT_TRUE(fed.ok());

  FedScOptions fed_options;
  fed_options.use_eigengap = false;
  fed_options.max_local_clusters = 2;  // the paper's upper-bound mode
  fed_options.sample_dim = 0;
  auto fedsc = RunFedSc(*fed, 6, fed_options);
  ASSERT_TRUE(fedsc.ok()) << fedsc.status().ToString();

  KFedOptions kfed_options;
  kfed_options.local_k = 2;
  auto kfed = RunKFed(*fed, 6, kfed_options);
  ASSERT_TRUE(kfed.ok());
  KFedOptions pca_options = kfed_options;
  pca_options.pca_dim = 10;
  auto kfed_pca = RunKFed(*fed, 6, pca_options);
  ASSERT_TRUE(kfed_pca.ok());

  const double acc_fedsc =
      ClusteringAccuracy(data->labels, fedsc->global_labels);
  const double acc_kfed =
      ClusteringAccuracy(data->labels, kfed->global_labels);
  const double acc_pca =
      ClusteringAccuracy(data->labels, kfed_pca->global_labels);
  EXPECT_GT(acc_fedsc, acc_kfed);
  EXPECT_GT(acc_fedsc, acc_pca + 10.0);
  EXPECT_GE(acc_fedsc, 80.0);
}

// Table IV in miniature: accuracy degrades as L' grows.
TEST(IntegrationTest, Table4Shape_LocalClusterSweep) {
  EmnistSimOptions emnist;
  emnist.num_classes = 8;
  emnist.ambient_dim = 96;
  emnist.min_class_size = 80;
  emnist.max_class_size = 140;
  emnist.seed = 127;
  auto data = GenerateEmnistSim(emnist);
  ASSERT_TRUE(data.ok());

  auto accuracy_at = [&](int64_t l_prime) {
    PartitionOptions partition;
    partition.num_devices = 48;
    partition.clusters_per_device = l_prime;
    partition.seed = 29;
    auto fed = PartitionAcrossDevices(*data, partition);
    EXPECT_TRUE(fed.ok());
    FedScOptions options;
    options.use_eigengap = false;
    options.max_local_clusters = l_prime;
    auto result = RunFedSc(*fed, 8, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ClusteringAccuracy(data->labels, result->global_labels);
  };
  const double acc2 = accuracy_at(2);
  const double acc6 = accuracy_at(6);
  EXPECT_GE(acc2, acc6 - 3.0);  // monotone-ish degradation
  EXPECT_GE(acc2, 85.0);
}

// Theory <-> practice: a federation whose subspace affinities sit below the
// Corollary bound clusters exactly.
TEST(IntegrationTest, TheoremConditionsPredictSuccess) {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 80;
  synth.seed = 131;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());

  double max_affinity = 0.0;
  for (size_t a = 0; a < data->bases.size(); ++a) {
    for (size_t b = a + 1; b < data->bases.size(); ++b) {
      auto aff = SubspaceAffinity(data->bases[a], data->bases[b]);
      ASSERT_TRUE(aff.ok());
      max_affinity = std::max(max_affinity, *aff);
    }
  }
  // Random 3-dim subspaces of R^24 have low pairwise affinity.
  EXPECT_LT(max_affinity / std::sqrt(3.0), 0.75);

  PartitionOptions partition;
  partition.num_devices = 12;
  partition.clusters_per_device = 2;
  partition.seed = 31;
  auto fed = PartitionAcrossDevices(*data, partition);
  ASSERT_TRUE(fed.ok());
  auto result = RunFedSc(*fed, 4, FedScOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(data->labels, result->global_labels), 99.0);
}

// Failure injection: a federation with duplicate points, zero-padded
// devices, and single-point devices must not crash any stage.
TEST(IntegrationTest, FailureInjectionDegenerateFederation) {
  Rng rng(137);
  Dataset data;
  data.num_clusters = 2;
  data.points = Matrix(10, 30);
  for (int64_t j = 0; j < 30; ++j) {
    const int64_t label = j < 15 ? 0 : 1;
    data.labels.push_back(label);
    // Cluster 0 along e0/e1, cluster 1 along e2/e3, with duplicates.
    const int64_t base = label == 0 ? 0 : 2;
    data.points(base, j) = 1.0;
    data.points(base + 1, j) = (j % 3 == 0) ? 0.0 : rng.Gaussian();
  }
  data.points.NormalizeColumns();

  PartitionOptions partition;
  partition.num_devices = 25;  // some devices get 1-2 points
  partition.clusters_per_device = 1;
  partition.seed = 37;
  auto fed = PartitionAcrossDevices(data, partition);
  ASSERT_TRUE(fed.ok());
  auto result = RunFedSc(*fed, 2, FedScOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->global_labels.size(), 30u);
}

}  // namespace
}  // namespace fedsc
