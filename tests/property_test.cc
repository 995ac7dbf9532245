// Cross-cutting property tests: invariances and equivariances that pin down
// the algorithms' mathematics (rotation/scale invariance, permutation
// equivariance, metric symmetry).

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "linalg/svd.h"
#include "metrics/clustering_metrics.h"
#include "metrics/hungarian.h"
#include "sc/pipeline.h"

namespace fedsc {
namespace {

Matrix RandomRotation(int64_t n, Rng* rng) {
  return RandomOrthonormalBasis(n, n, rng);
}

TEST(PropertyTest, SvdSingularValuesAreRotationInvariant) {
  Rng rng(1);
  Matrix a(10, 6);
  for (int64_t j = 0; j < 6; ++j) {
    for (int64_t i = 0; i < 10; ++i) a(i, j) = rng.Gaussian();
  }
  const Matrix q = RandomRotation(10, &rng);
  auto plain = JacobiSvd(a);
  auto rotated = JacobiSvd(MatMul(q, a));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rotated.ok());
  for (size_t i = 0; i < plain->s.size(); ++i) {
    EXPECT_NEAR(plain->s[i], rotated->s[i], 1e-10);
  }
}

TEST(PropertyTest, SscCoefficientsAreRotationInvariant) {
  // SSC depends on the data only through the Gram matrix X^T X, which an
  // orthogonal transform leaves untouched.
  SyntheticOptions synth;
  synth.ambient_dim = 18;
  synth.subspace_dim = 3;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 20;
  synth.seed = 3;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Rng rng(4);
  const Matrix q = RandomRotation(18, &rng);

  auto c_plain = SscSelfExpression(data->points);
  auto c_rotated = SscSelfExpression(MatMul(q, data->points));
  ASSERT_TRUE(c_plain.ok());
  ASSERT_TRUE(c_rotated.ok());
  EXPECT_TRUE(AllClose(c_plain->ToDense(), c_rotated->ToDense(), 1e-8));
}

TEST(PropertyTest, FedScIsRotationInvariant) {
  SyntheticOptions synth;
  synth.ambient_dim = 16;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 60;
  synth.seed = 5;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Rng rng(6);
  const Matrix q = RandomRotation(16, &rng);
  Dataset rotated = *data;
  rotated.points = MatMul(q, data->points);

  PartitionOptions partition;
  partition.num_devices = 10;
  partition.clusters_per_device = 2;
  partition.seed = 7;
  auto fed_plain = PartitionAcrossDevices(*data, partition);
  auto fed_rotated = PartitionAcrossDevices(rotated, partition);
  ASSERT_TRUE(fed_plain.ok());
  ASSERT_TRUE(fed_rotated.ok());

  FedScOptions options;
  options.seed = 99;
  auto a = RunFedSc(*fed_plain, 4, options);
  auto b = RunFedSc(*fed_rotated, 4, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The algorithm sees only inner products, which the rotation preserves up
  // to floating-point noise, so the two partitions must be the same up to
  // relabeling.
  EXPECT_DOUBLE_EQ(ClusteringAccuracy(a->global_labels, b->global_labels),
                   100.0);
  EXPECT_GE(ClusteringAccuracy(data->labels, a->global_labels), 94.0);
}

// Well-separated noiseless subspaces over ten devices: the input of the two
// RunFedSc metamorphic tests below, each of which compares a run on it with
// a run on a transformed copy, partition against partition (ACC 100 between
// the two label vectors means equal up to relabeling).
FederatedDataset SeparatedFederation() {
  SyntheticOptions synth;
  synth.ambient_dim = 30;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 60;
  synth.seed = 17;
  auto data = GenerateUnionOfSubspaces(synth);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 10;
  partition.clusters_per_device = 2;
  partition.seed = 18;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return std::move(fed).value();
}

TEST(PropertyTest, FedScIsEquivariantToPointOrderWithinADevice) {
  const FederatedDataset fed = SeparatedFederation();
  Rng rng(19);
  for (size_t z : {size_t{0}, size_t{6}}) {
    SCOPED_TRACE("device " + std::to_string(z));
    FederatedDataset permuted = fed;
    std::vector<int64_t> order(fed.global_index[z].size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    permuted.points[z] = fed.points[z].GatherCols(order);
    for (size_t k = 0; k < order.size(); ++k) {
      const auto from = static_cast<size_t>(order[k]);
      permuted.labels[z][k] = fed.labels[z][from];
      permuted.global_index[z][k] = fed.global_index[z][from];
    }
    auto a = RunFedSc(fed, 4);
    auto b = RunFedSc(permuted, 4);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // global_labels are in dataset order, so the permutation is undone.
    EXPECT_DOUBLE_EQ(ClusteringAccuracy(a->global_labels, b->global_labels),
                     100.0);
  }
}

TEST(PropertyTest, FedScIsInvariantToPerPointRescaling) {
  const FederatedDataset fed = SeparatedFederation();
  FederatedDataset scaled = fed;
  Rng rng(20);
  for (Matrix& points : scaled.points) {
    for (int64_t j = 0; j < points.cols(); ++j) {
      // Log-uniform in [1e-3, 1e3].
      const double s = std::pow(10.0, rng.Uniform(-3.0, 3.0));
      for (int64_t i = 0; i < points.rows(); ++i) points(i, j) *= s;
    }
  }
  auto a = RunFedSc(fed, 4);
  auto b = RunFedSc(scaled, 4);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_DOUBLE_EQ(ClusteringAccuracy(a->global_labels, b->global_labels),
                   100.0);
}

TEST(PropertyTest, PipelineIsScaleInvariant) {
  // Column normalization makes the whole pipeline invariant to a global
  // rescaling of the data.
  SyntheticOptions synth;
  synth.ambient_dim = 16;
  synth.subspace_dim = 3;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 25;
  synth.seed = 8;
  synth.normalize = false;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix scaled = data->points;
  scaled *= 7.5;

  auto a = RunSubspaceClustering(data->points, 3);
  auto b = RunSubspaceClustering(scaled, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(PropertyTest, TscAffinityIgnoresSignFlips) {
  SyntheticOptions synth;
  synth.ambient_dim = 12;
  synth.subspace_dim = 2;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 15;
  synth.seed = 9;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix flipped = data->points;
  Rng rng(10);
  for (int64_t j = 0; j < flipped.cols(); ++j) {
    if (rng.Uniform() < 0.5) {
      Scal(-1.0, flipped.ColData(j), flipped.rows());
    }
  }
  TscOptions options;
  options.q = 4;
  auto a = TscAffinity(data->points, options);
  auto b = TscAffinity(flipped, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AllClose(a->ToDense(), b->ToDense(), 1e-12));
}

TEST(PropertyTest, NmiIsSymmetric) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> a(40), b(40);
    for (auto& v : a) v = rng.UniformInt(4);
    for (auto& v : b) v = rng.UniformInt(3);
    EXPECT_NEAR(NormalizedMutualInformation(a, b),
                NormalizedMutualInformation(b, a), 1e-9);
  }
}

TEST(PropertyTest, AccuracyInvariantToLabelPermutation) {
  Rng rng(12);
  std::vector<int64_t> truth(60), pred(60);
  for (auto& v : truth) v = rng.UniformInt(5);
  for (auto& v : pred) v = rng.UniformInt(5);
  const double base = ClusteringAccuracy(truth, pred);
  // Relabel predictions through a random permutation.
  std::vector<int64_t> perm{0, 1, 2, 3, 4};
  rng.Shuffle(&perm);
  std::vector<int64_t> relabeled(pred.size());
  for (size_t i = 0; i < pred.size(); ++i) {
    relabeled[i] = perm[static_cast<size_t>(pred[i])];
  }
  EXPECT_NEAR(ClusteringAccuracy(truth, relabeled), base, 1e-9);
}

TEST(PropertyTest, HungarianInvariantToRowOffsets) {
  // Adding a constant to one row shifts the optimum by that constant but
  // never changes the argmin assignment.
  Rng rng(13);
  Matrix cost(4, 4);
  for (int64_t j = 0; j < 4; ++j) {
    for (int64_t i = 0; i < 4; ++i) cost(i, j) = rng.Uniform(0.0, 9.0);
  }
  std::vector<int64_t> base_assignment;
  const double base = SolveAssignment(cost, &base_assignment);
  Matrix shifted = cost;
  for (int64_t j = 0; j < 4; ++j) shifted(2, j) += 5.0;
  std::vector<int64_t> shifted_assignment;
  const double total = SolveAssignment(shifted, &shifted_assignment);
  EXPECT_EQ(base_assignment, shifted_assignment);
  EXPECT_NEAR(total, base + 5.0, 1e-9);
}

TEST(PropertyTest, KMeansIsTranslationInvariant) {
  Rng rng(14);
  Matrix points(4, 50);
  for (int64_t j = 0; j < 50; ++j) {
    for (int64_t i = 0; i < 4; ++i) {
      points(i, j) = rng.Gaussian() + (j < 25 ? 10.0 : -10.0);
    }
  }
  Matrix translated = points;
  for (int64_t j = 0; j < 50; ++j) {
    for (int64_t i = 0; i < 4; ++i) translated(i, j) += 123.0;
  }
  KMeansOptions options;
  options.seed = 55;
  auto a = KMeans(points, 2, options);
  auto b = KMeans(translated, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_NEAR(a->inertia, b->inertia, 1e-6 * (1.0 + a->inertia));
}

TEST(PropertyTest, PartitionPermutationCoversAllClusterSizes) {
  // Re-running the partitioner with many seeds never loses a point and
  // never leaves a cluster uncovered.
  SyntheticOptions synth;
  synth.ambient_dim = 8;
  synth.subspace_dim = 2;
  synth.num_subspaces = 6;
  synth.points_per_subspace = 30;
  synth.seed = 15;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  for (uint64_t seed = 0; seed < 12; ++seed) {
    PartitionOptions partition;
    partition.num_devices = 9;
    partition.clusters_per_device = 2;
    partition.seed = seed;
    auto fed = PartitionAcrossDevices(*data, partition);
    ASSERT_TRUE(fed.ok());
    int64_t total = 0;
    for (const auto& idx : fed->global_index) {
      total += static_cast<int64_t>(idx.size());
    }
    EXPECT_EQ(total, data->points.cols());
    for (int64_t holders : fed->DevicesPerCluster()) EXPECT_GE(holders, 1);
    for (int64_t count : fed->ClustersPerDevice()) EXPECT_LE(count, 2);
  }
}

TEST(PropertyTest, EigenvalueSumMatchesTraceAcrossSizes) {
  Rng rng(16);
  for (int64_t n : {2, 5, 9, 17, 31}) {
    Matrix a(n, n);
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i <= j; ++i) {
        const double v = rng.Gaussian();
        a(i, j) = v;
        a(j, i) = v;
      }
    }
    auto values = SymmetricEigenvalues(a);
    ASSERT_TRUE(values.ok());
    double trace = 0.0;
    for (int64_t i = 0; i < n; ++i) trace += a(i, i);
    EXPECT_NEAR(std::accumulate(values->begin(), values->end(), 0.0), trace,
                1e-8 * (1.0 + std::fabs(trace)));
  }
}

}  // namespace
}  // namespace fedsc
