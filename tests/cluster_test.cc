#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "graph/eigengap.h"
#include "graph/laplacian.h"
#include "linalg/eig.h"
#include "linalg/sparse.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

// k well-separated Gaussian blobs in R^dim; returns points + truth labels.
std::pair<Matrix, std::vector<int64_t>> MakeBlobs(int64_t k, int64_t per_blob,
                                                  int64_t dim, double spread,
                                                  Rng* rng) {
  Matrix points(dim, k * per_blob);
  std::vector<int64_t> truth;
  for (int64_t c = 0; c < k; ++c) {
    Vector center(static_cast<size_t>(dim));
    for (auto& v : center) v = 20.0 * rng->Gaussian();
    for (int64_t p = 0; p < per_blob; ++p) {
      const int64_t col = c * per_blob + p;
      for (int64_t i = 0; i < dim; ++i) {
        points(i, col) = center[static_cast<size_t>(i)] +
                         spread * rng->Gaussian();
      }
      truth.push_back(c);
    }
  }
  return {std::move(points), std::move(truth)};
}

TEST(KMeansTest, SeparatedBlobsClusterPerfectly) {
  Rng rng(1);
  auto [points, truth] = MakeBlobs(4, 30, 5, 0.3, &rng);
  auto result = KMeans(points, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ClusteringAccuracy(truth, result->labels), 100.0);
  EXPECT_EQ(result->centroids.cols(), 4);
}

TEST(KMeansTest, SingleClusterGivesCentroidMean) {
  Matrix points = Matrix::FromColumns({{0, 0}, {2, 0}, {4, 0}});
  auto result = KMeans(points, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->centroids(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(result->centroids(1, 0), 0.0, 1e-12);
  for (int64_t l : result->labels) EXPECT_EQ(l, 0);
}

TEST(KMeansTest, KEqualsNIsExact) {
  Matrix points = Matrix::FromColumns({{0, 0}, {5, 0}, {0, 5}});
  auto result = KMeans(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->inertia, 0.0, 1e-18);
  std::set<int64_t> labels(result->labels.begin(), result->labels.end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeansTest, DuplicatePointsDoNotCrash) {
  Matrix points(3, 10);  // all zeros
  auto result = KMeans(points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels.size(), 10u);
}

TEST(KMeansTest, InvalidKRejected) {
  Matrix points(2, 5);
  EXPECT_FALSE(KMeans(points, 0).ok());
  EXPECT_FALSE(KMeans(points, 6).ok());
}

TEST(KMeansTest, MoreRestartsNeverWorse) {
  Rng rng(2);
  auto [points, truth] = MakeBlobs(6, 20, 4, 1.5, &rng);
  KMeansOptions one;
  one.num_init = 1;
  one.seed = 99;
  KMeansOptions many;
  many.num_init = 8;
  many.seed = 99;
  auto r1 = KMeans(points, 6, one);
  auto r8 = KMeans(points, 6, many);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_LE(r8->inertia, r1->inertia + 1e-9);
}

TEST(KMeansTest, FarthestFirstInitWorks) {
  Rng rng(3);
  auto [points, truth] = MakeBlobs(3, 25, 4, 0.2, &rng);
  KMeansOptions options;
  options.init = KMeansInit::kFarthestFirst;
  auto result = KMeans(points, 3, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ClusteringAccuracy(truth, result->labels), 100.0);
}

TEST(FarthestFirstTest, PicksDistinctSpreadIndices) {
  Rng rng(4);
  Matrix points = Matrix::FromColumns(
      {{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}, {0, 10}});
  const auto picked = FarthestFirstIndices(points, 3, &rng);
  ASSERT_EQ(picked.size(), 3u);
  std::set<int64_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 3u);
  // The three picks must hit all three far-apart groups {0,1}, {2,3}, {4}.
  std::set<int64_t> groups;
  for (int64_t i : picked) groups.insert(i <= 1 ? 0 : (i <= 3 ? 1 : 2));
  EXPECT_EQ(groups.size(), 3u);
}

Matrix BlockAffinity(const std::vector<int64_t>& sizes) {
  int64_t n = 0;
  for (int64_t s : sizes) n += s;
  Matrix w(n, n);
  int64_t offset = 0;
  for (int64_t s : sizes) {
    for (int64_t i = 0; i < s; ++i) {
      for (int64_t j = 0; j < s; ++j) {
        if (i != j) w(offset + i, offset + j) = 1.0;
      }
    }
    offset += s;
  }
  return w;
}

TEST(SpectralTest, RecoversBlocksDense) {
  const Matrix w = BlockAffinity({10, 15, 12});
  std::vector<int64_t> truth;
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t i = 0; i < std::vector<int64_t>{10, 15, 12}[c]; ++i) {
      truth.push_back(c);
    }
  }
  auto result = SpectralCluster(w, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ClusteringAccuracy(truth, result->labels), 100.0);
}

// A sparse graph of disjoint blocks: vertex i of a block links to its
// successor (so the block is connected) and to `degree` random vertices of
// the same block, both ways.
SparseMatrix SparseBlockAffinity(const std::vector<int64_t>& sizes,
                                 int64_t degree, Rng* rng) {
  int64_t n = 0;
  for (int64_t s : sizes) n += s;
  std::vector<Triplet> triplets;
  const auto link = [&triplets](int64_t i, int64_t j) {
    triplets.push_back({i, j, 1.0});
    triplets.push_back({j, i, 1.0});
  };
  int64_t offset = 0;
  for (int64_t s : sizes) {
    for (int64_t i = 0; i < s; ++i) {
      link(offset + i, offset + (i + 1) % s);
      for (int64_t e = 0; e < degree; ++e) {
        const int64_t j = static_cast<int64_t>(rng->Uniform() * s) % s;
        if (j != i) link(offset + i, offset + j);
      }
    }
    offset += s;
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

TEST(SpectralTest, SparseLanczosPathMatchesTruth) {
  // 970 vertices: past the 900-vertex cutoff, so the sparse graph takes
  // subspace iteration instead of being densified.
  const std::vector<int64_t> sizes{300, 350, 320};
  Rng rng(17);
  const SparseMatrix w = SparseBlockAffinity(sizes, 4, &rng);
  std::vector<int64_t> truth;
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (int64_t i = 0; i < sizes[c]; ++i) {
      truth.push_back(static_cast<int64_t>(c));
    }
  }
  ResetMetrics();
  EnableMetrics(true);
  auto result = SpectralCluster(w, 3);
  EnableMetrics(false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SnapshotMetrics().counters.at("linalg.subspace_iteration.calls"),
            1);
  EXPECT_EQ(ClusteringAccuracy(truth, result->labels), 100.0);
}

TEST(SpectralTest, WeaklyCoupledBlocksStillSeparate) {
  Matrix w = BlockAffinity({12, 12});
  // faint cross edges
  for (int64_t i = 0; i < 12; ++i) {
    w(i, 12 + i) = 0.01;
    w(12 + i, i) = 0.01;
  }
  std::vector<int64_t> truth(24, 0);
  std::fill(truth.begin() + 12, truth.end(), 1);
  auto result = SpectralCluster(w, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ClusteringAccuracy(truth, result->labels), 100.0);
}

TEST(SpectralTest, RejectsBadArguments) {
  EXPECT_FALSE(SpectralCluster(Matrix(3, 4), 2).ok());
  EXPECT_FALSE(SpectralCluster(Matrix::Identity(3), 0).ok());
  EXPECT_FALSE(SpectralCluster(Matrix::Identity(3), 4).ok());
}

TEST(SpectralTest, EmbeddingHasRequestedShape) {
  const Matrix w = BlockAffinity({6, 6});
  auto result = SpectralCluster(w, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embedding.rows(), 12);
  EXPECT_EQ(result->embedding.cols(), 2);
}

// A symmetric nonnegative affinity like a device's |C| + |C|^T: sparse
// random within-block weights, faint cross-block leakage, and `isolated`
// trailing zero-degree vertices.
Matrix RandomAffinity(const std::vector<int64_t>& sizes, double cross,
                      int64_t isolated, Rng* rng) {
  int64_t n = isolated;
  std::vector<int64_t> block;
  for (size_t b = 0; b < sizes.size(); ++b) {
    n += sizes[b];
    block.insert(block.end(), static_cast<size_t>(sizes[b]),
                 static_cast<int64_t>(b));
  }
  const int64_t connected = n - isolated;
  Matrix w(n, n);
  for (int64_t j = 0; j < connected; ++j) {
    for (int64_t i = j + 1; i < connected; ++i) {
      const bool same =
          block[static_cast<size_t>(i)] == block[static_cast<size_t>(j)];
      double v = 0.0;
      if (same && rng->Uniform() < 0.3) v = rng->Uniform();
      if (!same && rng->Uniform() < 0.02) v = cross * rng->Uniform();
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return w;
}

// One eigensolve gives the r and labels of EstimateClusterCount followed by
// SpectralCluster at that r, with the k-means seed drawn from the same rng
// position, across isolated vertices, disconnected graphs (eigenvalue 1 of
// M repeated), the max_clusters cap and orders on both sides of the engine
// cutoff.
TEST(EigengapSpectralTest, FusedMatchesTheSeparatePath) {
  struct Case {
    std::vector<int64_t> sizes;
    double cross;
    int64_t isolated;
    int64_t max_clusters;
  };
  const std::vector<Case> cases = {
      {{10, 12, 8}, 0.0, 0, 0},       // n = 30, three components
      {{20, 25}, 0.05, 3, 0},         // n = 48, isolated vertices
      {{60}, 0.0, 0, 0},              // one block: r may be 1
      {{8, 8, 8, 8, 8, 8, 8, 8}, 0.0, 0, 3},  // n = 64, capped at 3
      {{14, 14, 14, 14}, 0.0, 7, 2},  // n = 63 with isolated, capped
      {{58, 60}, 0.05, 2, 0},         // n = 120, the noniid2_z160 order
      {{40, 35, 45, 30}, 0.02, 0, 0},  // n = 150
  };
  Rng rng(91);
  for (const Case& c : cases) {
    for (int trial = 0; trial < 3; ++trial) {
      const Matrix w = RandomAffinity(c.sizes, c.cross, c.isolated, &rng);
      SCOPED_TRACE("n=" + std::to_string(w.rows()) +
                   " trial=" + std::to_string(trial));
      EigengapOptions gap;
      gap.max_clusters = c.max_clusters;
      SpectralOptions options;

      Rng separate_rng(7 + trial);
      auto r = EstimateClusterCount(w, gap);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<int64_t> labels(static_cast<size_t>(w.rows()), 0);
      if (*r > 1) {
        SpectralOptions at_r = options;
        at_r.kmeans.seed = separate_rng.Next();
        auto clusters = SpectralCluster(w, *r, at_r);
        ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
        labels = clusters->labels;
      }

      Rng fused_rng(7 + trial);
      auto fused = EigengapSpectralCluster(w, gap, options, &fused_rng);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_EQ(fused->num_clusters, *r);
      EXPECT_EQ(fused->labels, labels);
      EXPECT_EQ(fused_rng.Next(), separate_rng.Next());
      if (c.max_clusters > 0) {
        EXPECT_LE(fused->num_clusters, c.max_clusters);
      }
    }
  }
}

// Canonical renumbering: labels in order of first appearance, so two
// partitions that differ only by label names compare equal.
std::vector<int64_t> Renumbered(const std::vector<int64_t>& labels) {
  std::map<int64_t, int64_t> names;
  std::vector<int64_t> out;
  for (int64_t label : labels) {
    const auto next = static_cast<int64_t>(names.size());
    out.push_back(names.emplace(label, next).first->second);
  }
  return out;
}

// When the eigengap's r equals the component count, the labels are the
// components. The k-means path the shortcut skips — row-normalized top-r
// eigenvectors of the full normalized adjacency, then k-means — gives the
// same partition up to renumbering, and the rng ends where it would have.
TEST(EigengapSpectralTest, ComponentShortcutMatchesTheKMeansPath) {
  Rng rng(93);
  int compared = 0;
  for (const std::vector<int64_t>& sizes :
       std::vector<std::vector<int64_t>>{{60, 60}, {10, 12, 8}, {30, 25}}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Matrix w = RandomAffinity(sizes, 0.0, 0, &rng);
      const int64_t c = static_cast<int64_t>(sizes.size());
      SCOPED_TRACE("n=" + std::to_string(w.rows()) +
                   " trial=" + std::to_string(trial));
      Rng fused_rng(11 + trial);
      auto fused =
          EigengapSpectralCluster(w, EigengapOptions{}, {}, &fused_rng);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      if (fused->num_components != c) continue;  // a block fell apart
      ASSERT_EQ(fused->num_clusters, c);

      Rng path_rng(11 + trial);
      KMeansOptions kmeans;
      kmeans.seed = path_rng.Next();
      auto full = SymmetricEigen(NormalizedAdjacency(w));
      ASSERT_TRUE(full.ok());
      const int64_t n = w.rows();
      Matrix points(c, n);  // k-means clusters columns
      for (int64_t i = 0; i < n; ++i) {
        double norm = 0.0;
        for (int64_t t = 0; t < c; ++t) {
          const double v = full->vectors(i, n - 1 - t);
          norm += v * v;
        }
        for (int64_t t = 0; t < c; ++t) {
          points(t, i) = full->vectors(i, n - 1 - t) / std::sqrt(norm);
        }
      }
      auto km = KMeans(points, c, kmeans);
      ASSERT_TRUE(km.ok());
      EXPECT_EQ(Renumbered(fused->labels), Renumbered(km->labels));
      EXPECT_EQ(fused_rng.Next(), path_rng.Next());
      ++compared;
    }
  }
  EXPECT_GE(compared, 6);
}

// Isolated vertices are components of their own: each gets its own label,
// and the eigengap counts them.
TEST(EigengapSpectralTest, IsolatedVerticesAreTheirOwnClusters) {
  Rng rng(94);
  const Matrix w = RandomAffinity({20, 25}, 0.0, 3, &rng);
  Rng fused_rng(3);
  auto fused = EigengapSpectralCluster(w, EigengapOptions{}, {}, &fused_rng);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->num_components, 5);
  EXPECT_EQ(fused->num_clusters, 5);
  std::set<int64_t> isolated_labels;
  for (int64_t i = 45; i < 48; ++i) {
    isolated_labels.insert(fused->labels[static_cast<size_t>(i)]);
    for (int64_t j = 0; j < 48; ++j) {
      if (j != i) {
        EXPECT_NE(fused->labels[static_cast<size_t>(j)],
                  fused->labels[static_cast<size_t>(i)]);
      }
    }
  }
  EXPECT_EQ(isolated_labels.size(), 3u);
  // SpectralCluster below the component count embeds isolated vertices by
  // their unit vectors and still runs.
  auto fewer = SpectralCluster(w, 3);
  ASSERT_TRUE(fewer.ok()) << fewer.status().ToString();
  EXPECT_EQ(fewer->embedding.cols(), 3);
}

TEST(EigengapSpectralTest, RejectsBadAffinities) {
  Rng rng(1);
  EXPECT_FALSE(
      EigengapSpectralCluster(Matrix(3, 4), EigengapOptions{}, {}, &rng).ok());
  EXPECT_FALSE(
      EigengapSpectralCluster(Matrix(1, 1), EigengapOptions{}, {}, &rng).ok());
}

TEST(SpectralTest, ReportsKMeansIterationsOfBestRestart) {
  Matrix w = BlockAffinity({10, 15, 12});
  SpectralOptions options;
  // At k = the component count the components are the clusters: no
  // k-means runs.
  auto components = SpectralCluster(w, 3, options);
  ASSERT_TRUE(components.ok());
  EXPECT_EQ(components->kmeans_iterations, 0);
  // Faint edges join the blocks into one component, so k-means runs.
  for (int64_t i = 0; i < 10; ++i) {
    w(i, 10 + i) = w(10 + i, i) = 0.01;
    w(i, 25 + i) = w(25 + i, i) = 0.01;
  }
  auto result = SpectralCluster(w, 3, options);
  ASSERT_TRUE(result.ok());
  // Lloyd always runs at least one iteration, and a converged run on clean
  // blocks stops well before the budget.
  EXPECT_GT(result->kmeans_iterations, 0);
  EXPECT_LT(result->kmeans_iterations, options.kmeans.max_iterations);
}

}  // namespace
}  // namespace fedsc
