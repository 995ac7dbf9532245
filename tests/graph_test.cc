#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/components.h"
#include "graph/eigengap.h"
#include "graph/laplacian.h"
#include "graph/spectrum.h"
#include "linalg/blas.h"
#include "linalg/eig.h"

namespace fedsc {
namespace {

// Block-diagonal affinity: `blocks` cliques of the given sizes with
// within-block weight 1 plus optional cross-block noise.
Matrix BlockAffinity(const std::vector<int64_t>& sizes, double cross_weight,
                     Rng* rng) {
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
  if (cross_weight > 0.0) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        if (w(i, j) == 0.0) {
          const double v = cross_weight * rng->Uniform();
          w(i, j) = v;
          w(j, i) = v;
        }
      }
    }
  }
  return w;
}

TEST(LaplacianTest, Degrees) {
  Matrix w(2, 2);
  w(0, 1) = 2.0;
  w(1, 0) = 2.0;
  const Vector d = Degrees(w);
  EXPECT_EQ(d[0], 2.0);
  EXPECT_EQ(d[1], 2.0);
}

TEST(LaplacianTest, SpectrumInZeroTwo) {
  Rng rng(1);
  const Matrix w = BlockAffinity({5, 7}, 0.3, &rng);
  auto values = SymmetricEigenvalues(NormalizedLaplacian(w));
  ASSERT_TRUE(values.ok());
  for (double v : *values) {
    EXPECT_GE(v, -1e-10);
    EXPECT_LE(v, 2.0 + 1e-10);
  }
}

TEST(LaplacianTest, ZeroEigenvaluesCountComponents) {
  Rng rng(2);
  const Matrix w = BlockAffinity({4, 6, 5}, 0.0, &rng);
  auto values = SymmetricEigenvalues(NormalizedLaplacian(w));
  ASSERT_TRUE(values.ok());
  int zeros = 0;
  for (double v : *values) zeros += std::fabs(v) < 1e-10;
  EXPECT_EQ(zeros, 3);
}

TEST(LaplacianTest, IsolatedVertexContributesZeroRow) {
  Matrix w(3, 3);
  w(0, 1) = 1.0;
  w(1, 0) = 1.0;  // vertex 2 isolated
  const Matrix l = NormalizedLaplacian(w);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(l(2, j), 0.0);
    EXPECT_EQ(l(j, 2), 0.0);
  }
  auto values = SymmetricEigenvalues(l);
  ASSERT_TRUE(values.ok());
  int zeros = 0;
  for (double v : *values) zeros += std::fabs(v) < 1e-10;
  EXPECT_EQ(zeros, 2);  // the pair + the isolated vertex
}

TEST(LaplacianTest, SparseAndDenseNormalizedAdjacencyAgree) {
  Rng rng(3);
  const Matrix w = BlockAffinity({3, 4}, 0.5, &rng);
  const Matrix dense = NormalizedAdjacency(w);
  const Matrix via_sparse = NormalizedAdjacency(SparsifyDense(w)).ToDense();
  EXPECT_TRUE(AllClose(dense, via_sparse, 1e-12));
}

TEST(ComponentsTest, CountsAndLabels) {
  // 0-1, 2-3-4, 5 alone.
  const SparseMatrix adj = SparseMatrix::FromTriplets(
      6, 6, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  const ComponentsResult r = ConnectedComponents(adj);
  EXPECT_EQ(r.count, 3);
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_EQ(r.labels[2], r.labels[3]);
  EXPECT_EQ(r.labels[3], r.labels[4]);
  EXPECT_NE(r.labels[0], r.labels[2]);
  EXPECT_NE(r.labels[5], r.labels[0]);
  EXPECT_NE(r.labels[5], r.labels[2]);
}

TEST(ComponentsTest, AsymmetricEntriesConnectBothWays) {
  // Edge stored in one triangle only.
  const SparseMatrix adj =
      SparseMatrix::FromTriplets(3, 3, {{0, 2, 1.0}});
  const ComponentsResult r = ConnectedComponents(adj);
  EXPECT_EQ(r.count, 2);
  EXPECT_EQ(r.labels[0], r.labels[2]);
}

TEST(ComponentsTest, EmptyGraph) {
  const ComponentsResult r =
      ConnectedComponents(SparseMatrix::FromTriplets(4, 4, {}));
  EXPECT_EQ(r.count, 4);
}

class EigengapBlockTest : public ::testing::TestWithParam<int> {};

TEST_P(EigengapBlockTest, DetectsComponentCount) {
  const int k = GetParam();
  Rng rng(100 + k);
  std::vector<int64_t> sizes;
  for (int i = 0; i < k; ++i) sizes.push_back(4 + rng.UniformInt(5));
  const Matrix w = BlockAffinity(sizes, 0.0, &rng);
  auto r = EstimateClusterCount(w);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, k);
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, EigengapBlockTest,
                         ::testing::Values(2, 3, 5, 8));

TEST(EigengapTest, RobustToWeakCrossConnections) {
  Rng rng(7);
  const Matrix w = BlockAffinity({8, 8, 8}, 0.05, &rng);
  auto r = EstimateClusterCount(w);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
}

TEST(EigengapTest, MaxClustersCap) {
  Rng rng(8);
  const Matrix w = BlockAffinity({5, 5, 5, 5, 5}, 0.0, &rng);
  EigengapOptions options;
  options.max_clusters = 3;
  auto r = EstimateClusterCount(w, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(*r, 3);
  EXPECT_GE(*r, 1);
}

TEST(EigengapTest, FromSpectrumDirect) {
  auto r = EstimateClusterCountFromSpectrum({0.0, 0.0, 0.0, 0.9, 1.0, 1.1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
  EXPECT_FALSE(EstimateClusterCountFromSpectrum({0.5}).ok());
}

// BlockAffinity with `isolated` zero-degree vertices appended.
Matrix WithIsolated(const Matrix& w, int64_t isolated) {
  const int64_t n = w.rows();
  Matrix out(n + isolated, n + isolated);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i < n; ++i) out(i, j) = w(i, j);
  }
  return out;
}

// The per-component spectrum is the Laplacian's: the merge of each
// component's 1 - mu, and an exact 0 for each isolated vertex (sorted among
// the components' zeros, which rounding can leave just below 0).
TEST(ComponentSpectrumTest, LaplacianValuesMatchTheLaplacian) {
  Rng rng(9);
  for (const int64_t isolated : {0, 1, 3}) {
    SCOPED_TRACE("isolated=" + std::to_string(isolated));
    const Matrix w =
        WithIsolated(BlockAffinity({6, 9, 7}, 0.02, &rng), isolated);
    auto spectrum = ComponentSpectrum::Create(w);
    auto laplacian = SymmetricEigenvalues(NormalizedLaplacian(w));
    ASSERT_TRUE(spectrum.ok() && laplacian.ok());
    auto mapped = spectrum->LaplacianValues(w.rows());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ(mapped->size(), laplacian->size());
    EXPECT_GE(std::count(mapped->begin(), mapped->end(), 0.0), isolated);
    for (size_t i = 0; i < mapped->size(); ++i) {
      EXPECT_NEAR((*mapped)[i], (*laplacian)[i], 1e-12) << "lambda " << i;
    }
  }
}

// Block-diagonal affinities with isolated vertices: every window of the
// merged spectrum matches one full solve of the whole normalized Laplacian
// to 1e-12 relative, and the merged embedding spans the full solve's
// eigenvectors wherever the window does not cut a repeated eigenvalue.
TEST(ComponentSpectrumTest, MergedWindowMatchesTheFullSolve) {
  Rng rng(12);
  struct Case {
    std::vector<int64_t> sizes;
    int64_t isolated;
  };
  for (const Case& c : std::vector<Case>{{{10, 12, 8}, 0},
                                         {{30, 33}, 2},
                                         {{40, 50, 30}, 1},
                                         {{60, 60}, 0}}) {
    // Random positive weights inside each block, none across.
    int64_t n = c.isolated;
    for (int64_t s : c.sizes) n += s;
    Matrix w(n, n);
    int64_t offset = 0;
    for (int64_t s : c.sizes) {
      for (int64_t j = 0; j < s; ++j) {
        for (int64_t i = j + 1; i < s; ++i) {
          const double v = rng.Uniform() < 0.4 ? rng.Uniform() : 0.0;
          w(offset + i, offset + j) = v;
          w(offset + j, offset + i) = v;
        }
        // A path keeps the block connected.
        if (j + 1 < s) {
          w(offset + j + 1, offset + j) = w(offset + j, offset + j + 1) = 0.5;
        }
      }
      offset += s;
    }
    // Interleave the blocks: the components are not contiguous ranges.
    std::vector<int64_t> order = rng.SampleWithoutReplacement(n, n);
    Matrix shuffled(n, n);
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i < n; ++i) {
        shuffled(i, j) = w(order[static_cast<size_t>(i)],
                           order[static_cast<size_t>(j)]);
      }
    }
    SCOPED_TRACE("n=" + std::to_string(n));
    auto spectrum = ComponentSpectrum::Create(shuffled);
    ASSERT_TRUE(spectrum.ok()) << spectrum.status().ToString();
    EXPECT_EQ(spectrum->components().count,
              static_cast<int64_t>(c.sizes.size()) + c.isolated);
    auto full = SymmetricEigen(NormalizedLaplacian(shuffled));
    ASSERT_TRUE(full.ok());
    for (const int64_t count :
         {spectrum->components().count + 1, int64_t{3}, n}) {
      auto values = spectrum->LaplacianValues(count);
      ASSERT_TRUE(values.ok()) << values.status().ToString();
      for (int64_t i = 0; i < count; ++i) {
        const double expected = full->values[static_cast<size_t>(i)];
        EXPECT_NEAR((*values)[static_cast<size_t>(i)], expected,
                    1e-12 * std::max(1.0, std::fabs(expected)))
            << "count " << count << " lambda " << i;
      }
    }
    // The components' zeros plus the next eigenvalue: a window that ends in
    // a spectral gap.
    const int64_t k = spectrum->components().count + 1;
    auto embedding = spectrum->Embedding(k);
    ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
    Matrix gram = MatMulTN(*embedding, *embedding);
    gram -= Matrix::Identity(k);
    EXPECT_LE(gram.FrobeniusNorm(), 1e-12);
    const Matrix reference = full->vectors.ColRange(0, k);
    Matrix off = *embedding;
    off -= MatMul(reference, MatMulTN(reference, *embedding));
    EXPECT_LE(off.FrobeniusNorm(), 1e-9);
    // An isolated vertex's column is its unit vector.
    const std::vector<int64_t>& labels = spectrum->components().labels;
    std::vector<int64_t> sizes(static_cast<size_t>(k - 1), 0);
    for (int64_t label : labels) ++sizes[static_cast<size_t>(label)];
    for (int64_t i = 0; i < n; ++i) {
      if (sizes[static_cast<size_t>(labels[static_cast<size_t>(i)])] != 1) {
        continue;
      }
      double row = 0.0;
      for (int64_t t = 0; t < k; ++t) row += std::fabs((*embedding)(i, t));
      EXPECT_EQ(row, 1.0) << "isolated vertex " << i;
    }
  }
}

TEST(ComponentSpectrumTest, RejectsBadWindows) {
  auto spectrum =
      ComponentSpectrum::Create(BlockAffinity({3, 4}, 0.0, nullptr));
  ASSERT_TRUE(spectrum.ok());
  EXPECT_FALSE(spectrum->LaplacianValues(8).ok());
  EXPECT_FALSE(spectrum->LaplacianValues(-1).ok());
  EXPECT_FALSE(spectrum->Embedding(0).ok());
  EXPECT_FALSE(spectrum->Embedding(8).ok());
  EXPECT_FALSE(ComponentSpectrum::Create(Matrix(2, 3)).ok());
}

TEST(EigengapTest, IsolatedVerticesCountAsComponents) {
  Rng rng(10);
  const Matrix w = WithIsolated(BlockAffinity({6, 7}, 0.0, &rng), 2);
  auto r = EstimateClusterCount(w);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4);
}

// The eigengap reads values only, the spectral step the full solve; both
// must see the same spectrum of M, on both sides of the engine cutoff.
TEST(EigengapTest, AdjacencyValuesMatchTheFullSolveBitForBit) {
  Rng rng(11);
  for (const std::vector<int64_t>& sizes :
       std::vector<std::vector<int64_t>>{{10, 12, 8}, {30, 33}, {32, 32},
                                         {40, 50, 30}}) {
    const Matrix m = NormalizedAdjacency(BlockAffinity(sizes, 0.05, &rng));
    SCOPED_TRACE("n=" + std::to_string(m.rows()));
    auto values = SymmetricEigenvalues(m);
    auto full = SymmetricEigen(m);
    ASSERT_TRUE(values.ok() && full.ok());
    ASSERT_EQ(*values, full->values);
  }
}

TEST(EigengapTest, RejectsTinyInput) {
  EXPECT_FALSE(EstimateClusterCount(Matrix(1, 1)).ok());
  EXPECT_FALSE(EstimateClusterCount(Matrix(3, 2)).ok());
}

}  // namespace
}  // namespace fedsc
