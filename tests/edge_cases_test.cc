// Solver-quality and edge-case tests: KKT optimality of the ADMM Lasso
// solution, numerically extreme inputs for the factorizations, and boundary
// parameter values across modules.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/spectral.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fed/kfed.h"
#include "fed/partition.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "linalg/svd.h"
#include "sc/affinity.h"
#include "sc/ssc_admm.h"

namespace fedsc {
namespace {

TEST(SscKktTest, AdmmSolutionSatisfiesLassoStationarity) {
  // KKT for min ||c||_1 + lambda/2 ||x_i - X c||^2 (c_i = 0):
  //   lambda * x_j^T (x_i - X c) == sign(c_j)        for c_j != 0
  //   |lambda * x_j^T (x_i - X c)| <= 1              for c_j == 0, j != i.
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 3;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 20;
  synth.seed = 404;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  const Matrix& x = data->points;
  const int64_t num_points = x.cols();

  SscAdmmOptions options;
  options.max_iterations = 2000;
  options.tol = 1e-8;
  options.drop_tol = 0.0;  // keep every coefficient for the KKT check
  auto coeffs = SscSelfExpression(x, options);
  ASSERT_TRUE(coeffs.ok());
  const Matrix c = coeffs->ToDense();
  const double lambda = SscLambda(x, options.alpha);

  const int64_t n = x.rows();
  Vector residual(static_cast<size_t>(n), 0.0);
  int checked_support = 0;
  for (int64_t i = 0; i < num_points; ++i) {
    // residual = x_i - X c_i
    std::copy(x.ColData(i), x.ColData(i) + n, residual.begin());
    Gemv(Trans::kNo, -1.0, x, c.ColData(i), 1.0, residual.data());
    for (int64_t j = 0; j < num_points; ++j) {
      if (j == i) continue;
      const double gradient =
          lambda * Dot(x.ColData(j), residual.data(), n);
      const double cj = c(j, i);
      if (std::fabs(cj) > 1e-5) {
        EXPECT_NEAR(gradient, cj > 0 ? 1.0 : -1.0, 2e-2)
            << "support entry (" << j << ", " << i << ")";
        ++checked_support;
      } else {
        EXPECT_LE(std::fabs(gradient), 1.0 + 2e-2)
            << "off-support entry (" << j << ", " << i << ")";
      }
    }
  }
  EXPECT_GT(checked_support, num_points);  // solutions are not all-zero
}

TEST(SvdEdgeTest, ExtremeScalesPreserveRelativeAccuracy) {
  Rng rng(405);
  Matrix a(8, 5);
  for (int64_t j = 0; j < 5; ++j) {
    for (int64_t i = 0; i < 8; ++i) a(i, j) = rng.Gaussian();
  }
  auto base = JacobiSvd(a);
  ASSERT_TRUE(base.ok());
  for (double scale : {1e-200, 1e-160, 1e-120, 1e120, 1e160, 1e200}) {
    Matrix scaled = a;
    scaled *= scale;
    auto svd = JacobiSvd(scaled);
    ASSERT_TRUE(svd.ok());
    for (size_t i = 0; i < svd->s.size(); ++i) {
      EXPECT_NEAR(svd->s[i] / scale, base->s[i],
                  1e-9 * base->s[0]);
    }
  }
}

Matrix GaussianMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

// Largest entry of U_a U_a^T - U_b U_b^T (zero iff equal spans).
double ProjectorDistance(const Matrix& a, const Matrix& b) {
  Matrix pa(a.rows(), a.rows());
  Matrix pb(b.rows(), b.rows());
  Gemm(Trans::kNo, Trans::kTrans, 1.0, a, a, 0.0, &pa);
  Gemm(Trans::kNo, Trans::kTrans, 1.0, b, b, 0.0, &pb);
  double worst = 0.0;
  for (int64_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, std::fabs(pa.data()[i] - pb.data()[i]));
  }
  return worst;
}

// Squared entries of a panel at 1e±160 leave the normal double range (the
// Gram route's X^T X goes subnormal or overflows), and at 1e±200 the Jacobi
// dot products do too. The batched basis prescales such panels, so every
// route keeps the unit-scale panel's rank and span.
TEST(BatchedSubspaceEdgeTest, ExtremeScalesKeepRankAndSpan) {
  Rng rng(407);
  std::vector<Matrix> panels;
  panels.push_back(MatMul(RandomOrthonormalBasis(48, 3, &rng),
                          GaussianMatrix(3, 10, &rng)));  // tall, rank 3
  panels.push_back(GaussianMatrix(64, 9, &rng));          // tall, full rank
  panels.push_back(GaussianMatrix(6, 20, &rng));          // wide, full rank
  // Auto rank on the Gram route, a fixed rank on it, and auto rank below
  // kGramSigmaFloor on the looped route.
  const std::pair<int64_t, double> requests[] = {
      {0, 0.1}, {2, 1e-8}, {0, 1e-8}};
  for (const auto& [rank, rel_tol] : requests) {
    BatchedSubspaceOptions options;
    options.rank = rank;
    options.rel_tol = rel_tol;
    const auto base = BatchedPrincipalSubspace(panels, options);
    for (double scale : {1e-200, 1e-160, 1e160, 1e200}) {
      std::vector<Matrix> scaled = panels;
      for (Matrix& panel : scaled) panel *= scale;
      const auto bases = BatchedPrincipalSubspace(scaled, options);
      for (size_t i = 0; i < panels.size(); ++i) {
        ASSERT_TRUE(base[i].ok());
        ASSERT_TRUE(bases[i].ok())
            << "panel " << i << " scale " << scale << ": "
            << bases[i].status().ToString();
        EXPECT_EQ(bases[i]->cols(), base[i]->cols())
            << "panel " << i << " scale " << scale << " rel_tol " << rel_tol;
        if (bases[i]->cols() != base[i]->cols()) continue;
        EXPECT_LE(ProjectorDistance(*bases[i], *base[i]), 1e-6)
            << "panel " << i << " scale " << scale << " rel_tol " << rel_tol;
      }
    }
  }
}

TEST(SvdEdgeTest, RepeatedSingularValues) {
  // An orthogonal matrix has all singular values exactly 1.
  Rng rng(406);
  const Matrix q = RandomOrthonormalBasis(9, 9, &rng);
  auto svd = JacobiSvd(q);
  ASSERT_TRUE(svd.ok());
  for (double s : svd->s) EXPECT_NEAR(s, 1.0, 1e-10);
  EXPECT_TRUE(AllClose(Gram(svd->u), Matrix::Identity(9), 1e-9));
}

TEST(EigEdgeTest, DiagonalAndConstantMatrices) {
  Matrix diag(4, 4);
  diag(0, 0) = -3.0;
  diag(1, 1) = 7.0;
  diag(2, 2) = 0.0;
  diag(3, 3) = 2.5;
  auto eig = SymmetricEigen(diag);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], -3.0, 1e-12);
  EXPECT_NEAR(eig->values[3], 7.0, 1e-12);

  // all-ones matrix: eigenvalues {n, 0, ..., 0}.
  Matrix ones(5, 5);
  ones.Fill(1.0);
  auto ones_eig = SymmetricEigenvalues(ones);
  ASSERT_TRUE(ones_eig.ok());
  EXPECT_NEAR(ones_eig->back(), 5.0, 1e-10);
  for (size_t i = 0; i + 1 < ones_eig->size(); ++i) {
    EXPECT_NEAR((*ones_eig)[i], 0.0, 1e-10);
  }
}

TEST(SpectralEdgeTest, SingleClusterAndAllSingletons) {
  Matrix w(6, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      if (i != j) w(i, j) = 1.0;
    }
  }
  auto one = SpectralCluster(w, 1);
  ASSERT_TRUE(one.ok());
  for (int64_t l : one->labels) EXPECT_EQ(l, 0);

  auto all = SpectralCluster(w, 6);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->labels.size(), 6u);
}

TEST(SparsifyEdgeTest, AllZeroAndSingleEntryCoefficients) {
  // Two points: each column of C has one atom it may use, never its own.
  const Matrix x = Matrix::FromColumns({{1.0, 0.0}, {0.6, 0.8}});
  // No iterations leave C all zero, and an all-zero C yields no entries.
  SscAdmmOptions no_iterations;
  no_iterations.max_iterations = 0;
  auto zero = SscSelfExpression(x, no_iterations);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->nnz(), 0);

  auto c = SscSelfExpression(x);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->nnz(), 2);
  const Matrix dense = c->ToDense();
  EXPECT_EQ(dense(0, 0), 0.0);
  EXPECT_EQ(dense(1, 1), 0.0);
  EXPECT_GT(dense(1, 0), 0.0);
  EXPECT_GT(dense(0, 1), 0.0);
  EXPECT_EQ(AffinityFromCoefficients(*c).nnz(), 2);
}

TEST(KFedEdgeTest, PcaDimExceedingPointsStillRuns) {
  Rng rng(407);
  Dataset data;
  data.num_clusters = 2;
  data.points = Matrix(16, 40);
  for (int64_t j = 0; j < 40; ++j) {
    const int64_t c = j < 20 ? 0 : 1;
    for (int64_t i = 0; i < 16; ++i) {
      data.points(i, j) = rng.Gaussian() + (c == 0 ? 8.0 : -8.0);
    }
    data.labels.push_back(c);
  }
  PartitionOptions partition;
  partition.num_devices = 10;  // only ~4 points per device
  auto fed = PartitionAcrossDevices(data, partition);
  ASSERT_TRUE(fed.ok());
  KFedOptions options;
  options.local_k = 2;
  options.pca_dim = 100;  // exceeds both ambient dim and device point count
  auto result = RunKFed(*fed, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->global_labels.size(), 40u);
}

TEST(RngEdgeTest, UniformIntOfOneAndHugeRange) {
  Rng rng(408);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0);
  const int64_t huge = int64_t{1} << 62;
  for (int i = 0; i < 10; ++i) {
    const int64_t v = rng.UniformInt(huge);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, huge);
  }
}

TEST(MatrixEdgeTest, ZeroSizedOperations) {
  Matrix empty(0, 0);
  EXPECT_EQ(empty.Transposed().size(), 0);
  EXPECT_EQ(empty.FrobeniusNorm(), 0.0);
  Matrix tall(5, 0);
  EXPECT_EQ(tall.NormalizeColumns(), 0);
  const Matrix product = MatMul(Matrix(3, 0), Matrix(0, 4));
  EXPECT_EQ(product.rows(), 3);
  EXPECT_EQ(product.cols(), 4);
  EXPECT_EQ(product.MaxAbs(), 0.0);
}

}  // namespace
}  // namespace fedsc
