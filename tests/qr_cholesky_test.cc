#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/qr.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

Matrix RandomSpd(int64_t n, Rng* rng) {
  const Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = Gram(a);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

class QrShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(QrShapeTest, ReconstructsAndIsOrthonormal) {
  const auto [rows, cols] = GetParam();
  Rng rng(100 + rows * 31 + cols);
  const Matrix a = RandomMatrix(rows, cols, &rng);
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  const int64_t k = std::min(rows, cols);
  EXPECT_EQ(qr->q.rows(), rows);
  EXPECT_EQ(qr->q.cols(), k);
  EXPECT_EQ(qr->r.rows(), k);
  EXPECT_EQ(qr->r.cols(), cols);

  // A = Q R.
  EXPECT_TRUE(AllClose(MatMul(qr->q, qr->r), a, 1e-10));
  // Q^T Q = I.
  EXPECT_TRUE(AllClose(Gram(qr->q), Matrix::Identity(k), 1e-12));
  // R upper triangular.
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = j + 1; i < k; ++i) EXPECT_EQ(qr->r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                      std::pair<int64_t, int64_t>{5, 5},
                      std::pair<int64_t, int64_t>{12, 4},
                      std::pair<int64_t, int64_t>{4, 12},
                      std::pair<int64_t, int64_t>{30, 7},
                      std::pair<int64_t, int64_t>{64, 64},
                      std::pair<int64_t, int64_t>{33, 1},    // n = 1
                      std::pair<int64_t, int64_t>{96, 96},
                      std::pair<int64_t, int64_t>{200, 40},  // tall
                      std::pair<int64_t, int64_t>{40, 200},  // wide
                      std::pair<int64_t, int64_t>{257, 65},
                      std::pair<int64_t, int64_t>{31, 33}));

TEST(QrTest, EmptyInputFails) {
  EXPECT_FALSE(HouseholderQr(Matrix()).ok());
}

TEST(QrTest, HandlesRankDeficientColumns) {
  Rng rng(43);
  // 120 x 40 with every third column a copy of the one before it.
  Matrix a = RandomMatrix(120, 40, &rng);
  for (int64_t j = 2; j < a.cols(); j += 3) {
    for (int64_t i = 0; i < a.rows(); ++i) a(i, j) = a(i, j - 1);
  }
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(AllClose(MatMul(qr->q, qr->r), a, 1e-10));
  EXPECT_TRUE(AllClose(Gram(qr->q), Matrix::Identity(40), 1e-12));
}

TEST(QrTest, HandlesZeroMatrix) {
  auto qr = HouseholderQr(Matrix(50, 20));
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(AllClose(qr->r, Matrix(20, 20), 0.0));
  EXPECT_TRUE(AllClose(MatMul(qr->q, qr->r), Matrix(50, 20), 0.0));
}

TEST(QrTest, HandlesDependentColumns) {
  Matrix a = Matrix::FromColumns({{1, 0, 0}, {2, 0, 0}, {0, 1, 0}});
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(AllClose(MatMul(qr->q, qr->r), a, 1e-12));
}

TEST(OrthonormalBasisTest, DropsDependentColumns) {
  const Matrix a = Matrix::FromColumns({{1, 0, 0}, {2, 0, 0}, {0, 3, 0}});
  const Matrix basis = OrthonormalColumnBasis(a);
  EXPECT_EQ(basis.cols(), 2);
  EXPECT_TRUE(AllClose(Gram(basis), Matrix::Identity(2), 1e-12));
}

TEST(OrthonormalBasisTest, ZeroMatrixGivesEmptyBasis) {
  EXPECT_EQ(OrthonormalColumnBasis(Matrix(4, 3)).cols(), 0);
}

TEST(OrthonormalBasisTest, SpansTheSameSpace) {
  Rng rng(7);
  const Matrix a = RandomMatrix(10, 4, &rng);
  const Matrix basis = OrthonormalColumnBasis(a);
  ASSERT_EQ(basis.cols(), 4);
  // Every original column is reproduced by its projection onto the basis.
  const Matrix coeffs = MatMulTN(basis, a);
  EXPECT_TRUE(AllClose(MatMul(basis, coeffs), a, 1e-10));
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(11);
  for (int64_t n : {1, 2, 5, 20, 60}) {
    const Matrix a = RandomSpd(n, &rng);
    auto l = CholeskyFactor(a);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    EXPECT_TRUE(AllClose(MatMulNT(*l, *l), a, 1e-8 * a.MaxAbs()));
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i < j; ++i) EXPECT_EQ((*l)(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -1.0;
  EXPECT_EQ(CholeskyFactor(a).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, SolveSpdMatchesMultiply) {
  Rng rng(13);
  const Matrix a = RandomSpd(8, &rng);
  const Matrix x_true = RandomMatrix(8, 3, &rng);
  const Matrix b = MatMul(a, x_true);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(AllClose(*x, x_true, 1e-8));
}

TEST(CholeskyTest, SpdInverse) {
  Rng rng(17);
  const Matrix a = RandomSpd(6, &rng);
  auto inv = SpdInverse(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(AllClose(MatMul(a, *inv), Matrix::Identity(6), 1e-8));
}

TEST(CholeskyTest, TriangularSolvesInPlace) {
  Matrix l(2, 2);
  l(0, 0) = 2.0;
  l(1, 0) = 1.0;
  l(1, 1) = 3.0;
  Matrix b = Matrix::FromColumn({4.0, 11.0});
  SolveLowerInPlace(l, &b);   // y0 = 2, y1 = (11 - 2)/3 = 3
  EXPECT_NEAR(b(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(b(1, 0), 3.0, 1e-12);
  SolveLowerTransposedInPlace(l, &b);  // x1 = 1, x0 = (2 - 1)/2 = 0.5
  EXPECT_NEAR(b(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(b(0, 0), 0.5, 1e-12);
}

// A rank-k Gram X^T X (X = rows x n of rank k) factors into k columns with
// L L^T = X^T X to rounding; each column is zero on the earlier pivots'
// rows, so L is lower triangular up to a row permutation.
TEST(PivotedCholeskyTest, FactorsAGramAtItsNumericalRank) {
  Rng rng(19);
  for (const auto& [rows, n, rank] :
       {std::tuple<int64_t, int64_t, int64_t>{40, 30, 1}, {40, 30, 7},
        {12, 30, 12}, {30, 30, 29}, {8, 5, 5}}) {
    const Matrix x = MatMul(RandomMatrix(rows, rank, &rng),
                            RandomMatrix(rank, n, &rng));
    const Matrix gram = Gram(x);
    double max_diag = 0.0;
    for (int64_t j = 0; j < n; ++j) max_diag = std::max(max_diag, gram(j, j));
    const double tol = static_cast<double>(std::max(rows, n)) *
                       std::numeric_limits<double>::epsilon() * max_diag;
    const auto l = PivotedCholeskyFactor(gram, tol, n);
    ASSERT_TRUE(l.has_value()) << rows << "x" << n << " rank " << rank;
    EXPECT_EQ(l->rows(), n);
    EXPECT_EQ(l->cols(), rank) << rows << "x" << n;
    EXPECT_TRUE(AllClose(MatMulNT(*l, *l), gram, 1e-12 * max_diag))
        << rows << "x" << n << " rank " << rank;
    // Column i is exactly zero on the i earlier pivots' rows, and its own
    // pivot's entry is its largest.
    std::vector<int64_t> pivots;
    for (int64_t i = 0; i < l->cols(); ++i) {
      const double* col = l->ColData(i);
      for (const int64_t p : pivots) EXPECT_EQ(col[p], 0.0);
      const int64_t pivot =
          std::max_element(col, col + n, [](double a, double b) {
            return std::fabs(a) < std::fabs(b);
          }) - col;
      EXPECT_GT(col[pivot], 0.0);
      pivots.push_back(pivot);
    }
  }
}

// The factorization gives up once the rank passes max_rank, and a zero
// matrix or a NaN diagonal is handled without a factor.
TEST(PivotedCholeskyTest, QuitsPastMaxRankAndOnNonFiniteInput) {
  Rng rng(23);
  const Matrix gram =
      Gram(MatMul(RandomMatrix(20, 6, &rng), RandomMatrix(6, 15, &rng)));
  const double tol = 1e-10 * gram.MaxAbs();
  EXPECT_FALSE(PivotedCholeskyFactor(gram, tol, 5).has_value());
  const auto at_rank = PivotedCholeskyFactor(gram, tol, 6);
  ASSERT_TRUE(at_rank.has_value());
  EXPECT_EQ(at_rank->cols(), 6);
  EXPECT_FALSE(PivotedCholeskyFactor(gram, tol, 0).has_value());

  const auto zero = PivotedCholeskyFactor(Matrix(4, 4), 0.0, 4);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->rows(), 4);
  EXPECT_EQ(zero->cols(), 0);

  Matrix bad = gram;
  bad(3, 3) = std::nan("");
  EXPECT_FALSE(PivotedCholeskyFactor(bad, tol, 15).has_value());
}

}  // namespace
}  // namespace fedsc
