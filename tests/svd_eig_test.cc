#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "linalg/svd.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

// --- Test-only reference: the full decomposition the windowed solver
// replaced, EISPACK tred2 with Q accumulated, then tql2 rotating Q's
// columns, sorted ascending. ---

void ReferenceTred2(Matrix* zm, Vector* dv, Vector* ev) {
  Matrix& z = *zm;
  Vector& d = *dv;
  Vector& e = *ev;
  const int64_t n = z.rows();
  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(n), 0.0);
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int64_t k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[static_cast<size_t>(i)] = z(i, l);
      } else {
        for (int64_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[static_cast<size_t>(i)] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (int64_t j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (int64_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int64_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[static_cast<size_t>(j)] = g / h;
          f += e[static_cast<size_t>(j)] * z(i, j);
        }
        const double hh = f / (h + h);
        for (int64_t j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[static_cast<size_t>(j)] - hh * f;
          e[static_cast<size_t>(j)] = g;
          for (int64_t k = 0; k <= j; ++k) {
            z(j, k) -= f * e[static_cast<size_t>(k)] + g * z(i, k);
          }
        }
      }
    } else {
      e[static_cast<size_t>(i)] = z(i, l);
    }
    d[static_cast<size_t>(i)] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (d[static_cast<size_t>(i)] != 0.0) {
      for (int64_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (int64_t k = 0; k < i; ++k) g += z(i, k) * z(k, j);
        for (int64_t k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[static_cast<size_t>(i)] = z(i, i);
    z(i, i) = 1.0;
    for (int64_t j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

bool ReferenceTql2(Vector* dv, Vector* ev, Matrix* zm) {
  Vector& d = *dv;
  Vector& e = *ev;
  Matrix& z = *zm;
  const int64_t n = static_cast<int64_t>(d.size());
  for (int64_t i = 1; i < n; ++i) {
    e[static_cast<size_t>(i - 1)] = e[static_cast<size_t>(i)];
  }
  e[static_cast<size_t>(n - 1)] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  double tst1 = 0.0;
  for (int64_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[static_cast<size_t>(l)]) +
                              std::fabs(e[static_cast<size_t>(l)]));
    int iterations = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        if (std::fabs(e[static_cast<size_t>(m)]) <= eps * tst1) break;
      }
      if (m != l) {
        if (iterations++ == 50) return false;
        double g = (d[static_cast<size_t>(l + 1)] - d[static_cast<size_t>(l)]) /
                   (2.0 * e[static_cast<size_t>(l)]);
        double r = std::hypot(g, 1.0);
        g = d[static_cast<size_t>(m)] - d[static_cast<size_t>(l)] +
            e[static_cast<size_t>(l)] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int64_t i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[static_cast<size_t>(i)];
          const double b = c * e[static_cast<size_t>(i)];
          r = std::hypot(f, g);
          e[static_cast<size_t>(i + 1)] = r;
          if (r == 0.0) {
            d[static_cast<size_t>(i + 1)] -= p;
            e[static_cast<size_t>(m)] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[static_cast<size_t>(i + 1)] - p;
          r = (d[static_cast<size_t>(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[static_cast<size_t>(i + 1)] = g + p;
          g = c * r - b;
          for (int64_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[static_cast<size_t>(l)] -= p;
        e[static_cast<size_t>(l)] = g;
        e[static_cast<size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

EigResult ReferenceEigen(const Matrix& a) {
  const int64_t n = a.rows();
  Matrix z = a;
  Vector d;
  Vector e;
  ReferenceTred2(&z, &d, &e);
  EXPECT_TRUE(ReferenceTql2(&d, &e, &z)) << "reference QL did not converge";
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) order[static_cast<size_t>(j)] = j;
  std::stable_sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
    return d[static_cast<size_t>(i)] < d[static_cast<size_t>(j)];
  });
  EigResult result;
  result.vectors = Matrix(n, n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    result.values.push_back(d[static_cast<size_t>(src)]);
    result.vectors.SetCol(j, z.ColData(src));
  }
  return result;
}

Matrix Reconstruct(const SvdResult& svd) {
  Matrix us = svd.u;
  for (int64_t j = 0; j < us.cols(); ++j) {
    Scal(svd.s[static_cast<size_t>(j)], us.ColData(j), us.rows());
  }
  return MatMulNT(us, svd.v);
}

class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(SvdShapeTest, ReconstructsWithOrthonormalFactors) {
  const auto [rows, cols] = GetParam();
  Rng rng(1000 + rows * 17 + cols);
  const Matrix a = RandomMatrix(rows, cols, &rng);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok()) << svd.status().ToString();
  const int64_t k = std::min(rows, cols);
  ASSERT_EQ(static_cast<int64_t>(svd->s.size()), k);
  EXPECT_EQ(svd->u.rows(), rows);
  EXPECT_EQ(svd->v.rows(), cols);

  // Descending singular values.
  for (size_t i = 1; i < svd->s.size(); ++i) {
    EXPECT_GE(svd->s[i - 1], svd->s[i]);
    EXPECT_GE(svd->s[i], 0.0);
  }
  // A = U diag(s) V^T.
  EXPECT_TRUE(AllClose(Reconstruct(*svd), a, 1e-9 * std::max(1.0, svd->s[0])));
  // Orthonormal factors (all singular values are positive for Gaussian a).
  EXPECT_TRUE(AllClose(Gram(svd->u), Matrix::Identity(k), 1e-10));
  EXPECT_TRUE(AllClose(Gram(svd->v), Matrix::Identity(k), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapeTest,
                         ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                                           std::pair<int64_t, int64_t>{6, 6},
                                           std::pair<int64_t, int64_t>{20, 5},
                                           std::pair<int64_t, int64_t>{5, 20},
                                           std::pair<int64_t, int64_t>{40, 40},
                                           std::pair<int64_t, int64_t>{100,
                                                                       12},
                                           std::pair<int64_t, int64_t>{160,
                                                                       110},
                                           std::pair<int64_t, int64_t>{110,
                                                                       160},
                                           std::pair<int64_t, int64_t>{64, 8},
                                           std::pair<int64_t, int64_t>{300,
                                                                       10},
                                           std::pair<int64_t, int64_t>{512,
                                                                       32},
                                           std::pair<int64_t, int64_t>{100,
                                                                       50},
                                           std::pair<int64_t, int64_t>{8,
                                                                       300}));

TEST(SvdTest, KnownDiagonal) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -5.0;
  a(2, 2) = 1.0;
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->s[0], 5.0, 1e-12);
  EXPECT_NEAR(svd->s[1], 3.0, 1e-12);
  EXPECT_NEAR(svd->s[2], 1.0, 1e-12);
}

TEST(SvdTest, RankDeficientMatrix) {
  // Two identical columns: rank 1.
  const Matrix a = Matrix::FromColumns({{1, 2, 3}, {1, 2, 3}});
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->s[1], 0.0, 1e-10);
  EXPECT_EQ(NumericalRank(svd->s, 1e-8), 1);
  EXPECT_TRUE(AllClose(Reconstruct(*svd), a, 1e-10));
}

TEST(SvdTest, EmptyFails) { EXPECT_FALSE(JacobiSvd(Matrix()).ok()); }

TEST(SvdTest, RankDeficientTallMatrix) {
  Rng rng(53);
  // 200 x 12 of rank 4, with two columns exactly zero: those are exact null
  // directions, whose U columns stay exactly zero.
  const Matrix basis = RandomMatrix(200, 4, &rng);
  Matrix coeffs = RandomMatrix(4, 12, &rng);
  for (int64_t i = 0; i < 4; ++i) coeffs(i, 3) = coeffs(i, 8) = 0.0;
  const Matrix a = MatMul(basis, coeffs);
  auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(NumericalRank(svd->s, 1e-8), 4);
  EXPECT_TRUE(AllClose(Reconstruct(*svd), a, 1e-8 * svd->s[0]));
  EXPECT_EQ(svd->s[10], 0.0);
  EXPECT_EQ(svd->s[11], 0.0);
  for (int64_t j = 0; j < 12; ++j) {
    const double norm = Norm2(svd->u.ColData(j), a.rows());
    if (svd->s[static_cast<size_t>(j)] == 0.0) {
      EXPECT_EQ(norm, 0.0) << "U column " << j;
    } else {
      EXPECT_NEAR(norm, 1.0, 1e-12) << "U column " << j;
    }
  }
}

TEST(NumericalRankTest, Thresholding) {
  EXPECT_EQ(NumericalRank({10.0, 1.0, 1e-10}, 1e-8), 2);
  EXPECT_EQ(NumericalRank({10.0, 1.0, 1e-10}, 1e-12), 3);
  EXPECT_EQ(NumericalRank({}, 1e-8), 0);
  EXPECT_EQ(NumericalRank({0.0, 0.0}, 1e-8), 0);
}

TEST(PrincipalSubspaceTest, RecoversSpan) {
  Rng rng(23);
  // Points on a 3-dimensional subspace of R^10.
  const Matrix basis = RandomMatrix(10, 3, &rng);
  const Matrix coeffs = RandomMatrix(3, 30, &rng);
  const Matrix points = MatMul(basis, coeffs);
  auto u = PrincipalSubspace(points, 0, 1e-8);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->cols(), 3);
  // Projection of the points onto the basis reproduces them.
  const Matrix proj = MatMul(*u, MatMulTN(*u, points));
  EXPECT_TRUE(AllClose(proj, points, 1e-8 * points.MaxAbs()));
}

TEST(PrincipalSubspaceTest, FixedRankAndZeroMatrix) {
  Rng rng(29);
  const Matrix a = RandomMatrix(8, 5, &rng);
  auto u = PrincipalSubspace(a, 2);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->cols(), 2);
  EXPECT_FALSE(PrincipalSubspace(Matrix(4, 4), 0).ok());
}

TEST(EigTest, KnownTwoByTwo) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->values[1], 3.0, 1e-12);
}

class EigSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(EigSizeTest, DecomposesRandomSymmetric) {
  const int64_t n = GetParam();
  Rng rng(2000 + n);
  Matrix a = RandomMatrix(n, n, &rng);
  a += a.Transposed();  // symmetrize

  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();

  // Ascending eigenvalues.
  for (size_t i = 1; i < eig->values.size(); ++i) {
    EXPECT_LE(eig->values[i - 1], eig->values[i]);
  }
  // Orthonormal eigenvectors.
  EXPECT_TRUE(AllClose(Gram(eig->vectors), Matrix::Identity(n), 1e-9));
  // A V = V diag(values).
  const Matrix av = MatMul(a, eig->vectors);
  Matrix vd = eig->vectors;
  for (int64_t j = 0; j < n; ++j) {
    Scal(eig->values[static_cast<size_t>(j)], vd.ColData(j), n);
  }
  EXPECT_TRUE(AllClose(av, vd, 1e-8 * std::max(1.0, a.MaxAbs())));

  // Eigenvalues-only path agrees.
  auto values_only = SymmetricEigenvalues(a);
  ASSERT_TRUE(values_only.ok());
  for (size_t i = 0; i < eig->values.size(); ++i) {
    EXPECT_NEAR((*values_only)[i], eig->values[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizeTest,
                         ::testing::Values<int64_t>(1, 2, 3, 10, 33, 80));

// Residual checks for a rank-deficient spectrum: ||G V - V diag(values)||_F
// <= c n eps ||G||_F and ||V^T V - I||_F <= c n eps.
void ExpectAccurateEigen(const Matrix& g) {
  const int64_t n = g.rows();
  auto eig = SymmetricEigen(g);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  const double bound = 8.0 * static_cast<double>(n) *
                       std::numeric_limits<double>::epsilon();
  Matrix residual = MatMul(g, eig->vectors);
  for (int64_t j = 0; j < n; ++j) {
    Axpy(-eig->values[static_cast<size_t>(j)], eig->vectors.ColData(j),
         residual.ColData(j), n);
  }
  EXPECT_LE(residual.FrobeniusNorm(), bound * g.FrobeniusNorm());
  Matrix orthogonality = Gram(eig->vectors);
  orthogonality -= Matrix::Identity(n);
  EXPECT_LE(orthogonality.FrobeniusNorm(), bound);
}

// Grams of column-normalized rank-r panels have n - r eigenvalues at
// rounding level, whose off-diagonals after tridiagonalization sit near
// eps ||G|| rather than eps times their own tiny diagonal. Deflation must be
// measured against the matrix's running norm for QL to split them off.
TEST(EigTest, RankDeficientGramsDeflate) {
  for (const int64_t n : {128, 130, 200}) {
    for (const int64_t r : {2, 4, 8, 16}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) +
                     " seed=" + std::to_string(seed));
        Rng rng(seed * 1000 + static_cast<uint64_t>(n * 16 + r));
        Matrix x = MatMul(RandomMatrix(1024, r, &rng),
                          RandomMatrix(r, n, &rng));
        x.NormalizeColumns();
        ExpectAccurateEigen(Gram(x));
      }
    }
  }
}

// A four-component graph Laplacian of order 128: a four-fold zero cluster.
TEST(EigTest, BlockDiagonalLaplacianZeroCluster) {
  constexpr int64_t kBlocks = 4;
  constexpr int64_t kBlockSize = 32;
  constexpr int64_t n = kBlocks * kBlockSize;
  Rng rng(77);
  Matrix laplacian(n, n);
  for (int64_t b = 0; b < kBlocks; ++b) {
    for (int64_t i = b * kBlockSize; i < (b + 1) * kBlockSize; ++i) {
      for (int64_t j = b * kBlockSize; j < i; ++j) {
        const double w = rng.Uniform();
        laplacian(i, j) = laplacian(j, i) = -w;
        laplacian(i, i) += w;
        laplacian(j, j) += w;
      }
    }
  }
  ExpectAccurateEigen(laplacian);
  auto values = SymmetricEigenvalues(laplacian);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  for (int64_t i = 0; i < kBlocks; ++i) {
    EXPECT_NEAR((*values)[static_cast<size_t>(i)], 0.0, 1e-10);
  }
  EXPECT_GT((*values)[kBlocks], 1.0);
}

TEST(EigTest, TraceAndDeterminantInvariants) {
  Rng rng(31);
  Matrix a = RandomMatrix(6, 6, &rng);
  a += a.Transposed();
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  double trace = 0.0;
  for (int64_t i = 0; i < 6; ++i) trace += a(i, i);
  double eig_sum = 0.0;
  for (double v : eig->values) eig_sum += v;
  EXPECT_NEAR(trace, eig_sum, 1e-9);
}

// --- Blocked vs. unblocked tridiagonalization (tentpole coverage) ---

class EigEngineTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(EigEngineTest, BlockedAgreesWithUnblocked) {
  const int64_t n = GetParam();
  Rng rng(4000 + n);
  Matrix a = RandomMatrix(n, n, &rng);
  a += a.Transposed();
  auto eu = SymmetricEigensolver(internal_eig::Tred2Tridiagonal(a), 1)
                .Pairs(0, n);
  auto eb = SymmetricEigensolver(internal_eig::BlockedTridiagonal(a, 1), 1)
                .Pairs(0, n);
  ASSERT_TRUE(eu.ok()) << eu.status().ToString();
  ASSERT_TRUE(eb.ok()) << eb.status().ToString();

  const double scale = std::max(1.0, a.MaxAbs());
  for (size_t i = 0; i < eu->values.size(); ++i) {
    EXPECT_NEAR(eu->values[i], eb->values[i], 1e-9 * scale) << "lambda " << i;
  }
  // The blocked engine's eigenvectors are orthonormal and satisfy
  // A V = V diag(values) on their own (eigenvector columns can differ from
  // the unblocked ones by sign / rotation inside degenerate clusters, so
  // compare against the residual, not column-by-column).
  EXPECT_TRUE(AllClose(Gram(eb->vectors), Matrix::Identity(n), 1e-9));
  const Matrix av = MatMul(a, eb->vectors);
  Matrix vd = eb->vectors;
  for (int64_t j = 0; j < n; ++j) {
    Scal(eb->values[static_cast<size_t>(j)], vd.ColData(j), n);
  }
  EXPECT_TRUE(AllClose(av, vd, 1e-8 * scale));

  // Eigenvalues-only path agrees with the full decomposition per engine.
  auto vb = SymmetricEigensolver(internal_eig::BlockedTridiagonal(a, 1), 1)
                .Values(0, n);
  ASSERT_TRUE(vb.ok());
  ASSERT_EQ(*vb, eb->values);
}

// 3 = smallest order with a reflector, 33/65 = panel boundary stragglers,
// 130 = above the dispatch cutoff.
INSTANTIATE_TEST_SUITE_P(Sizes, EigEngineTest,
                         ::testing::Values<int64_t>(3, 4, 33, 65, 130));

TEST(EigEngineTest, AutoDispatchIsPureFunctionOfShape) {
  Rng rng(61);
  // Below the cutoff SymmetricEigen runs tred2 bit-for-bit; at the cutoff,
  // the blocked engine.
  static_assert(40 < kBlockedEigCutoff, "n = 40 must reach tred2");
  for (const int64_t n : {int64_t{40}, kBlockedEigCutoff}) {
    Matrix a = RandomMatrix(n, n, &rng);
    a += a.Transposed();
    auto picked = SymmetricEigen(a);
    auto engine =
        SymmetricEigensolver(n < kBlockedEigCutoff
                                 ? internal_eig::Tred2Tridiagonal(a)
                                 : internal_eig::BlockedTridiagonal(a, 1),
                             1)
            .Pairs(0, n);
    ASSERT_TRUE(picked.ok() && engine.ok());
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(picked->vectors(i, j), engine->vectors(i, j)) << "n " << n;
      }
    }
  }
}

TEST(EigEngineTest, BlockedReadsOnlyLowerTriangle) {
  Rng rng(67);
  const int64_t n = 50;
  Matrix a = RandomMatrix(n, n, &rng);
  a += a.Transposed();
  Matrix garbage_upper = a;
  for (int64_t j = 1; j < n; ++j) {
    for (int64_t i = 0; i < j; ++i) garbage_upper(i, j) = rng.Gaussian();
  }
  auto clean = SymmetricEigensolver(internal_eig::BlockedTridiagonal(a, 1), 1)
                   .Pairs(0, n);
  auto dirty =
      SymmetricEigensolver(internal_eig::BlockedTridiagonal(garbage_upper, 1),
                           1)
          .Pairs(0, n);
  ASSERT_TRUE(clean.ok() && dirty.ok());
  ASSERT_EQ(clean->values, dirty->values);
}

TEST(EigEngineTest, CompactWyTIsTheReflectorProduct) {
  Rng rng(71);
  // (rows, reflectors): one reflector, a square panel, a full 32-wide panel
  // and a ragged one. One scale is zero (an identity reflector).
  for (const auto& [m, b] : {std::pair<int64_t, int64_t>{5, 1},
                            std::pair<int64_t, int64_t>{12, 12},
                            std::pair<int64_t, int64_t>{70, 32},
                            std::pair<int64_t, int64_t>{40, 7}}) {
    Matrix v(m, b);
    Vector taus(static_cast<size_t>(b));
    for (int64_t j = 0; j < b; ++j) {
      v(j, j) = 1.0;
      for (int64_t i = j + 1; i < m; ++i) v(i, j) = rng.Gaussian();
      const double* col = v.ColData(j);
      taus[static_cast<size_t>(j)] = 2.0 / Dot(col, col, m);
    }
    taus[static_cast<size_t>(b / 2)] = 0.0;
    const Matrix t = internal_eig::BuildCompactWyT(v, taus.data());
    // T is upper triangular.
    for (int64_t j = 0; j < b; ++j) {
      for (int64_t i = j + 1; i < b; ++i) EXPECT_EQ(t(i, j), 0.0);
    }
    // H_0 H_1 ... H_{b-1}, one explicit reflector at a time.
    Matrix product = Matrix::Identity(m);
    for (int64_t j = 0; j < b; ++j) {
      Matrix h = Matrix::Identity(m);
      const double* col = v.ColData(j);
      for (int64_t c = 0; c < m; ++c) {
        for (int64_t r = 0; r < m; ++r) {
          h(r, c) -= taus[static_cast<size_t>(j)] * col[r] * col[c];
        }
      }
      product = MatMul(product, h);
    }
    Matrix wy = MatMul(MatMul(v, t), v.Transposed());
    Scal(-1.0, wy.data(), wy.size());
    for (int64_t i = 0; i < m; ++i) wy(i, i) += 1.0;
    EXPECT_TRUE(AllClose(wy, product, 1e-12)) << m << " x " << b;
  }
}

// --- The windowed solver against the reference ---

Matrix RandomSymmetric(int64_t n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  a += a.Transposed();
  return a;
}

double SpectralNormOf(const EigResult& reference) {
  double norm = 0.0;
  for (double v : reference.values) norm = std::max(norm, std::fabs(v));
  return norm;
}

// ||V^T V - I||_F for the columns of v.
double OrthogonalityError(const Matrix& v) {
  Matrix error = Gram(v);
  error -= Matrix::Identity(v.cols());
  return error.FrobeniusNorm();
}

// max_j ||A v_j - lambda_j v_j||_2.
double MaxResidual(const Matrix& a, const EigResult& pairs) {
  const int64_t n = a.rows();
  const Matrix av = MatMul(a, pairs.vectors);
  double worst = 0.0;
  for (int64_t j = 0; j < pairs.vectors.cols(); ++j) {
    Vector r(av.ColData(j), av.ColData(j) + n);
    Axpy(-pairs.values[static_cast<size_t>(j)], pairs.vectors.ColData(j),
         r.data(), n);
    worst = std::max(worst, Norm2(r.data(), n));
  }
  return worst;
}

// sin of the largest principal angle between span(v) and span(u), both
// with orthonormal columns of the same count, bounded by
// ||(I - U U^T) V||_F.
double SubspaceDistance(const Matrix& v, const Matrix& u) {
  Matrix off = v;
  off -= MatMul(u, MatMulTN(u, v));
  return off.FrobeniusNorm();
}

// Checks the window [first, first + count) of `a` against the reference:
// values within 4 n eps ||A||, residuals within 10 n eps ||A||,
// orthogonality within 10 n eps, and Values equal to Pairs' values.
void ExpectWindowAccurate(const Matrix& a, const EigResult& reference,
                          int64_t first, int64_t count) {
  const int64_t n = a.rows();
  SCOPED_TRACE("n=" + std::to_string(n) + " window=[" +
               std::to_string(first) + ", " + std::to_string(first + count) +
               ")");
  const double eps = std::numeric_limits<double>::epsilon();
  const double norm = SpectralNormOf(reference);
  auto solver = SymmetricEigensolver::Create(a);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto pairs = solver->Pairs(first, count);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  auto values = solver->Values(first, count);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  ASSERT_EQ(*values, pairs->values);
  ASSERT_EQ(pairs->vectors.rows(), n);
  ASSERT_EQ(pairs->vectors.cols(), count);
  const double n_eps = static_cast<double>(n) * eps;
  for (int64_t j = 0; j < count; ++j) {
    EXPECT_NEAR(pairs->values[static_cast<size_t>(j)],
                reference.values[static_cast<size_t>(first + j)],
                4.0 * n_eps * norm)
        << "lambda " << first + j;
  }
  EXPECT_LE(MaxResidual(a, *pairs), 10.0 * n_eps * norm);
  EXPECT_LE(OrthogonalityError(pairs->vectors), 10.0 * n_eps);
}

class EigWindowTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(EigWindowTest, MatchesTheFullDecomposition) {
  const int64_t n = GetParam();
  Rng rng(5000 + static_cast<uint64_t>(n));
  const Matrix a = RandomSymmetric(n, &rng);
  const EigResult reference = ReferenceEigen(a);
  const int64_t k = std::min<int64_t>(n, 5);
  ExpectWindowAccurate(a, reference, n - 1, 1);          // top-1
  ExpectWindowAccurate(a, reference, n - k, k);          // top-k
  ExpectWindowAccurate(a, reference, 0, std::min<int64_t>(n, 2));  // bottom-2
  ExpectWindowAccurate(a, reference, 0, n);              // all
}

// 1-3: the smallest orders; 12: a fleet_z2500 device; 63/64/65: the
// tred2/blocked cutoff; 120: a noniid2_z160 device; 257: past eight panels.
INSTANTIATE_TEST_SUITE_P(Sizes, EigWindowTest,
                         ::testing::Values<int64_t>(1, 2, 3, 12, 63, 64, 65,
                                                    120, 257));

// The Sturm count GramSubspace reads its rank from agrees with the
// reference spectrum between every pair of eigenvalues.
TEST(EigWindowTest, CountBelowMatchesTheSpectrum) {
  for (const int64_t n : {int64_t{12}, int64_t{65}}) {
    Rng rng(5300 + static_cast<uint64_t>(n));
    const Matrix a = RandomSymmetric(n, &rng);
    const EigResult reference = ReferenceEigen(a);
    auto solver = SymmetricEigensolver::Create(a);
    ASSERT_TRUE(solver.ok());
    EXPECT_EQ(solver->CountBelow(reference.values.front() - 1.0), 0);
    EXPECT_EQ(solver->CountBelow(reference.values.back() + 1.0), n);
    for (int64_t j = 1; j < n; ++j) {
      const double between =
          0.5 * (reference.values[static_cast<size_t>(j - 1)] +
                 reference.values[static_cast<size_t>(j)]);
      EXPECT_EQ(solver->CountBelow(between), j) << "n " << n;
    }
  }
}

// Exact multiplicities: c copies of one block put its top eigenvalue c
// times at the top. Inside a repeated eigenvalue only the span is defined,
// so the window's vectors are compared with the reference's by principal
// angles.
TEST(EigWindowTest, RepeatedTopEigenvalueSpansTheEigenspace) {
  for (const int64_t c : {int64_t{2}, int64_t{3}, int64_t{5}}) {
    for (const int64_t block : {int64_t{4}, int64_t{20}}) {
      SCOPED_TRACE("c=" + std::to_string(c) + " block=" +
                   std::to_string(block));
      Rng rng(5400 + static_cast<uint64_t>(c * 100 + block));
      const Matrix b = RandomSymmetric(block, &rng);
      const int64_t n = c * block;
      Matrix a(n, n);
      for (int64_t copy = 0; copy < c; ++copy) {
        for (int64_t j = 0; j < block; ++j) {
          for (int64_t i = 0; i < block; ++i) {
            a(copy * block + i, copy * block + j) = b(i, j);
          }
        }
      }
      const EigResult reference = ReferenceEigen(a);
      auto solver = SymmetricEigensolver::Create(a);
      ASSERT_TRUE(solver.ok());
      auto top = solver->Pairs(n - c, c);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      const double norm = SpectralNormOf(reference);
      const double eps = std::numeric_limits<double>::epsilon();
      for (int64_t j = 0; j < c; ++j) {
        EXPECT_NEAR(top->values[static_cast<size_t>(j)],
                    reference.values[static_cast<size_t>(n - 1)],
                    4.0 * static_cast<double>(n) * eps * norm);
      }
      EXPECT_LE(OrthogonalityError(top->vectors),
                10.0 * static_cast<double>(n) * eps);
      EXPECT_LE(MaxResidual(a, *top),
                10.0 * static_cast<double>(n) * eps * norm);
      EXPECT_LE(SubspaceDistance(top->vectors,
                                 reference.vectors.ColRange(n - c, n)),
                1e-10);
    }
  }
}

// Identity, zero and diagonal matrices reduce to a tridiagonal with every
// e_i = 0, so T splits into 1 x 1 blocks.
TEST(EigWindowTest, SplitTridiagonalsGiveUnitVectors) {
  const int64_t n = 65;
  Matrix diagonal(n, n);
  Rng rng(5500);
  for (int64_t i = 0; i < n; ++i) diagonal(i, i) = rng.Gaussian();
  const std::vector<Matrix> inputs = {Matrix::Identity(12),
                                      Matrix::Identity(n), Matrix(12, 12),
                                      Matrix(n, n), diagonal};
  for (size_t input = 0; input < inputs.size(); ++input) {
    const Matrix& a = inputs[input];
    const int64_t order = a.rows();
    SCOPED_TRACE("n=" + std::to_string(order) +
                 " max=" + std::to_string(a.MaxAbs()));
    const EigResult reference = ReferenceEigen(a);
    auto eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok()) << eig.status().ToString();
    EXPECT_EQ(eig->values, reference.values);
    EXPECT_LE(OrthogonalityError(eig->vectors), 1e-15);
    EXPECT_EQ(MaxResidual(a, *eig), 0.0);
    if (input + 1 == inputs.size()) {
      // Distinct diagonal entries: each vector spans its reference's.
      for (int64_t j = 0; j < order; ++j) {
        EXPECT_LE(SubspaceDistance(eig->vectors.ColRange(j, j + 1),
                                   reference.vectors.ColRange(j, j + 1)),
                  1e-15);
      }
    }
  }
}

// Entries near 2^600 square past the largest double and near 2^-600 below
// the smallest; the solver scales by an exact power of two first, so both
// come back right, and a non-finite matrix is a typed error.
TEST(EigWindowTest, ExtremeScalesSolveOrFailTyped) {
  for (const int64_t n : {int64_t{12}, int64_t{65}}) {
    Rng rng(5600 + static_cast<uint64_t>(n));
    const Matrix b = RandomSymmetric(n, &rng);
    const EigResult reference = ReferenceEigen(b);
    const double norm = SpectralNormOf(reference);
    const double eps = std::numeric_limits<double>::epsilon();
    for (const int exponent : {600, -600}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " 2^" + std::to_string(exponent));
      Matrix a = b;
      a *= std::ldexp(1.0, exponent);
      auto solver = SymmetricEigensolver::Create(a);
      ASSERT_TRUE(solver.ok()) << solver.status().ToString();
      for (const auto& [first, count] :
           {std::pair<int64_t, int64_t>{n - 3, 3}, {0, n}}) {
        auto pairs = solver->Pairs(first, count);
        ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
        for (int64_t j = 0; j < count; ++j) {
          EXPECT_NEAR(std::ldexp(pairs->values[static_cast<size_t>(j)],
                                 -exponent),
                      reference.values[static_cast<size_t>(first + j)],
                      4.0 * static_cast<double>(n) * eps * norm);
        }
        EXPECT_LE(OrthogonalityError(pairs->vectors),
                  10.0 * static_cast<double>(n) * eps);
        EigResult unscaled = *pairs;
        for (double& v : unscaled.values) v = std::ldexp(v, -exponent);
        EXPECT_LE(MaxResidual(b, unscaled),
                  10.0 * static_cast<double>(n) * eps * norm);
      }
    }
  }
  Matrix bad = Matrix::Identity(4);
  bad(2, 1) = std::numeric_limits<double>::quiet_NaN();
  auto nan = SymmetricEigensolver::Create(bad);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
  bad(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(SymmetricEigensolver::Create(bad).ok());
}

TEST(EigWindowTest, RejectsWindowsOutsideTheSpectrum) {
  auto solver = SymmetricEigensolver::Create(Matrix::Identity(4));
  ASSERT_TRUE(solver.ok());
  EXPECT_FALSE(solver->Values(-1, 2).ok());
  EXPECT_FALSE(solver->Values(3, 2).ok());
  EXPECT_FALSE(solver->Pairs(0, 5).ok());
  EXPECT_FALSE(solver->Pairs(2, -1).ok());
  auto empty = solver->Pairs(4, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->vectors.cols(), 0);
}

// The blocked reduction's trailing updates and the back-transform's block
// reflectors thread; neither changes a bit.
TEST(EigWindowTest, BitIdenticalAcrossThreadCounts) {
  const int64_t n = 257;
  Rng rng(5700);
  const Matrix a = RandomSymmetric(n, &rng);
  auto solve = [&](int threads, int64_t first, int64_t count) {
    EigOptions options;
    options.num_threads = threads;
    auto solver = SymmetricEigensolver::Create(a, options);
    EXPECT_TRUE(solver.ok());
    auto pairs = solver->Pairs(first, count);
    EXPECT_TRUE(pairs.ok());
    return *pairs;
  };
  for (const auto& [first, count] :
       {std::pair<int64_t, int64_t>{n - 10, 10}, {0, n}}) {
    const EigResult serial = solve(1, first, count);
    for (const int threads : {2, 8}) {
      const EigResult threaded = solve(threads, first, count);
      ASSERT_EQ(serial.values, threaded.values) << threads << " threads";
      for (int64_t j = 0; j < count; ++j) {
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(serial.vectors(i, j), threaded.vectors(i, j))
              << threads << " threads, entry (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(EigTest, RejectsEmptyAndNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix()).ok());
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
  EXPECT_FALSE(SymmetricEigenvalues(Matrix(0, 0)).ok());
}

}  // namespace
}  // namespace fedsc
