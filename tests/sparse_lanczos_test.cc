#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace fedsc {
namespace {

TEST(SparseTest, FromTripletsSumsDuplicatesAndDropsZeros) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {2, 2, 0.0}, {1, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 2);
  const Matrix dense = m.ToDense();
  EXPECT_EQ(dense(0, 1), 5.0);
  EXPECT_EQ(dense(1, 0), -1.0);
  EXPECT_EQ(dense(2, 2), 0.0);
}

TEST(SparseTest, CancellingDuplicatesVanish) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 0);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(3);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 40; ++i) {
    triplets.push_back({rng.UniformInt(10), rng.UniformInt(8),
                        rng.Gaussian()});
  }
  const SparseMatrix m = SparseMatrix::FromTriplets(10, 8, triplets);
  const Matrix dense = m.ToDense();
  Vector x(8);
  for (auto& v : x) v = rng.Gaussian();
  const Vector sparse_result = m.Multiply(x);
  const Vector dense_result = Gemv(Trans::kNo, dense, x);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(sparse_result[static_cast<size_t>(i)],
                dense_result[static_cast<size_t>(i)], 1e-12);
  }
}

TEST(SparseTest, TransposedMatchesDense) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 2, 5.0}, {1, 0, 1.0}, {1, 2, -2.0}});
  EXPECT_TRUE(AllClose(m.Transposed().ToDense(),
                       m.ToDense().Transposed(), 0.0));
}

TEST(SparseTest, PlusTransposedSymmetrizes) {
  const SparseMatrix m =
      SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}, {1, 0, 1.0}});
  const Matrix w = m.PlusTransposed().ToDense();
  EXPECT_EQ(w(0, 1), 3.0);
  EXPECT_EQ(w(1, 0), 3.0);
  EXPECT_TRUE(AllClose(w, w.Transposed(), 0.0));
}

TEST(SparseTest, RowSums) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 4.0}});
  const Vector sums = m.RowSums();
  EXPECT_EQ(sums[0], 3.0);
  EXPECT_EQ(sums[1], 4.0);
}

TEST(SparseTest, SparsifyDense) {
  Matrix dense(2, 2);
  dense(0, 0) = 0.5;
  dense(1, 1) = 1e-12;
  const SparseMatrix m = SparsifyDense(dense, 1e-9);
  EXPECT_EQ(m.nnz(), 1);
}

TEST(SparseDeathTest, OutOfRangeTripletDies) {
  EXPECT_DEATH(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}), "triplet");
}

TEST(SubspaceIterationTest, MatchesDenseEigOnRandomSymmetric) {
  const int64_t n = 50;
  Rng rng(6001);
  Matrix a(n, n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i <= j; ++i) {
      const double v = rng.Gaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const SymmetricOperator apply = [&a, n](const double* x, double* y) {
    Gemv(Trans::kNo, 1.0, a, x, 0.0, y);
  };
  auto dense = SymmetricEigen(a);
  ASSERT_TRUE(dense.ok());
  SubspaceIterationOptions options;
  options.shift = 3.0 * std::sqrt(static_cast<double>(n));  // dominate |min|
  auto iter = SubspaceIterationLargest(apply, n, 5, options);
  ASSERT_TRUE(iter.ok()) << iter.status().ToString();
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(iter->values[static_cast<size_t>(i)],
                dense->values[static_cast<size_t>(n - 1 - i)], 1e-5);
  }
}

TEST(SubspaceIterationTest, ResolvesHighlyDegenerateTopEigenvalue) {
  // 6 disconnected cliques: normalized adjacency has eigenvalue 1 with
  // multiplicity 6 — the case single-vector Lanczos cannot see.
  const int64_t blocks = 6;
  const int64_t block_size = 8;
  const int64_t n = blocks * block_size;
  std::vector<Triplet> triplets;
  for (int64_t b = 0; b < blocks; ++b) {
    for (int64_t i = 0; i < block_size; ++i) {
      for (int64_t j = 0; j < block_size; ++j) {
        if (i != j) {
          triplets.push_back({b * block_size + i, b * block_size + j, 1.0});
        }
      }
    }
  }
  const SparseMatrix w = SparseMatrix::FromTriplets(n, n, triplets);
  // Normalized adjacency = W / (block_size - 1).
  const double scale = 1.0 / static_cast<double>(block_size - 1);
  const SymmetricOperator apply = [&w, scale, n](const double* x, double* y) {
    w.Multiply(x, y);
    Scal(scale, y, n);
  };
  SubspaceIterationOptions options;
  options.shift = 1.0;
  auto iter = SubspaceIterationLargest(apply, n, blocks, options);
  ASSERT_TRUE(iter.ok());
  for (int64_t i = 0; i < blocks; ++i) {
    EXPECT_NEAR(iter->values[static_cast<size_t>(i)], 1.0, 1e-8);
  }
  // The recovered subspace spans the block indicators: applying the operator
  // leaves each eigenvector invariant.
  for (int64_t i = 0; i < blocks; ++i) {
    Vector av(static_cast<size_t>(n));
    apply(iter->vectors.ColData(i), av.data());
    Axpy(-1.0, iter->vectors.ColData(i), av.data(), n);
    EXPECT_LT(Norm2(av.data(), n), 1e-6);
  }
}

TEST(SubspaceIterationTest, RejectsBadArguments) {
  const SymmetricOperator noop = [](const double*, double*) {};
  EXPECT_FALSE(SubspaceIterationLargest(noop, 0, 1).ok());
  EXPECT_FALSE(SubspaceIterationLargest(noop, 5, 0).ok());
  EXPECT_FALSE(SubspaceIterationLargest(noop, 5, 6).ok());
}

}  // namespace
}  // namespace fedsc
