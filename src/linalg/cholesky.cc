#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/blas.h"

namespace fedsc {

Result<Matrix> CholeskyFactor(const Matrix& a) {
  const int64_t n = a.rows();
  if (n != a.cols()) {
    return Status::InvalidArgument("Cholesky of a non-square matrix");
  }
  Matrix l(n, n);
  for (int64_t j = 0; j < n; ++j) {
    // Column j: l(j,j) then l(i,j) for i > j. Left-looking, with dots over
    // contiguous column prefixes of L^T... rows of L are strided, so work
    // row-wise on the lower triangle using previously computed columns.
    double diag = a(j, j);
    for (int64_t p = 0; p < j; ++p) diag -= l(j, p) * l(j, p);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "matrix is not positive definite at pivot " + std::to_string(j));
    }
    const double root = std::sqrt(diag);
    l(j, j) = root;
    const double inv = 1.0 / root;
    for (int64_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (int64_t p = 0; p < j; ++p) v -= l(i, p) * l(j, p);
      l(i, j) = v * inv;
    }
  }
  return l;
}

void SolveLowerInPlace(const Matrix& l, Matrix* b) {
  const int64_t n = l.rows();
  FEDSC_CHECK(l.cols() == n && b->rows() == n);
  for (int64_t c = 0; c < b->cols(); ++c) {
    double* y = b->ColData(c);
    for (int64_t i = 0; i < n; ++i) {
      double v = y[i];
      for (int64_t p = 0; p < i; ++p) v -= l(i, p) * y[p];
      y[i] = v / l(i, i);
    }
  }
}

void SolveLowerTransposedInPlace(const Matrix& l, Matrix* b) {
  const int64_t n = l.rows();
  FEDSC_CHECK(l.cols() == n && b->rows() == n);
  for (int64_t c = 0; c < b->cols(); ++c) {
    double* y = b->ColData(c);
    for (int64_t i = n - 1; i >= 0; --i) {
      double v = y[i];
      // l(p, i) for p > i walks down column i of L: contiguous.
      const double* li = l.ColData(i);
      for (int64_t p = i + 1; p < n; ++p) v -= li[p] * y[p];
      y[i] = v / li[i];
    }
  }
}

Result<Matrix> SolveSpd(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveSpd shape mismatch");
  }
  FEDSC_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a));
  Matrix x = b;
  SolveLowerInPlace(l, &x);
  SolveLowerTransposedInPlace(l, &x);
  return x;
}

Result<Matrix> SpdInverse(const Matrix& a) {
  return SolveSpd(a, Matrix::Identity(a.rows()));
}

std::optional<Matrix> PivotedCholeskyFactor(const Matrix& a, double tol,
                                            int64_t max_rank) {
  const int64_t n = a.rows();
  FEDSC_CHECK(a.cols() == n);
  max_rank = std::min(std::max<int64_t>(max_rank, 0), n);
  // Allocated once, up front; each step fills one contiguous column.
  Matrix l(n, max_rank);
  // The diagonal of A - L L^T; kDone marks a row already pivoted on.
  constexpr double kDone = -std::numeric_limits<double>::infinity();
  std::vector<double> remaining(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) remaining[static_cast<size_t>(j)] = a(j, j);
  std::vector<int64_t> pivots;
  pivots.reserve(static_cast<size_t>(max_rank));
  int64_t rank = 0;
  for (; rank < n; ++rank) {
    int64_t pivot = -1;
    double largest = kDone;
    for (int64_t j = 0; j < n; ++j) {
      const double d = remaining[static_cast<size_t>(j)];
      if (d == kDone) continue;
      if (!std::isfinite(d)) return std::nullopt;
      if (d > largest) {
        largest = d;
        pivot = j;
      }
    }
    if (largest <= tol) break;
    if (rank == max_rank) return std::nullopt;
    // Column `rank` of L: (a_p - sum_i l_pi l_i) / sqrt(d_p), held at
    // exactly zero on the earlier pivots' rows.
    double* col = l.ColData(rank);
    std::copy(a.ColData(pivot), a.ColData(pivot) + n, col);
    for (int64_t i = 0; i < rank; ++i) Axpy(-l(pivot, i), l.ColData(i), col, n);
    const double root = std::sqrt(largest);
    Scal(1.0 / root, col, n);
    for (const int64_t p : pivots) col[p] = 0.0;
    col[pivot] = root;
    pivots.push_back(pivot);
    for (int64_t j = 0; j < n; ++j) {
      remaining[static_cast<size_t>(j)] -= col[j] * col[j];
    }
    remaining[static_cast<size_t>(pivot)] = kDone;
  }
  if (rank == max_rank) return l;
  Matrix factor(n, rank);
  std::copy(l.data(), l.data() + factor.size(), factor.data());
  return factor;
}

}  // namespace fedsc
