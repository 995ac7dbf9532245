// Cholesky factorization and SPD solves.

#ifndef FEDSC_LINALG_CHOLESKY_H_
#define FEDSC_LINALG_CHOLESKY_H_

#include <cstdint>
#include <optional>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

// Lower-triangular L with A = L L^T. Fails if A is not (numerically)
// positive definite.
Result<Matrix> CholeskyFactor(const Matrix& a);

// Solves L y = b in place (forward substitution); L lower triangular,
// columns of b are independent right-hand sides.
void SolveLowerInPlace(const Matrix& l, Matrix* b);

// Solves L^T y = b in place (back substitution).
void SolveLowerTransposedInPlace(const Matrix& l, Matrix* b);

// Solves A X = B for SPD A via Cholesky.
Result<Matrix> SolveSpd(const Matrix& a, const Matrix& b);

// Inverse of an SPD matrix (used by the ADMM Z-update operator,
// where the matrix is small).
Result<Matrix> SpdInverse(const Matrix& a);

// Diagonally pivoted Cholesky of a symmetric positive semidefinite n x n
// matrix A, truncated at its numerical rank: the n x k factor L, rows in
// A's order, with L L^T = A up to a remainder whose diagonal is at most
// `tol`. Step i pivots on the largest remaining diagonal and the
// factorization stops once that diagonal is <= tol (LAPACK dpstrf's rule;
// dpstrf's default tol is n * eps * max diag(A)). L is lower triangular
// after its rows are permuted into pivot order. Returns nullopt, after at
// most max_rank^2 * n flops, when the rank exceeds max_rank or a pivot is
// not finite. A zero A gives an n x 0 L.
std::optional<Matrix> PivotedCholeskyFactor(const Matrix& a, double tol,
                                            int64_t max_rank);

}  // namespace fedsc

#endif  // FEDSC_LINALG_CHOLESKY_H_
