// Cholesky factorization and SPD solves.

#ifndef FEDSC_LINALG_CHOLESKY_H_
#define FEDSC_LINALG_CHOLESKY_H_

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

}  // namespace fedsc

#endif  // FEDSC_LINALG_CHOLESKY_H_
