// Thin singular value decomposition via one-sided (Hestenes) Jacobi
// rotations. Its callers are core/theory.cc (canonical angles and bases)
// and the per-panel looped route of the batched basis (linalg/batch.h), which is the
// Gram route's reference and fallback; every default-path local basis, and
// the k-FED baseline's PCA (fed/pca.h), comes from the Gram route instead.

#ifndef FEDSC_LINALG_SVD_H_
#define FEDSC_LINALG_SVD_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct SvdResult {
  Matrix u;  // m x k, orthonormal columns (zero columns for null directions)
  Vector s;  // k singular values, descending
  Matrix v;  // n x k, orthonormal columns
};

// Thin SVD, k = min(m, n), by one-sided Jacobi on the input itself (a wide
// input is factored through its transpose). Column pairs are swept in the
// classic cyclic (p, q) order, at most 60 sweeps, until every pair has
// |<a_p, a_q>| <= 1e-12 * ||a_p|| * ||a_q||. An input whose max |x| lies
// outside [2^-250, 2^250] is swept scaled by a power of two (exact; see
// internal_svd::Prescale) and its singular values scaled back. A null
// direction (sigma exactly 0) gets an exactly zero U column.
// Fails only on empty input or non-convergence (which does not occur in
// practice within 60 sweeps).
Result<SvdResult> JacobiSvd(const Matrix& a);

// Number of singular values > rel_tol * s[0] (0 if s is empty or all zero).
int64_t NumericalRank(const Vector& s, double rel_tol = 1e-8);

// The first `rank` left singular vectors of `a`: the orthonormal basis
// Fed-SC estimates for the span of a local cluster (Section IV-B). If
// rank <= 0, the rank is chosen by NumericalRank with `rel_tol`. Either way
// directions with sigma <= max(m, n) * eps * sigma_1 are dropped: they are
// rounding noise, and sampling from them (Eq. 5) would leave the subspace.
Result<Matrix> PrincipalSubspace(const Matrix& a, int64_t rank,
                                 double rel_tol = 1e-8);

namespace internal_svd {

// Scaling for code that squares raw entries: the exponent e with
// max|x| * 2^-e in [0.5, 1) when max|x| lies outside [2^-250, 2^250], else
// 0 (also for an all-zero or non-finite x, which callers reject on their
// own). When e != 0, *scaled receives x * 2^-e, which is exact.
int Prescale(const Matrix& x, Matrix* scaled);

}  // namespace internal_svd

}  // namespace fedsc

#endif  // FEDSC_LINALG_SVD_H_
