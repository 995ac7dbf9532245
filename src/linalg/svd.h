// Thin singular value decomposition via one-sided (Hestenes) Jacobi
// rotations. Its callers are the PCA of the k-FED and PCA baselines
// (fed/pca.cc), the canonical angles of core/theory.cc, and the per-panel
// fallback of the batched basis (linalg/batch.h); every default-path local
// basis comes from the batch's Gram route instead.

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

// JacobiSvd sweeps column pairs in the classic cyclic (p, q) order, at
// most 60 sweeps, until every pair has |<a_p, a_q>| <= 1e-12 * ||a_p|| *
// ||a_q||. One result-affecting engine pick, by shape alone (DESIGN.md §5):
// QR preconditioning iff n >= 2, m >= kSvdPrecondMinAspect * n and
// m * n >= kSvdPrecondMinWork. Then a thin QR runs first and only the small
// R factor is swept (A = QR = Q(U_r S V^T), U = Q U_r via one GEMM). For
// tall inputs this cuts each rotation from O(m) to O(n) work. Tests reach
// both the plain and the preconditioned path through internal_svd.
inline constexpr int64_t kSvdPrecondMinAspect = 4;
inline constexpr int64_t kSvdPrecondMinWork = int64_t{1} << 11;

// Thin SVD, k = min(m, n). An input whose max |x| lies outside
// [2^-250, 2^250] is swept scaled by a power of two (exact; see
// internal_svd::Prescale) and its singular values scaled back.
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

// The two paths JacobiSvd picks between for a non-empty m x n input with
// m >= n, callable at any such shape so tests and benchmarks can compare
// them: the one-sided Jacobi sweep on `a` itself, and thin QR followed by
// that sweep on R. Neither prescales.
Result<SvdResult> PlainJacobiSvd(const Matrix& a);
Result<SvdResult> QrPreconditionedSvd(const Matrix& a);

// Scaling for code that squares raw entries: the exponent e with
// max|x| * 2^-e in [0.5, 1) when max|x| lies outside [2^-250, 2^250], else
// 0 (also for an all-zero or non-finite x, which callers reject on their
// own). When e != 0, *scaled receives x * 2^-e, which is exact.
int Prescale(const Matrix& x, Matrix* scaled);

}  // namespace internal_svd

}  // namespace fedsc

#endif  // FEDSC_LINALG_SVD_H_
