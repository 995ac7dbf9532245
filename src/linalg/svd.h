// Thin singular value decomposition via one-sided (Hestenes) Jacobi
// rotations. Accurate for the small-to-medium factorizations this library
// needs (subspace basis estimation, PCA, canonical angles).

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

// JacobiSvd picks two result-affecting engines by shape alone, never by
// num_threads (DESIGN.md §5):
//  * Pair order: the classic cyclic (p, q) sweep (always serial) below
//    rows * cols = 2^14; the round-robin (tournament) sweep at or above it,
//    whose rounds are mutually disjoint pairs and fan out bit-exactly.
//  * QR preconditioning: iff n >= 2, m >= kSvdPrecondMinAspect * n and
//    m * n >= kSvdPrecondMinWork, a thin QR runs first and only the small
//    R factor is swept (A = QR = Q(U_r S V^T), U = Q U_r via one GEMM). For
//    tall inputs this cuts each rotation from O(m) to O(n) work.
// Tests reach both the plain and the preconditioned path through
// internal_svd.
inline constexpr int64_t kSvdPrecondMinAspect = 4;
inline constexpr int64_t kSvdPrecondMinWork = int64_t{1} << 11;

struct SvdOptions {
  int max_sweeps = 60;
  // Column pairs with |<a_p, a_q>| <= tol * ||a_p|| * ||a_q|| count as
  // orthogonal.
  double tol = 1e-12;
  // Workers for the round-robin sweep: each round's column pairs are
  // mutually disjoint, so they fan out with bit-identical results for every
  // thread count.
  int num_threads = 1;
};

// Thin SVD, k = min(m, n). Fails only on empty input or non-convergence
// (which does not occur in practice within 60 sweeps).
Result<SvdResult> JacobiSvd(const Matrix& a, const SvdOptions& options = {});

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
// that sweep on R.
Result<SvdResult> PlainJacobiSvd(const Matrix& a, const SvdOptions& options);
Result<SvdResult> QrPreconditionedSvd(const Matrix& a,
                                      const SvdOptions& options);

}  // namespace internal_svd

}  // namespace fedsc

#endif  // FEDSC_LINALG_SVD_H_
