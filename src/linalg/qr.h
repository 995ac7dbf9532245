// Householder QR decomposition and column orthonormalization. Its callers
// are the QR-preconditioned SVD (linalg/svd.h) and the synthetic-data
// generator; both run it at one thread.
//
// Two engines sit behind HouseholderQr, picked by shape alone (DESIGN.md
// §5, "Blocked factorizations"):
//
//  * Unblocked: the classic one-reflector-at-a-time dot/axpy sweep.
//  * Blocked: panels of kQrPanelWidth reflectors are accumulated into a
//    compact-WY representation (I - V T V^T, T upper triangular) and the
//    trailing matrix / thin-Q updates become two Gemm calls each, so the
//    O(m n^2) bulk of the work rides the cache-blocked packed engine.
//
// The switch is result-affecting (the two paths group the floating-point
// updates differently); tests reach both engines through internal_qr.

#ifndef FEDSC_LINALG_QR_H_
#define FEDSC_LINALG_QR_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct QrResult {
  Matrix q;  // m x k with orthonormal columns, k = min(m, n)
  Matrix r;  // k x n upper triangular
};

// HouseholderQr runs the blocked engine when n >= kBlockedQrMinCols and
// m * n >= kBlockedQrCutoff, the unblocked one otherwise. Below
// kBlockedQrMinCols the whole matrix is one skinny panel, so "blocked"
// degenerates to the scalar panel factorization plus the compact-WY T build
// and GEMM-call overhead with no trailing matrix to amortize them
// (measurably slower than unblocked at n = 8 in BENCH_linalg.json).
inline constexpr int64_t kBlockedQrCutoff = int64_t{1} << 13;
inline constexpr int64_t kBlockedQrMinCols = 16;

// Thin QR of an m x n matrix via Householder reflections.
Result<QrResult> HouseholderQr(const Matrix& a);

// Orthonormal basis for the column span of `a`: QR with column norms checked
// against `tol` * (largest original column norm); dependent columns are
// dropped. Returns an m x r matrix with r = numerical rank (possibly 0).
Matrix OrthonormalColumnBasis(const Matrix& a, double tol = 1e-10);

namespace internal_qr {

// The two engines HouseholderQr picks between, callable at any non-empty
// shape so tests and benchmarks can compare them.
QrResult UnblockedQr(const Matrix& a);
QrResult BlockedQr(const Matrix& a);

// Reflectors per compact-WY panel. Result-affecting inside the blocked path
// (it sets the Gemm grouping boundaries, like kKc in the packed engine);
// never consulted by the unblocked path.
inline constexpr int64_t kQrPanelWidth = 32;

// Generates the Householder reflector eliminating rows (j, m) of `col`: on
// exit col[j] holds beta, col[j+1..m) the reflector tail (the unit leading
// entry stays implicit), and the returned tau scales H = I - tau v v^T.
// Shared by every factorization so the per-reflector arithmetic is
// identical across QR and tridiagonalization, blocked and unblocked.
double GenerateReflector(double* col, int64_t j, int64_t m);

// Upper-triangular T (b x b) with H_0 H_1 ... H_{b-1} = I - V T V^T, where
// column j of V (mv x b, explicit zeros above the unit diagonal entry at row
// j) is reflector j's Householder vector and taus[j] its scale. Shared by
// the blocked QR and the blocked tridiagonalization in linalg/eig.cc.
Matrix BuildCompactWyT(const Matrix& v, const double* taus);

// c := (I - V T V^T) c (transpose = false, the Q-accumulation direction) or
// c := (I - V T V^T)^T c (transpose = true, the trailing-update direction).
// Both are two Gemm calls around a small triangular multiply; bit-identical
// for every num_threads (the blocked tridiagonalization threads it; the
// blocked QR runs it at one thread).
void ApplyBlockReflector(const Matrix& v, const Matrix& t, bool transpose,
                         Matrix* c, int num_threads);

}  // namespace internal_qr

}  // namespace fedsc

#endif  // FEDSC_LINALG_QR_H_
