// Dense symmetric eigendecomposition: Householder tridiagonalization
// followed by the implicit-shift QL iteration (the classic EISPACK
// tred2/tql2 pair). Used for spectral clustering of small/medium affinity
// graphs and for the eigengap heuristic; large sparse graphs use subspace
// iteration (SubspaceIterationLargest, linalg/lanczos.h) instead.
//
// Two tridiagonalization engines sit behind SymmetricEigen: the classic
// element-wise tred2 sweep below kBlockedEigCutoff, and a blocked
// (latrd/sytrd-style) reduction at and above it that accumulates Householder
// panels and applies the two-sided trailing update as two GEMMs. The switch
// is result-affecting (both reach tridiagonal forms whose QL eigensystems
// agree to roundoff) and picked by the matrix order alone; tests reach both
// engines through internal_eig.

#ifndef FEDSC_LINALG_EIG_H_
#define FEDSC_LINALG_EIG_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct EigResult {
  Vector values;   // ascending
  Matrix vectors;  // column j is the eigenvector of values[j]; orthonormal
};

// The matrix order at and above which the blocked reduction engages: the
// measured crossover (BM_EigVariant / BM_EigValuesVariant medians, blocked
// vs tred2, DESIGN.md §5). With vectors the engines tie at n = 64 (0.457 vs
// 0.460 ms) and blocked wins from 96 on (1.18 vs 1.57 ms; 1.91 vs 2.57 ms
// at 120), while tred2 wins below (0.272 vs 0.258 ms at 48, 0.019 vs
// 0.012 ms at 12); values only, blocked wins at 64 (0.340 vs 0.380 ms).
inline constexpr int64_t kBlockedEigCutoff = 64;

struct EigOptions {
  // Workers for the GEMM trailing updates, panel matvecs and compact-WY
  // block reflectors (linalg/qr.h) inside the blocked path, the one thread
  // count the SVD/QR/eigen layer takes. Bit-identical results for every
  // thread count.
  int num_threads = 1;
};

// Full eigendecomposition of a symmetric matrix. Only the lower triangle is
// read; symmetry is the caller's contract.
Result<EigResult> SymmetricEigen(const Matrix& a, const EigOptions& options = {});

// Only the eigenvalues, ascending (skips eigenvector accumulation; about
// 2-3x faster for the eigengap heuristic which needs no vectors).
Result<Vector> SymmetricEigenvalues(const Matrix& a,
                                    const EigOptions& options = {});

namespace internal_eig {

// A = Q T Q^T with T symmetric tridiagonal: d is T's diagonal, e its
// subdiagonal (e[i] couples rows i-1 and i, e[0] = 0), and q the
// orthogonal Q (empty when not accumulated).
struct Tridiagonal {
  Vector d;
  Vector e;
  Matrix q;
};

// The two reductions SymmetricEigen picks between, callable at any order
// (the blocked one needs n >= 3). Only the lower triangle of `a` is read.
Tridiagonal Tred2Tridiagonal(const Matrix& a, bool accumulate);
Tridiagonal BlockedTridiagonal(const Matrix& a, bool accumulate,
                               int num_threads);

// The shared QL stage (tql2): ascending eigenvalues of T, plus eigenvectors
// of A when t.q is set (EigResult::vectors stays empty otherwise).
Result<EigResult> SolveTridiagonal(Tridiagonal t);

}  // namespace internal_eig

}  // namespace fedsc

#endif  // FEDSC_LINALG_EIG_H_
