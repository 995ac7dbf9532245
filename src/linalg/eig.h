// Dense symmetric eigensolver that computes only the eigenpairs a caller
// reads. A symmetric matrix is reduced once to tridiagonal form
// T = Q^T A Q, with Q kept as its Householder reflectors and never formed.
// A SymmetricEigensolver then reads eigenvalues of any ascending index
// window off T, and eigenvectors only for the window a caller asks for:
//
//  * Values. T splits into unreduced blocks at off-diagonals |e_i| <=
//    eps * ||T||. A block of order above 16 that contributes at most a
//    quarter of its values to the window bisects on Sturm counts, four
//    indices per pass (LAPACK dstebz's method); any other block runs the
//    values-only implicit-shift QL iteration (EISPACK tql2) over the whole
//    block. A repeated read of a block's window reuses its values.
//  * Vectors. Inverse iteration on each block at the window's eigenvalues,
//    reorthogonalized within clusters of eigenvalues closer than
//    1e-3 * ||T|| (LAPACK dstein), then one back-transform of the n x k
//    block through the reflectors.
//
// SymmetricEigen and SymmetricEigenvalues are the all-index window of this
// one pipeline, so their eigenvalues agree bit for bit. Large sparse graphs
// use subspace iteration (SubspaceIterationLargest, linalg/lanczos.h)
// instead.
//
// Two tridiagonalization engines sit behind the reduction: the classic
// element-wise tred2 sweep below kBlockedEigCutoff, and a blocked
// (latrd/sytrd-style) reduction at and above it that accumulates Householder
// panels and applies the two-sided trailing update as two GEMMs. The switch
// is result-affecting (both reach tridiagonal forms whose eigensystems agree
// to roundoff) and picked by the matrix order alone; tests reach both
// engines through internal_eig.
//
// Cost of one reduction plus the top-k pairs (BM_EigWindow, DESIGN.md
// section 5, medians of 7, one thread, Release, 4-vCPU 2.1 GHz AVX-512
// Xeon), in ms, against a full decomposition that accumulates Q and
// rotates it through QL: n = 120, k = 2: 0.76 vs 2.17; n = 60, k = 2:
// 0.19 vs 0.51; n = 320, k = 20: 10.7 vs 26.1; n = 510, k = 10: 29.9 vs
// 110; n = 296, k = 10: 7.06 vs 18.9. Every pair of a 12 x 12 matrix costs
// 0.025 vs 0.013: at tiny orders inverse iteration loses to rotating Q
// through QL.

#ifndef FEDSC_LINALG_EIG_H_
#define FEDSC_LINALG_EIG_H_

#include <cstdint>
#include <utility>
#include <vector>

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
  // block reflectors inside the blocked reduction and the back-transform,
  // the one thread count the SVD/QR/eigen layer takes. Bit-identical
  // results for every thread count.
  int num_threads = 1;
};

namespace internal_eig {

// A = Q T Q^T with T symmetric tridiagonal: d is T's diagonal, e its
// subdiagonal (e[i] couples rows i-1 and i, e[0] = 0). Q is kept as the
// Householder reflectors the engine left in `reflectors`: tred2 keeps
// reflector i in row i (columns < i), H_i = I - u u^T / scales[i], and
// Q = H_{n-1} ... H_1; the blocked engine keeps reflector j in column j
// (rows > j + 1, unit head at row j + 1 implicit), H_j = I - scales[j] v v^T,
// and Q = H_0 ... H_{n-3}. A zero scale is the identity.
struct Tridiagonal {
  Vector d;
  Vector e;
  Matrix reflectors;
  Vector scales;
  bool blocked = false;
};

// The two reductions SymmetricEigensolver picks between, callable at any
// order (the blocked one needs n >= 3). Only the lower triangle of `a` is
// read.
Tridiagonal Tred2Tridiagonal(const Matrix& a);
Tridiagonal BlockedTridiagonal(const Matrix& a, int num_threads);

// Upper-triangular T (b x b) with H_0 H_1 ... H_{b-1} = I - V T V^T, where
// column j of V (mv x b, explicit zeros above the unit diagonal entry at row
// j) is reflector j's Householder vector and taus[j] its scale: the
// compact-WY form in which the blocked reduction's back-transform applies a
// panel of reflectors as two Gemm calls.
Matrix BuildCompactWyT(const Matrix& v, const double* taus);

}  // namespace internal_eig

// One reduced symmetric matrix and the windows read off it. Reads cache
// each block's last values, so one solver serves one thread at a time.
class SymmetricEigensolver {
 public:
  // Reduces `a` (only its lower triangle is read; symmetry is the caller's
  // contract) to tridiagonal form, after an exact power-of-two scaling that
  // keeps extreme magnitudes in range. InvalidArgument for an empty,
  // non-square or non-finite matrix.
  static Result<SymmetricEigensolver> Create(const Matrix& a,
                                             const EigOptions& options = {});

  // Wraps a reduction made by one of the internal_eig engines, so tests and
  // benchmarks can solve either engine's form.
  SymmetricEigensolver(internal_eig::Tridiagonal t, int num_threads);

  int64_t size() const { return static_cast<int64_t>(t_.d.size()); }

  // The eigenvalues with ascending indices [first, first + count), in
  // ascending order. InvalidArgument unless 0 <= first, 0 <= count and
  // first + count <= n; NotConverged if QL passes its iteration limit.
  Result<Vector> Values(int64_t first, int64_t count) const;

  // The same window's eigenpairs: ascending values, and an n x count matrix
  // of orthonormal eigenvectors, column j belonging to values[j]. Only these
  // count vectors are formed. NotConverged also when an inverse iteration
  // shows no growth.
  Result<EigResult> Pairs(int64_t first, int64_t count) const;

  // The number of eigenvalues below x, from one Sturm count on T.
  int64_t CountBelow(double x) const;

 private:
  // One eigenvalue of the window: its value on the scaled T, its unreduced
  // block and its ascending index within that block.
  struct Entry {
    double value;
    int64_t block;
    int64_t local;
  };
  // The window's entries, ascending.
  Result<std::vector<Entry>> Window(int64_t first, int64_t count) const;
  // Block b's ascending eigenvalues with local indices [lo, lo + w), or its
  // whole spectrum when the block is tiny.
  Result<const Vector*> BlockValues(size_t b, int64_t lo, int64_t w) const;
  Status CheckWindow(int64_t first, int64_t count) const;

  internal_eig::Tridiagonal t_;
  // Unreduced blocks of T as (first row, order), with e zeroed between them.
  std::vector<std::pair<int64_t, int64_t>> blocks_;
  Vector e2_;           // e_i^2, for Sturm counts
  double pivmin_ = 0.0;  // the Sturm recurrence's smallest pivot magnitude
  int exponent_ = 0;    // eigenvalues of A are T's times 2^exponent_
  int num_threads_ = 1;
  // Per block, the last values BlockValues computed, so a repeated read
  // (Pairs after Values on one window, as a spectral embedding reads it) is
  // not recomputed. A block's values for a local window depend only on the
  // block and that window, so the cache changes no result.
  struct BlockCache {
    int64_t lo = -1;
    Vector values;
  };
  mutable std::vector<BlockCache> block_cache_;
};

// Every eigenpair of a symmetric matrix: the all-index window of
// SymmetricEigensolver.
Result<EigResult> SymmetricEigen(const Matrix& a, const EigOptions& options = {});

// Every eigenvalue, ascending, bit for bit SymmetricEigen's; forms no
// eigenvectors.
Result<Vector> SymmetricEigenvalues(const Matrix& a,
                                    const EigOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_LINALG_EIG_H_
