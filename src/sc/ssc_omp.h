// SSC-OMP (You, Robinson & Vidal, ref [42] of the paper): per-point sparse
// self-expression by orthogonal matching pursuit instead of the Lasso.
//
// One pursuit, over a dictionary B (D x d): every column x_j greedily picks
// up to max_support atoms of B, never its self atom (sketch.h), and refits
// them by least squares. O(k * d * D) per point. Exact SSC-OMP is the case
// B = X with atom j pinned for column j (diag(C) = 0), O(k * N * D) per
// point; the sketched variant uses a d-atom landmark dictionary.

#ifndef FEDSC_SC_SSC_OMP_H_
#define FEDSC_SC_SSC_OMP_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sc/sketch.h"

namespace fedsc {

struct SscOmpOptions {
  // Maximum support size per point (set near the expected subspace
  // dimension).
  int64_t max_support = 10;
  // Stop early once the residual norm drops below this threshold.
  double residual_tol = 1e-6;
  // Workers for the per-column pursuits (columns are independent; results
  // are bit-identical for every thread count).
  int num_threads = 1;
};

// Sparse self-expression matrix C with OMP-selected supports: the pursuit
// with B = X. Columns of x should be l2-normalized. Requires N >= 2.
Result<SparseMatrix> SscOmpSelfExpression(const Matrix& x,
                                          const SscOmpOptions& options = {});

// Sketched variant: the pursuit with B = sketch.dictionary. Returns the
// d x N coefficient matrix (row a = dictionary atom a); a landmark column
// never selects its own atom. Bit-identical for every thread count.
Result<SparseMatrix> SscOmpSketchedSelfExpression(
    const Matrix& x, const SketchResult& sketch,
    const SscOmpOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_SC_SSC_OMP_H_
