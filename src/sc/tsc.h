// Thresholding-based subspace clustering (Heckel & Bölcskei, ref [10] of
// the paper).
//
// One selection, over a dictionary B (D x d): every point keeps its q
// nearest atoms in spherical distance, never its self atom (sketch.h), with
// weight exp(-2 * arccos(|<b_a, x_j>|)); ties go to the lower atom index.
// O(d * D) per point. Exact TSC is the case B = X with atom j pinned for
// column j: the q nearest peers, symmetrized by AffinityFromCoefficients.

#ifndef FEDSC_SC_TSC_H_
#define FEDSC_SC_TSC_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sc/sketch.h"

namespace fedsc {

struct TscOptions {
  // Number of nearest neighbors kept per point. Must satisfy 1 <= q < N.
  int64_t q = 3;
  // Workers for the per-column neighbor selection (columns are independent;
  // results are bit-identical for every thread count).
  int num_threads = 1;
};

// Symmetric TSC affinity graph over the (l2-normalized) columns of x:
// W = |C| + |C|^T for the selection with B = X.
Result<SparseMatrix> TscAffinity(const Matrix& x, const TscOptions& options);

// Sketched variant: the selection with B = sketch.dictionary. Returns the
// nonnegative d x N coefficient matrix (row a = atom a) whose
// landmark-mediated product |C|^T |C| plays the role of the TSC graph.
// Bit-identical for every thread count.
Result<SparseMatrix> TscLandmarkCoefficients(const Matrix& x,
                                             const SketchResult& sketch,
                                             const TscOptions& options);

}  // namespace fedsc

#endif  // FEDSC_SC_TSC_H_
