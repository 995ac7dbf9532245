// Shared helpers for building affinity graphs from self-expression
// coefficients: W = |C| + |C|^T (Section III-A of the paper), and its
// landmark-mediated analogue for the sketched path.

#ifndef FEDSC_SC_AFFINITY_H_
#define FEDSC_SC_AFFINITY_H_

#include <cstdint>

#include "linalg/sparse.h"

namespace fedsc {

// Both helpers fan the per-row / per-column work out over `num_threads`
// fixed index ranges; results are bit-identical for every thread count.

// W = |C| + |C|^T from a sparse coefficient matrix.
SparseMatrix AffinityFromCoefficients(const SparseMatrix& c,
                                      int num_threads = 1);

// Landmark-mediated affinity for the sketched path: from a d x N coefficient
// matrix C (row a = dictionary atom a), builds the sparsified
// W = |C|^T |C| keeping each point's top_q strongest neighbors — without
// ever forming the dense N x N product. Per point the scores over shared
// atoms accumulate into a dense length-N scratch reset via the touched list,
// so peak memory is O(N * q) output triplets plus O(N) scratch per worker.
// Both (i, j) and (j, i) enter the triplet stream; mutual selections sum in
// FromTriplets, mirroring the |C| + |C|^T doubling of the exact path.
// top_q <= 0 keeps every co-supported neighbor. Bit-identical for every
// thread count (per-range triplet lists concatenate in point order).
SparseMatrix AffinityFromLandmarkCoefficients(const SparseMatrix& c,
                                              int64_t top_q,
                                              int num_threads = 1);

}  // namespace fedsc

#endif  // FEDSC_SC_AFFINITY_H_
