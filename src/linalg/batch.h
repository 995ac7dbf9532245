// Batched tall-skinny factorizations: all per-cluster D x n_i panels of one
// round go through a single call with one parallel region over the batch,
// instead of a serial loop of per-panel JacobiSvd calls. This is the shape
// Fed-SC spends its local phase in — every device factors one small panel
// per local cluster (basis estimation, trim/refit) and the server
// re-factors per global cluster in AssignNewPoints. The k-FED baseline's
// PCA (fed/pca.h) reads its components off the same Gram route.
//
// Two routes sit behind BatchedPrincipalSubspace, picked per panel by the
// requested rank and rel_tol and by the panel's own spectrum — never by
// num_threads or by the other panels in the batch, so a panel's bits do not
// depend on its batch-mates:
//
//  * Gram — whenever rank > 0 or rel_tol >= kGramSigmaFloor (every default
//    Fed-SC path: rank_rel_tol = 0.1), for any panel shape. It factors the
//    smaller Gram matrix with one symmetric eigensolve: G = X^T X via Syrk
//    and U = X V_r with columns normalized when rows >= cols, or G = X X^T
//    and U = its top-r eigenvectors when rows < cols. sigma_j = sqrt(lambda_j)
//    and the auto rank is PrincipalSubspace's rule: keep sigma_j >
//    max(rel_tol, max(m, n) * eps) * sigma_1. For D >> n_i this replaces
//    O(D n^2)-per-sweep Jacobi rotations with one Syrk and one small
//    eigensolve.
//  * Looped — exactly PrincipalSubspace(panel, rank, rel_tol), bit-for-bit;
//    the batch only fans the panels out across threads (each panel is
//    computed serially in one worker). It is the reference the Gram route
//    is tested against and the per-panel fallback below.
//
// The Gram route squares the condition number: when the kept rank reaches
// directions with sigma_r <= kGramSigmaFloor * sigma_1 (a fixed rank above
// the numerical rank, or rel_tol < kGramSigmaFloor such as
// BatchedSubspaceOptions' default 1e-8 or a Fed-SC rank_rel_tol below
// 1e-4), it cannot tell them from rounding. Such a panel — and one whose
// eigensolve fails or whose spectrum is zero or not finite — returns
// PrincipalSubspace's bits. Away from rank ties at the rel_tol cut both
// routes keep the same number of columns; a Gram basis is orthonormal and
// spans the looped basis's subspace to 1e-6 (DESIGN.md §5), rotated within
// it.
//
// Before either route runs, a panel whose max |x| lies outside
// [2^-250, 2^250] is scaled by a power of two
// (exact) to max |x| in [0.5, 1): squared entries would otherwise overflow
// or go subnormal in the Gram matrix and in the Jacobi dot products.
// In-range panels keep their bits.

#ifndef FEDSC_LINALG_BATCH_H_
#define FEDSC_LINALG_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace fedsc {

// A Gram-route panel whose sigma_r / sigma_1 is at or below this ratio is
// recomputed on the looped route. The Gram basis's orthonormality error
// grows like eps / (sigma_r / sigma_1)^2: on randomized tall panels it
// peaked near 8e-9 just above 1e-4 and near 5e-7 just above 1e-5, so 1e-4
// keeps two orders of margin under the 1e-6 policy.
inline constexpr double kGramSigmaFloor = 1e-4;

struct BatchedSubspaceOptions {
  // Fixed basis rank; <= 0 selects the rank numerically (PrincipalSubspace
  // semantics with rel_tol).
  int64_t rank = 0;
  double rel_tol = 1e-8;
  // Workers fanned out over the batch; each panel is computed serially by
  // one worker, so results are bit-identical for every thread count.
  int num_threads = 1;
};

// Orthonormal bases for the column spans of all panels: slot i holds
// PrincipalSubspace-equivalent output for panels[i], or the per-panel error
// (empty panel, numerical rank 0) — one degenerate cluster does not poison
// its batch. Panels may be ragged (any cols, any rows).
std::vector<Result<Matrix>> BatchedPrincipalSubspace(
    const std::vector<Matrix>& panels,
    const BatchedSubspaceOptions& options = {});

// Same, with panels gathered from a parent matrix: panel i is
// parent.GatherCols(groups[i]) — the per-cluster member-list shape
// LocalClusterAndSample and AssignNewPoints produce. The gather happens
// inside the parallel region, so no caller-side materialization pass.
std::vector<Result<Matrix>> BatchedPrincipalSubspace(
    const Matrix& parent, const std::vector<std::vector<int64_t>>& groups,
    const BatchedSubspaceOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_LINALG_BATCH_H_
