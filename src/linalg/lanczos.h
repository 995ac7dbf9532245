// Iterative extreme eigenpairs of a symmetric linear operator by orthogonal
// (subspace) iteration. Spectral clustering of large sparse affinity graphs
// uses it to avoid the O(N^3) dense eigensolver. (The file keeps its name
// from the Lanczos solver it once held.)

#ifndef FEDSC_LINALG_LANCZOS_H_
#define FEDSC_LINALG_LANCZOS_H_

#include <cstdint>
#include <functional>

#include "common/result.h"
#include "linalg/eig.h"
#include "linalg/matrix.h"

namespace fedsc {

// y = A x for a symmetric A of dimension `dim` (y and x never alias).
using SymmetricOperator = std::function<void(const double* x, double* y)>;

struct SubspaceIterationOptions {
  int64_t max_iterations = 500;
  // Stop when no Ritz value moved more than tol * max|Ritz| between checks.
  double tol = 1e-8;
  // Added to the operator (apply' = apply + shift * I) so the wanted
  // algebraically-largest eigenvalues dominate in magnitude. For a
  // normalized adjacency (spectrum in [-1, 1]) use shift = 1.
  double shift = 0.0;
  uint64_t seed = 0x5eed'0f17ULL;
};

// The k algebraically largest eigenpairs by orthogonal (subspace) iteration.
// Unlike single-vector Lanczos, this converges to the full invariant
// subspace even when the top eigenvalue is highly degenerate — exactly the
// situation for the affinity graph of L well-separated clusters (eigenvalue
// 1 with multiplicity L) — so it is the backend spectral clustering uses for
// large sparse graphs.
Result<EigResult> SubspaceIterationLargest(
    const SymmetricOperator& apply, int64_t dim, int64_t k,
    const SubspaceIterationOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_LINALG_LANCZOS_H_
