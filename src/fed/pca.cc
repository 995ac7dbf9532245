#include "fed/pca.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "linalg/batch.h"
#include "linalg/blas.h"

namespace fedsc {

Result<PcaResult> Pca(const Matrix& x, int64_t dim) {
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  if (num_points == 0) return Status::InvalidArgument("PCA of no points");
  if (dim < 1) return Status::InvalidArgument("PCA dim must be >= 1");

  PcaResult result;
  result.mean.assign(static_cast<size_t>(n), 0.0);
  for (int64_t j = 0; j < num_points; ++j) {
    Axpy(1.0, x.ColData(j), result.mean.data(), n);
  }
  Scal(1.0 / static_cast<double>(num_points), result.mean.data(), n);

  std::vector<Matrix> centered(1, x);
  for (int64_t j = 0; j < num_points; ++j) {
    Axpy(-1.0, result.mean.data(), centered[0].ColData(j), n);
  }

  if (centered[0].MaxAbs() == 0.0) {
    // Identical points (one point, say): no direction carries variance.
    result.components = Matrix(n, 0);
  } else {
    // The auto rank at rel_tol = kGramSigmaFloor keeps exactly the
    // directions the Gram route resolves, so it never falls back to the
    // Jacobi SVD on rank.
    BatchedSubspaceOptions options;
    options.rel_tol = kGramSigmaFloor;
    std::vector<Result<Matrix>> bases =
        BatchedPrincipalSubspace(centered, options);
    FEDSC_ASSIGN_OR_RETURN(Matrix basis, std::move(bases[0]));
    result.components = basis.ColRange(0, std::min(dim, basis.cols()));
  }
  // Projection is a plain (non-symmetric) product, so it stays on Gemm —
  // which dispatches to the blocked packed engine above the cutoff.
  result.projected = MatMulTN(result.components, centered[0]);
  return result;
}

}  // namespace fedsc
