#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"
#include "linalg/blas.h"

namespace fedsc {

Result<EigResult> SubspaceIterationLargest(
    const SymmetricOperator& apply, int64_t dim, int64_t k,
    const SubspaceIterationOptions& options) {
  if (dim <= 0) {
    return Status::InvalidArgument("subspace iteration dimension must be > 0");
  }
  if (k <= 0 || k > dim) {
    return Status::InvalidArgument("subspace iteration k must be in [1, dim]");
  }
  FEDSC_METRIC_COUNTER("linalg.subspace_iteration.calls").Increment();

  Rng rng(options.seed);
  Matrix q(dim, k);
  for (int64_t j = 0; j < k; ++j) {
    const Vector column = rng.UnitSphere(dim);
    q.SetCol(j, column);
  }

  // Orthonormalizes the columns of q in place (MGS with one
  // re-orthogonalization pass); rank-deficient columns are replaced by fresh
  // random directions orthogonal to the earlier ones.
  auto orthonormalize = [&](Matrix* m) {
    for (int64_t j = 0; j < m->cols(); ++j) {
      double* col = m->ColData(j);
      for (int pass = 0; pass < 2; ++pass) {
        for (int64_t p = 0; p < j; ++p) {
          const double proj = Dot(m->ColData(p), col, dim);
          Axpy(-proj, m->ColData(p), col, dim);
        }
      }
      double norm = Norm2(col, dim);
      int guard = 0;
      while (norm <= 1e-10 && guard++ < 8) {
        const Vector fresh = rng.UnitSphere(dim);
        std::copy(fresh.begin(), fresh.end(), col);
        for (int pass = 0; pass < 2; ++pass) {
          for (int64_t p = 0; p < j; ++p) {
            const double proj = Dot(m->ColData(p), col, dim);
            Axpy(-proj, m->ColData(p), col, dim);
          }
        }
        norm = Norm2(col, dim);
      }
      if (norm <= 1e-10) continue;  // dim exhausted; leave as-is
      Scal(1.0 / norm, col, dim);
    }
  };
  orthonormalize(&q);

  Matrix y(dim, k);
  auto apply_shifted = [&](const Matrix& in, Matrix* out) {
    for (int64_t j = 0; j < k; ++j) {
      apply(in.ColData(j), out->ColData(j));
      if (options.shift != 0.0) {
        Axpy(options.shift, in.ColData(j), out->ColData(j), dim);
      }
    }
  };

  Vector previous_ritz;
  for (int64_t iter = 0; iter < options.max_iterations; ++iter) {
    FEDSC_METRIC_COUNTER("linalg.subspace_iteration.iterations").Increment();
    apply_shifted(q, &y);

    const bool check_now = iter % 5 == 4 || iter + 1 == options.max_iterations;
    if (check_now) {
      // Ritz values from the projected operator B = Q^T (A Q). Q and A Q are
      // different matrices, so this is a genuine Gemm, not a Syrk — B is
      // only symmetric up to roundoff, hence the explicit symmetrization
      // below.
      const Matrix b = MatMulTN(q, y);
      Matrix b_sym = b;
      b_sym += b.Transposed();
      b_sym *= 0.5;
      FEDSC_ASSIGN_OR_RETURN(Vector ritz, SymmetricEigenvalues(b_sym));
      double scale = 1e-30;
      for (double v : ritz) scale = std::max(scale, std::fabs(v));
      bool converged = previous_ritz.size() == ritz.size();
      if (converged) {
        for (size_t i = 0; i < previous_ritz.size(); ++i) {
          if (std::fabs(previous_ritz[i] - ritz[i]) > options.tol * scale) {
            converged = false;
            break;
          }
        }
      }
      previous_ritz = std::move(ritz);
      if (converged) break;
    }

    std::swap(q, y);
    orthonormalize(&q);
  }

  // Final Rayleigh-Ritz: rotate the basis into eigenvector estimates.
  apply_shifted(q, &y);
  Matrix b = MatMulTN(q, y);
  {
    Matrix bt = b.Transposed();
    b += bt;
    b *= 0.5;
  }
  FEDSC_ASSIGN_OR_RETURN(EigResult small_eig, SymmetricEigen(b));

  EigResult result;
  result.values.resize(static_cast<size_t>(k));
  result.vectors = Matrix(dim, k);
  for (int64_t i = 0; i < k; ++i) {
    const int64_t idx = k - 1 - i;  // descending
    result.values[static_cast<size_t>(i)] =
        small_eig.values[static_cast<size_t>(idx)] - options.shift;
    Gemv(Trans::kNo, 1.0, q, small_eig.vectors.ColData(idx), 0.0,
         result.vectors.ColData(i));
  }
  return result;
}

}  // namespace fedsc
