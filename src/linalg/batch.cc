#include "linalg/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/eig.h"

namespace fedsc {

namespace {

// The Gram route (see batch.h): one symmetric eigensolve of the smaller
// Gram matrix, reading its top value, the count above the rank cut and the
// top r eigenpairs. Returns nothing when the route cannot deliver an
// orthonormal basis — sigma_r / sigma_1 <= kGramSigmaFloor, a failed
// eigensolve or a non-finite or zero spectrum — and the caller falls back
// to the looped route.
std::optional<Matrix> GramSubspace(const Matrix& x,
                                   const BatchedSubspaceOptions& options) {
  const int64_t m = x.rows();
  const int64_t n = x.cols();
  const bool tall = m >= n;
  const int64_t k = std::min(m, n);
  Matrix gram(k, k);
  Syrk(tall ? Trans::kTrans : Trans::kNo, 1.0, x, 0.0, &gram);
  auto solver = SymmetricEigensolver::Create(gram);
  if (!solver.ok()) return std::nullopt;

  // sigma_j = sqrt(lambda_j) is the j-th largest singular value (rounding
  // can leave a null lambda just below 0).
  const auto sigma = [](double lambda) {
    return std::sqrt(std::max(lambda, 0.0));
  };
  auto top = solver->Values(k - 1, 1);
  if (!top.ok()) return std::nullopt;
  const double sigma1 = sigma((*top)[0]);
  int64_t r = std::min(options.rank, k);
  if (options.rank <= 0) {
    // PrincipalSubspace's auto rank: keep sigma_j > rel_tol * sigma_1, and
    // never a roundoff-level sigma_j <= max(m, n) * eps * sigma_1. One Sturm
    // count tells how many eigenvalues clear the cut.
    const double cut =
        std::max(options.rel_tol, static_cast<double>(std::max(m, n)) *
                                      std::numeric_limits<double>::epsilon()) *
        sigma1;
    r = k - solver->CountBelow(cut * cut);
  }
  if (r <= 0) return std::nullopt;
  auto eig = solver->Pairs(k - r, r);
  if (!eig.ok() || !(sigma(eig->values[0]) > kGramSigmaFloor * sigma1)) {
    return std::nullopt;
  }

  Matrix u(m, r);
  if (tall) {
    // U = X V_r: each column has norm ~sigma_j > 0; normalize to unit length.
    Matrix vr(n, r);
    for (int64_t j = 0; j < r; ++j) {
      vr.SetCol(j, eig->vectors.ColData(r - 1 - j));
    }
    Gemm(Trans::kNo, Trans::kNo, 1.0, x, vr, 0.0, &u);
    for (int64_t j = 0; j < r; ++j) {
      Scal(1.0 / Norm2(u.ColData(j), m), u.ColData(j), m);
    }
  } else {
    // The eigenvectors of X X^T are the left singular vectors themselves.
    for (int64_t j = 0; j < r; ++j) {
      u.SetCol(j, eig->vectors.ColData(r - 1 - j));
    }
  }
  return u;
}

Result<Matrix> PanelSubspace(const Matrix& panel,
                             const BatchedSubspaceOptions& options) {
  // An empty panel has no spectrum: PrincipalSubspace types the error.
  if (panel.empty()) return PrincipalSubspace(panel, options.rank);
  // Exact power-of-two scaling leaves the span, and so the basis, unchanged.
  Matrix scaled;
  const int e = internal_svd::Prescale(panel, &scaled);
  const Matrix& x = e == 0 ? panel : scaled;
  if (options.rank > 0 || options.rel_tol >= kGramSigmaFloor) {
    if (std::optional<Matrix> u = GramSubspace(x, options)) {
      FEDSC_METRIC_COUNTER("linalg.basis.gram").Increment();
      return *std::move(u);
    }
  }
  FEDSC_METRIC_COUNTER("linalg.basis.looped").Increment();
  return PrincipalSubspace(x, options.rank, options.rel_tol);
}

}  // namespace

std::vector<Result<Matrix>> BatchedPrincipalSubspace(
    const std::vector<Matrix>& panels, const BatchedSubspaceOptions& options) {
  std::vector<Result<Matrix>> out(
      panels.size(),
      Result<Matrix>(Status::Internal("batch slot not computed")));
  ParallelFor(0, static_cast<int64_t>(panels.size()), options.num_threads,
              [&](int64_t i) {
                out[static_cast<size_t>(i)] =
                    PanelSubspace(panels[static_cast<size_t>(i)], options);
              });
  return out;
}

std::vector<Result<Matrix>> BatchedPrincipalSubspace(
    const Matrix& parent, const std::vector<std::vector<int64_t>>& groups,
    const BatchedSubspaceOptions& options) {
  std::vector<Result<Matrix>> out(
      groups.size(),
      Result<Matrix>(Status::Internal("batch slot not computed")));
  ParallelFor(0, static_cast<int64_t>(groups.size()), options.num_threads,
              [&](int64_t i) {
                out[static_cast<size_t>(i)] = PanelSubspace(
                    parent.GatherCols(groups[static_cast<size_t>(i)]),
                    options);
              });
  return out;
}

}  // namespace fedsc
