#include "linalg/batch.h"

#include <algorithm>
#include <optional>

#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/eig.h"

namespace fedsc {

namespace {

// The Gram route (see batch.h) for a fixed rank on a tall panel. Returns
// nothing when U = X V_r would not be orthonormal — sigma_rank / sigma_1 <=
// kGramSigmaFloor or a failed eigensolve — and the caller falls back to the
// looped route.
std::optional<Matrix> GramSubspace(const Matrix& x, int64_t rank) {
  const int64_t m = x.rows();
  const int64_t n = x.cols();
  Matrix gram(n, n);
  Syrk(Trans::kTrans, 1.0, x, 0.0, &gram);
  auto eig = SymmetricEigen(gram);
  if (!eig.ok()) return std::nullopt;

  // Eigenvalues come back ascending; sigma_j^2 is the j-th largest. The
  // test is negated so an overflowed (inf or NaN) spectrum falls back too.
  const int64_t r = std::min(rank, n);
  const double top = eig->values[static_cast<size_t>(n - 1)];
  const double last = eig->values[static_cast<size_t>(n - r)];
  if (!(last > kGramSigmaFloor * kGramSigmaFloor * top)) return std::nullopt;

  // V_r: the top-r eigenvector columns in descending-eigenvalue order.
  Matrix vr(n, r);
  for (int64_t j = 0; j < r; ++j) {
    vr.SetCol(j, eig->vectors.ColData(n - 1 - j));
  }
  Matrix u(m, r);
  Gemm(Trans::kNo, Trans::kNo, 1.0, x, vr, 0.0, &u);
  // Each column has norm ~sigma_j > 0; normalize to unit length.
  for (int64_t j = 0; j < r; ++j) {
    Scal(1.0 / Norm2(u.ColData(j), m), u.ColData(j), m);
  }
  return u;
}

Result<Matrix> PanelSubspace(const Matrix& panel,
                             const BatchedSubspaceOptions& options) {
  const int64_t rows = panel.rows();
  const int64_t cols = panel.cols();
  if (options.rank > 0 && cols >= 1 && cols <= kGramEngineMaxCols &&
      rows >= kGramEngineMinAspect * cols) {
    if (std::optional<Matrix> u = GramSubspace(panel, options.rank)) {
      return *std::move(u);
    }
  }
  return PrincipalSubspace(panel, options.rank, options.rel_tol);
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

std::vector<Result<QrResult>> BatchedThinQr(const std::vector<Matrix>& panels,
                                            const QrOptions& options,
                                            int num_threads) {
  std::vector<Result<QrResult>> out(
      panels.size(),
      Result<QrResult>(Status::Internal("batch slot not computed")));
  ParallelFor(0, static_cast<int64_t>(panels.size()), num_threads,
              [&](int64_t i) {
                out[static_cast<size_t>(i)] =
                    HouseholderQr(panels[static_cast<size_t>(i)], options);
              });
  return out;
}

}  // namespace fedsc
