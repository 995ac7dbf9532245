#include "graph/eigengap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "graph/laplacian.h"
#include "linalg/eig.h"

namespace fedsc {

Result<int64_t> EstimateClusterCountFromSpectrum(
    const Vector& ascending_eigenvalues, const EigengapOptions& options) {
  const int64_t n = static_cast<int64_t>(ascending_eigenvalues.size());
  if (n < 2) {
    return Status::InvalidArgument(
        "eigengap heuristic needs at least 2 eigenvalues");
  }
  int64_t limit = n - 1;
  if (options.max_clusters > 0) {
    limit = std::min(limit, options.max_clusters);
  }
  int64_t best_index = 1;
  double best_gap = -1.0;
  for (int64_t i = 1; i <= limit; ++i) {
    const double gap = ascending_eigenvalues[static_cast<size_t>(i)] -
                       ascending_eigenvalues[static_cast<size_t>(i - 1)];
    if (gap > best_gap) {
      best_gap = gap;
      best_index = i;
    }
  }
  return best_index;
}

Vector LaplacianSpectrumFromAdjacency(const Vector& adjacency_ascending,
                                      const Vector& degrees) {
  const size_t n = adjacency_ascending.size();
  FEDSC_CHECK(degrees.size() == n)
      << "one degree per eigenvalue of the normalized adjacency";
  // The isolated test mirrors NormalizedAdjacency's zero-degree convention.
  const auto isolated = static_cast<size_t>(
      std::count_if(degrees.begin(), degrees.end(),
                    [](double degree) { return !(degree > 0.0); }));
  // The isolated vertices' eigenvalues of M are (to rounding) 0: the
  // `isolated` values nearest 0, a contiguous window of the ascending
  // spectrum. Ties go to the lower window.
  size_t window = 0;
  double window_reach = 0.0;
  for (size_t lo = 0; isolated > 0 && lo + isolated <= n; ++lo) {
    const double reach =
        std::max(std::fabs(adjacency_ascending[lo]),
                 std::fabs(adjacency_ascending[lo + isolated - 1]));
    if (lo == 0 || reach < window_reach) {
      window = lo;
      window_reach = reach;
    }
  }
  Vector spectrum(isolated, 0.0);
  spectrum.reserve(n);
  for (size_t i = n; i-- > 0;) {
    if (i >= window && i < window + isolated) continue;
    spectrum.push_back(1.0 - adjacency_ascending[i]);
  }
  return spectrum;
}

Result<int64_t> EstimateClusterCount(const Matrix& w,
                                     const EigengapOptions& options) {
  if (w.rows() != w.cols() || w.rows() < 2) {
    return Status::InvalidArgument(
        "eigengap heuristic needs a square affinity of size >= 2");
  }
  FEDSC_ASSIGN_OR_RETURN(Vector adjacency,
                         SymmetricEigenvalues(NormalizedAdjacency(w)));
  return EstimateClusterCountFromSpectrum(
      LaplacianSpectrumFromAdjacency(adjacency, Degrees(w)), options);
}

}  // namespace fedsc
