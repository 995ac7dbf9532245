#include "graph/eigengap.h"

#include <algorithm>

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

Result<int64_t> EstimateClusterCount(const ComponentSpectrum& spectrum,
                                     const EigengapOptions& options) {
  const int64_t n = spectrum.size();
  if (n < 2) {
    return Status::InvalidArgument(
        "eigengap heuristic needs a square affinity of size >= 2");
  }
  // Gaps at positions 1..limit read the limit + 1 smallest eigenvalues.
  const int64_t limit = options.max_clusters > 0
                            ? std::min(n - 1, options.max_clusters)
                            : n - 1;
  FEDSC_ASSIGN_OR_RETURN(Vector smallest, spectrum.LaplacianValues(limit + 1));
  return EstimateClusterCountFromSpectrum(smallest, options);
}

Result<int64_t> EstimateClusterCount(const Matrix& w,
                                     const EigengapOptions& options) {
  if (w.rows() != w.cols() || w.rows() < 2) {
    return Status::InvalidArgument(
        "eigengap heuristic needs a square affinity of size >= 2");
  }
  FEDSC_ASSIGN_OR_RETURN(ComponentSpectrum spectrum,
                         ComponentSpectrum::Create(w));
  return EstimateClusterCount(spectrum, options);
}

}  // namespace fedsc
