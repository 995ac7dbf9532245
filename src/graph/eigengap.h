// The eigengap heuristic (Eq. 3 of the paper): estimate the number of
// clusters in an affinity graph as the position of the largest gap in the
// sorted spectrum of the normalized Laplacian.
//
// The spectrum comes from ComponentSpectrum (graph/spectrum.h): each
// connected component's block of the normalized adjacency
// M = D^{-1/2} W D^{-1/2} is solved on its own, and a capped heuristic
// reads only the max_clusters + 1 smallest Laplacian eigenvalues. Spectral
// clustering embeds from the same reductions, so a device that picks r^(z)
// and then clusters at that r reduces its affinity once.

#ifndef FEDSC_GRAPH_EIGENGAP_H_
#define FEDSC_GRAPH_EIGENGAP_H_

#include <cstdint>

#include "common/result.h"
#include "graph/spectrum.h"
#include "linalg/matrix.h"

namespace fedsc {

struct EigengapOptions {
  // Only gaps at positions 1..max_clusters are considered (the paper caps
  // r^(z) by an upper bound on real-world data; <= 0 means no cap).
  int64_t max_clusters = 0;
};

// r = argmax_{i in [N-1]} (sigma_{i+1} - sigma_i) over the ascending
// eigenvalues of the normalized Laplacian of `w`. Returns a value in
// [1, N-1] (or [1, max_clusters]).
Result<int64_t> EstimateClusterCount(const Matrix& w,
                                     const EigengapOptions& options = {});

// The same heuristic over an already-reduced graph, reading its
// min(N - 1, max_clusters) + 1 smallest Laplacian eigenvalues.
Result<int64_t> EstimateClusterCount(const ComponentSpectrum& spectrum,
                                     const EigengapOptions& options = {});

// Same heuristic applied to an already-computed ascending spectrum.
Result<int64_t> EstimateClusterCountFromSpectrum(
    const Vector& ascending_eigenvalues, const EigengapOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_GRAPH_EIGENGAP_H_
