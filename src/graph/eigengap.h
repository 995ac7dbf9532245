// The eigengap heuristic (Eq. 3 of the paper): estimate the number of
// clusters in an affinity graph as the position of the largest gap in the
// sorted spectrum of the normalized Laplacian.
//
// The Laplacian spectrum is read off the normalized adjacency
// M = D^{-1/2} W D^{-1/2}, the matrix spectral clustering decomposes anyway
// (docs/ALGORITHMS.md derives the mapping): a device that picks r^(z) and
// then clusters at that r needs one eigensolve, and this call picks the
// same r from the same spectrum.

#ifndef FEDSC_GRAPH_EIGENGAP_H_
#define FEDSC_GRAPH_EIGENGAP_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct EigengapOptions {
  // Only gaps at positions 1..max_clusters are considered (the paper caps
  // r^(z) by an upper bound on real-world data; <= 0 means no cap).
  int64_t max_clusters = 0;
};

// r = argmax_{i in [N-1]} (sigma_{i+1} - sigma_i) over the ascending
// eigenvalues of the normalized Laplacian of `w`, computed as the values
// of its normalized adjacency through LaplacianSpectrumFromAdjacency.
// Returns a value in [1, N-1] (or [1, max_clusters]).
Result<int64_t> EstimateClusterCount(const Matrix& w,
                                     const EigengapOptions& options = {});

// Same heuristic applied to an already-computed ascending spectrum.
Result<int64_t> EstimateClusterCountFromSpectrum(
    const Vector& ascending_eigenvalues, const EigengapOptions& options = {});

// The ascending normalized-Laplacian spectrum from the ascending spectrum of
// the normalized adjacency and the graph's degrees. L = I - M off the
// isolated (zero-degree) vertices, whose rows and columns of both are zero:
// each isolated vertex owns one eigenvalue 0 of M (one of those nearest 0),
// which becomes an exact 0 at the front, and every other eigenvalue mu of M
// gives 1 - mu.
Vector LaplacianSpectrumFromAdjacency(const Vector& adjacency_ascending,
                                      const Vector& degrees);

}  // namespace fedsc

#endif  // FEDSC_GRAPH_EIGENGAP_H_
