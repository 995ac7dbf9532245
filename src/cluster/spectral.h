// Normalized spectral clustering (von Luxburg's tutorial, ref [24] of the
// paper): embed each vertex by the k smallest eigenvectors of the normalized
// Laplacian (equivalently, the k largest of D^{-1/2} W D^{-1/2}), normalize
// the embedding rows, and run k-means.
//
// Small graphs use the dense symmetric eigensolver one connected component
// at a time (ComponentSpectrum, graph/spectrum.h), forming only the top-k
// vectors; at k = the component count the components are the clusters and
// no vector is formed. Sparse graphs of at least 900 vertices use shifted
// subspace iteration (SubspaceIterationLargest) on the sparse normalized
// adjacency.

#ifndef FEDSC_CLUSTER_SPECTRAL_H_
#define FEDSC_CLUSTER_SPECTRAL_H_

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "common/result.h"
#include "common/rng.h"
#include "graph/eigengap.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace fedsc {

struct SpectralOptions {
  // Workers for the dense eigendecomposition (blocked tridiagonalization
  // GEMMs). Bit-identical results for every thread count.
  int num_threads = 1;
  KMeansOptions kmeans;
};

struct SpectralResult {
  std::vector<int64_t> labels;  // size N, values in [0, k)
  // N x k spectral embedding (rows normalized); at k = the component count,
  // each vertex's component indicator.
  Matrix embedding;
  // Lloyd iterations of the best k-means restart on the embedding.
  int kmeans_iterations = 0;
};

Result<SpectralResult> SpectralCluster(const Matrix& affinity, int64_t k,
                                       const SpectralOptions& options = {});

Result<SpectralResult> SpectralCluster(const SparseMatrix& affinity, int64_t k,
                                       const SpectralOptions& options = {});

namespace internal_spectral {

// The subspace-iteration path SpectralCluster takes for a sparse graph of at
// least 900 vertices, callable at any size so benchmarks can compare it with
// the dense path. Requires 1 <= k <= N.
Result<SpectralResult> SparseSpectralCluster(const SparseMatrix& affinity,
                                             int64_t k,
                                             const SpectralOptions& options);

}  // namespace internal_spectral

struct EigengapSpectralResult {
  int64_t num_clusters = 1;     // r, the eigengap heuristic's pick
  std::vector<int64_t> labels;  // size N, values in [0, r); all 0 at r = 1
  int64_t num_components = 1;   // connected components of the affinity
};

// Algorithm 2's local step from one reduction per connected component of
// the normalized adjacency M: r by the eigengap heuristic over the smallest
// Laplacian eigenvalues (the r EstimateClusterCount picks, bit for bit),
// then, when r > 1, the labels the dense SpectralCluster gives at r from
// the same reductions. The k-means seed is drawn from `rng` whenever
// r > 1, also when r equals the component count and the components are the
// labels, so the stream advances as on the path that runs the two calls.
Result<EigengapSpectralResult> EigengapSpectralCluster(
    const Matrix& affinity, const EigengapOptions& gap,
    const SpectralOptions& options, Rng* rng);

// Nystrom/landmark spectral clustering (the sketched central path): clusters
// the N points of the implied affinity W = |C|^T |C|, where `coefficients`
// is the d x N atom-by-point matrix the sketched self-expression produced —
// without ever forming the N x N graph. With M = |C| D^{-1/2}, the top-k
// eigenvectors of the normalized adjacency M^T M are recovered from the
// top-k eigenpairs of the d x d core T = M M^T and extended to all N rows
// by u = M^T v / sqrt(lambda), then handed to the usual row-normalize +
// k-means finish. Cost O(nnz(C) * d + d^3) instead of O(N^3). Requires
// 1 <= k <= d. Bit-identical for every thread count.
Result<SpectralResult> SpectralClusterLandmark(
    const SparseMatrix& coefficients, int64_t k,
    const SpectralOptions& options = {});

}  // namespace fedsc

#endif  // FEDSC_CLUSTER_SPECTRAL_H_
