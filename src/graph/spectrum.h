// The normalized-graph spectrum of a dense affinity, solved one connected
// component at a time.
//
// Under the permutation that groups each component's vertices, the
// normalized adjacency M = D^{-1/2} W D^{-1/2} is block-diagonal, so its
// spectrum is the union of the blocks' spectra and each block's
// eigenvectors, zero elsewhere, are eigenvectors of M (docs/ALGORITHMS.md).
// ComponentSpectrum reduces each block once and reads only the eigenvalues
// and eigenvectors its caller asks for. An isolated vertex is a 1-point
// component whose Laplacian eigenvalue is an exact 0, with the unit vector
// at the vertex as its eigenvector (the zero-degree convention of
// graph/laplacian.h).
//
// The eigengap heuristic (graph/eigengap.h) and dense spectral clustering
// (cluster/spectral.h) share it, so every path that picks r^(z) or embeds
// a device's affinity takes the same per-component route.

#ifndef FEDSC_GRAPH_SPECTRUM_H_
#define FEDSC_GRAPH_SPECTRUM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "graph/components.h"
#include "linalg/eig.h"
#include "linalg/matrix.h"

namespace fedsc {

class ComponentSpectrum {
 public:
  // Splits a square, symmetric, nonnegative `affinity` into its connected
  // components (any nonzero entry is an edge) and reduces each multi-vertex
  // component's block of M once. `num_threads` reaches the eigensolver.
  static Result<ComponentSpectrum> Create(const Matrix& affinity,
                                          int num_threads = 1);

  int64_t size() const {
    return static_cast<int64_t>(components_.labels.size());
  }

  // The components, labels numbered by first appearance.
  const ComponentsResult& components() const { return components_; }

  // The `count` smallest eigenvalues of the normalized Laplacian L = I - M,
  // ascending: the merge of each component's 1 - mu over the largest
  // eigenvalues mu of its block, and an exact 0 per isolated vertex. Ties
  // order by component, then within it. Requires 0 <= count <= size().
  Result<Vector> LaplacianValues(int64_t count) const;

  // The n x k spectral embedding: column t is the unit eigenvector of the
  // t-th of LaplacianValues(k), zero off its component. Only these k
  // vectors are formed. Requires 1 <= k <= size().
  Result<Matrix> Embedding(int64_t k) const;

 private:
  // One of the smallest Laplacian eigenvalues: component `component`'s
  // `rank`-th largest eigenvalue of M, as 1 - mu.
  struct Entry {
    double value;
    int64_t component;
    int64_t rank;
  };
  Result<std::vector<Entry>> Smallest(int64_t count) const;

  ComponentsResult components_;
  std::vector<std::vector<int64_t>> vertices_;  // per component, ascending
  // Per component: its block's reduction; empty for an isolated vertex.
  std::vector<std::optional<SymmetricEigensolver>> solvers_;
};

}  // namespace fedsc

#endif  // FEDSC_GRAPH_SPECTRUM_H_
