// Connected components of an undirected graph given as a (symmetric)
// sparse or dense adjacency/affinity matrix.

#ifndef FEDSC_GRAPH_COMPONENTS_H_
#define FEDSC_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace fedsc {

struct ComponentsResult {
  int64_t count = 0;
  // labels[i] in [0, count), numbered by first appearance.
  std::vector<int64_t> labels;
};

// Any nonzero entry counts as an edge; the matrix is treated as symmetric
// (an edge in either triangle connects both endpoints).
ComponentsResult ConnectedComponents(const SparseMatrix& adjacency);
ComponentsResult ConnectedComponents(const Matrix& adjacency);

}  // namespace fedsc

#endif  // FEDSC_GRAPH_COMPONENTS_H_
