#include "graph/components.h"

#include "common/check.h"

namespace fedsc {

namespace {

// Labels the components of an n-vertex graph by depth-first search from
// each unlabeled vertex in index order. `for_each_neighbor(u, visit)` calls
// visit(v) for every vertex v that shares a nonzero entry with u.
template <typename Neighbors>
ComponentsResult Label(int64_t n, const Neighbors& for_each_neighbor) {
  ComponentsResult result;
  result.labels.assign(static_cast<size_t>(n), -1);
  std::vector<int64_t> stack;
  for (int64_t start = 0; start < n; ++start) {
    if (result.labels[static_cast<size_t>(start)] != -1) continue;
    const int64_t component = result.count++;
    stack.push_back(start);
    result.labels[static_cast<size_t>(start)] = component;
    while (!stack.empty()) {
      const int64_t u = stack.back();
      stack.pop_back();
      for_each_neighbor(u, [&](int64_t v) {
        if (result.labels[static_cast<size_t>(v)] == -1) {
          result.labels[static_cast<size_t>(v)] = component;
          stack.push_back(v);
        }
      });
    }
  }
  return result;
}

}  // namespace

ComponentsResult ConnectedComponents(const SparseMatrix& adjacency) {
  FEDSC_CHECK(adjacency.rows() == adjacency.cols());
  const SparseMatrix transposed = adjacency.Transposed();
  return Label(adjacency.rows(), [&](int64_t u, const auto& visit) {
    for (const SparseMatrix* m : {&adjacency, &transposed}) {
      for (int64_t k = m->row_ptr()[static_cast<size_t>(u)];
           k < m->row_ptr()[static_cast<size_t>(u) + 1]; ++k) {
        if (m->values()[static_cast<size_t>(k)] == 0.0) continue;
        visit(m->col_idx()[static_cast<size_t>(k)]);
      }
    }
  });
}

ComponentsResult ConnectedComponents(const Matrix& adjacency) {
  FEDSC_CHECK(adjacency.rows() == adjacency.cols());
  const int64_t n = adjacency.rows();
  return Label(n, [&](int64_t u, const auto& visit) {
    for (int64_t v = 0; v < n; ++v) {
      if (adjacency(v, u) != 0.0 || adjacency(u, v) != 0.0) visit(v);
    }
  });
}

}  // namespace fedsc
