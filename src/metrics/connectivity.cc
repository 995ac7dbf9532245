#include "metrics/connectivity.h"

#include <functional>

#include <algorithm>

#include "graph/laplacian.h"
#include "linalg/eig.h"

namespace fedsc {

namespace {

Result<ConnectivityResult> FromSubmatrices(
    int64_t num_clusters,
    const std::vector<std::vector<int64_t>>& members,
    const std::function<Matrix(const std::vector<int64_t>&)>& submatrix) {
  ConnectivityResult result;
  result.per_cluster.assign(static_cast<size_t>(num_clusters), 0.0);
  for (int64_t c = 0; c < num_clusters; ++c) {
    const auto& idx = members[static_cast<size_t>(c)];
    if (idx.size() < 2) continue;  // singleton: lambda_2 := 0
    const Matrix sub = submatrix(idx);
    FEDSC_ASSIGN_OR_RETURN(
        SymmetricEigensolver solver,
        SymmetricEigensolver::Create(NormalizedLaplacian(sub)));
    FEDSC_ASSIGN_OR_RETURN(Vector lambda2, solver.Values(1, 1));
    result.per_cluster[static_cast<size_t>(c)] = std::max(0.0, lambda2[0]);
  }
  double sum = 0.0;
  double min_value = result.per_cluster.empty() ? 0.0 : result.per_cluster[0];
  for (double v : result.per_cluster) {
    sum += v;
    min_value = std::min(min_value, v);
  }
  result.min_lambda2 = min_value;
  result.mean_lambda2 =
      result.per_cluster.empty()
          ? 0.0
          : sum / static_cast<double>(result.per_cluster.size());
  return result;
}

std::vector<std::vector<int64_t>> GroupByLabel(
    const std::vector<int64_t>& truth, int64_t* num_clusters) {
  int64_t max_label = -1;
  for (int64_t v : truth) max_label = std::max(max_label, v);
  *num_clusters = max_label + 1;
  std::vector<std::vector<int64_t>> members(
      static_cast<size_t>(*num_clusters));
  for (size_t i = 0; i < truth.size(); ++i) {
    members[static_cast<size_t>(truth[i])].push_back(
        static_cast<int64_t>(i));
  }
  return members;
}

}  // namespace

Result<ConnectivityResult> GraphConnectivity(
    const Matrix& affinity, const std::vector<int64_t>& truth) {
  if (affinity.rows() != affinity.cols() ||
      affinity.rows() != static_cast<int64_t>(truth.size())) {
    return Status::InvalidArgument("affinity/labels size mismatch");
  }
  int64_t num_clusters = 0;
  const auto members = GroupByLabel(truth, &num_clusters);
  return FromSubmatrices(
      num_clusters, members, [&](const std::vector<int64_t>& idx) {
        Matrix sub(static_cast<int64_t>(idx.size()),
                   static_cast<int64_t>(idx.size()));
        for (size_t j = 0; j < idx.size(); ++j) {
          for (size_t i = 0; i < idx.size(); ++i) {
            sub(static_cast<int64_t>(i), static_cast<int64_t>(j)) =
                affinity(idx[i], idx[j]);
          }
        }
        return sub;
      });
}

Result<ConnectivityResult> GraphConnectivity(
    const SparseMatrix& affinity, const std::vector<int64_t>& truth) {
  if (affinity.rows() != affinity.cols() ||
      affinity.rows() != static_cast<int64_t>(truth.size())) {
    return Status::InvalidArgument("affinity/labels size mismatch");
  }
  int64_t num_clusters = 0;
  const auto members = GroupByLabel(truth, &num_clusters);
  // Map from global index to position within its cluster.
  std::vector<int64_t> position(truth.size(), -1);
  for (const auto& group : members) {
    for (size_t p = 0; p < group.size(); ++p) {
      position[static_cast<size_t>(group[p])] = static_cast<int64_t>(p);
    }
  }
  return FromSubmatrices(
      num_clusters, members, [&](const std::vector<int64_t>& idx) {
        Matrix sub(static_cast<int64_t>(idx.size()),
                   static_cast<int64_t>(idx.size()));
        const int64_t label = truth[static_cast<size_t>(idx[0])];
        for (int64_t row : idx) {
          for (int64_t k = affinity.row_ptr()[static_cast<size_t>(row)];
               k < affinity.row_ptr()[static_cast<size_t>(row) + 1]; ++k) {
            const int64_t col = affinity.col_idx()[static_cast<size_t>(k)];
            if (truth[static_cast<size_t>(col)] != label) continue;
            sub(position[static_cast<size_t>(row)],
                position[static_cast<size_t>(col)]) +=
                affinity.values()[static_cast<size_t>(k)];
          }
        }
        return sub;
      });
}

}  // namespace fedsc
