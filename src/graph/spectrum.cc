#include "graph/spectrum.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/laplacian.h"

namespace fedsc {

Result<ComponentSpectrum> ComponentSpectrum::Create(const Matrix& affinity,
                                                    int num_threads) {
  if (affinity.rows() != affinity.cols()) {
    return Status::InvalidArgument("affinity must be square");
  }
  ComponentSpectrum spectrum;
  spectrum.components_ = ConnectedComponents(affinity);
  const int64_t n = affinity.rows();
  const int64_t count = spectrum.components_.count;
  spectrum.vertices_.resize(static_cast<size_t>(count));
  for (int64_t i = 0; i < n; ++i) {
    spectrum.vertices_[static_cast<size_t>(
                           spectrum.components_.labels[static_cast<size_t>(i)])]
        .push_back(i);
  }
  EigOptions options;
  options.num_threads = num_threads;
  spectrum.solvers_.resize(static_cast<size_t>(count));
  for (int64_t c = 0; c < count; ++c) {
    const std::vector<int64_t>& vertices =
        spectrum.vertices_[static_cast<size_t>(c)];
    const auto s = static_cast<int64_t>(vertices.size());
    if (s == 1) continue;
    // A component's degrees are its vertices' full degrees (no edge leaves
    // it), so its block of M carries M's entries bit for bit.
    Matrix block;
    if (s < n) {
      block = Matrix(s, s);
      for (int64_t j = 0; j < s; ++j) {
        for (int64_t i = 0; i < s; ++i) {
          block(i, j) = affinity(vertices[static_cast<size_t>(i)],
                                 vertices[static_cast<size_t>(j)]);
        }
      }
    }
    FEDSC_ASSIGN_OR_RETURN(
        SymmetricEigensolver solver,
        SymmetricEigensolver::Create(
            NormalizedAdjacency(s < n ? block : affinity), options));
    spectrum.solvers_[static_cast<size_t>(c)] = std::move(solver);
  }
  return spectrum;
}

Result<std::vector<ComponentSpectrum::Entry>> ComponentSpectrum::Smallest(
    int64_t count) const {
  if (count < 0 || count > size()) {
    return Status::InvalidArgument(
        "asked for " + std::to_string(count) +
        " Laplacian eigenvalues of a graph of " + std::to_string(size()));
  }
  // Each component's smallest Laplacian eigenvalues are its block's largest
  // of M, so min(count, order) from each hold the merged `count` smallest.
  std::vector<Entry> entries;
  for (size_t c = 0; c < solvers_.size(); ++c) {
    const auto component = static_cast<int64_t>(c);
    if (!solvers_[c]) {
      entries.push_back({0.0, component, 0});
      continue;
    }
    const int64_t s = solvers_[c]->size();
    const int64_t w = std::min(count, s);
    FEDSC_ASSIGN_OR_RETURN(Vector mu, solvers_[c]->Values(s - w, w));
    for (int64_t rank = 0; rank < w; ++rank) {
      entries.push_back(
          {1.0 - mu[static_cast<size_t>(w - 1 - rank)], component, rank});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) {
              if (x.value != y.value) return x.value < y.value;
              if (x.component != y.component) return x.component < y.component;
              return x.rank < y.rank;
            });
  entries.resize(static_cast<size_t>(count));
  return entries;
}

Result<Vector> ComponentSpectrum::LaplacianValues(int64_t count) const {
  FEDSC_ASSIGN_OR_RETURN(const std::vector<Entry> entries, Smallest(count));
  Vector values;
  values.reserve(entries.size());
  for (const Entry& entry : entries) values.push_back(entry.value);
  return values;
}

Result<Matrix> ComponentSpectrum::Embedding(int64_t k) const {
  if (k < 1) return Status::InvalidArgument("an embedding needs k >= 1");
  FEDSC_ASSIGN_OR_RETURN(const std::vector<Entry> entries, Smallest(k));
  // The columns each component fills, indexed by rank: a component's values
  // are nondecreasing in rank and ties order by rank, so its entries arrive
  // as ranks 0, 1, 2, ...
  std::vector<std::vector<int64_t>> columns(solvers_.size());
  for (int64_t t = 0; t < k; ++t) {
    columns[static_cast<size_t>(entries[static_cast<size_t>(t)].component)]
        .push_back(t);
  }
  Matrix embedding(size(), k);
  for (size_t c = 0; c < solvers_.size(); ++c) {
    const std::vector<int64_t>& mine = columns[c];
    if (mine.empty()) continue;
    const std::vector<int64_t>& vertices = vertices_[c];
    if (!solvers_[c]) {
      embedding(vertices[0], mine[0]) = 1.0;
      continue;
    }
    const int64_t s = solvers_[c]->size();
    const auto j = static_cast<int64_t>(mine.size());
    FEDSC_ASSIGN_OR_RETURN(EigResult top, solvers_[c]->Pairs(s - j, j));
    for (int64_t rank = 0; rank < j; ++rank) {
      const int64_t t = mine[static_cast<size_t>(rank)];
      const double* v = top.vectors.ColData(j - 1 - rank);
      for (int64_t i = 0; i < s; ++i) {
        embedding(vertices[static_cast<size_t>(i)], t) = v[i];
      }
    }
  }
  return embedding;
}

}  // namespace fedsc
