#include "cluster/spectral.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/laplacian.h"
#include "graph/spectrum.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "linalg/lanczos.h"

namespace fedsc {

namespace {

// Sparse graphs of at least this many vertices take subspace iteration
// instead of the dense eigensolver. On connected 5-block graphs (DESIGN.md
// section 5, medians of 5 in ms, dense / sparse) the sparse path wins from
// N = 100 up: 0.94 / 0.58 at 100, 9.01 / 2.14 at 300, 197 / 8.73 at 900.
// The cutoff keeps the labels of the exact central pools below 900 as they
// are.
constexpr int64_t kSparseSpectralCutoff = 900;

Status ValidateArgs(int64_t n, int64_t cols, int64_t k) {
  if (n != cols) return Status::InvalidArgument("affinity must be square");
  if (k < 1 || k > n) {
    return Status::InvalidArgument("spectral clustering needs 1 <= k <= N");
  }
  return Status::OK();
}

// K-means over the rows of the embedding, each row normalized to unit
// length first (the Ng-Jordan-Weiss step).
Result<SpectralResult> FinishFromEmbedding(Matrix embedding,
                                           const SpectralOptions& options,
                                           int64_t k) {
  const int64_t n = embedding.rows();
  for (int64_t i = 0; i < n; ++i) {
    double norm = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      norm += embedding(i, j) * embedding(i, j);
    }
    norm = std::sqrt(norm);
    if (norm > 1e-300) {
      for (int64_t j = 0; j < k; ++j) embedding(i, j) /= norm;
    }
  }
  // k-means treats points as columns, so cluster the transposed embedding.
  FEDSC_ASSIGN_OR_RETURN(KMeansResult km,
                         KMeans(embedding.Transposed(), k, options.kmeans));
  SpectralResult result;
  result.labels = std::move(km.labels);
  result.embedding = std::move(embedding);
  result.kmeans_iterations = km.iterations;
  return result;
}

// At k = the component count the top-k eigenspace of M is spanned by the
// components' D^{1/2} 1_c, so the row-normalized embedding is constant on
// each component (docs/ALGORITHMS.md): the components are the partition,
// with no vectors formed and no k-means run.
SpectralResult ComponentPartition(const ComponentsResult& components) {
  const auto n = static_cast<int64_t>(components.labels.size());
  SpectralResult result;
  result.labels = components.labels;
  result.embedding = Matrix(n, components.count);
  for (int64_t i = 0; i < n; ++i) {
    result.embedding(i, components.labels[static_cast<size_t>(i)]) = 1.0;
  }
  return result;
}

}  // namespace

Result<SpectralResult> SpectralCluster(const Matrix& affinity, int64_t k,
                                       const SpectralOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateArgs(affinity.rows(), affinity.cols(), k));
  FEDSC_TRACE_SPAN("cluster/spectral",
                   {{"n", affinity.rows()}, {"k", k}, {"kind", "dense"}});
  const ComponentsResult components = ConnectedComponents(affinity);
  if (k == components.count) return ComponentPartition(components);
  FEDSC_ASSIGN_OR_RETURN(
      ComponentSpectrum spectrum,
      ComponentSpectrum::Create(affinity, options.num_threads));
  FEDSC_ASSIGN_OR_RETURN(Matrix embedding, spectrum.Embedding(k));
  return FinishFromEmbedding(std::move(embedding), options, k);
}

Result<EigengapSpectralResult> EigengapSpectralCluster(
    const Matrix& affinity, const EigengapOptions& gap,
    const SpectralOptions& options, Rng* rng) {
  const int64_t n = affinity.rows();
  if (n != affinity.cols() || n < 2) {
    return Status::InvalidArgument(
        "eigengap heuristic needs a square affinity of size >= 2");
  }
  FEDSC_ASSIGN_OR_RETURN(
      ComponentSpectrum spectrum,
      ComponentSpectrum::Create(affinity, options.num_threads));
  EigengapSpectralResult out;
  out.num_components = spectrum.components().count;
  FEDSC_ASSIGN_OR_RETURN(out.num_clusters,
                         EstimateClusterCount(spectrum, gap));
  const int64_t r = out.num_clusters;
  if (r == 1) {
    out.labels.assign(static_cast<size_t>(n), 0);
    return out;
  }
  SpectralOptions at_r = options;
  at_r.kmeans.seed = rng->Next();
  if (r == out.num_components) {
    out.labels = spectrum.components().labels;
    return out;
  }
  FEDSC_ASSIGN_OR_RETURN(Matrix embedding, spectrum.Embedding(r));
  FEDSC_ASSIGN_OR_RETURN(SpectralResult clusters,
                         FinishFromEmbedding(std::move(embedding), at_r, r));
  out.labels = std::move(clusters.labels);
  return out;
}

Result<SpectralResult> SpectralCluster(const SparseMatrix& affinity, int64_t k,
                                       const SpectralOptions& options) {
  if (affinity.rows() < kSparseSpectralCutoff) {
    return SpectralCluster(affinity.ToDense(), k, options);
  }
  return internal_spectral::SparseSpectralCluster(affinity, k, options);
}

namespace internal_spectral {

Result<SpectralResult> SparseSpectralCluster(const SparseMatrix& affinity,
                                             int64_t k,
                                             const SpectralOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateArgs(affinity.rows(), affinity.cols(), k));
  const int64_t n = affinity.rows();
  FEDSC_TRACE_SPAN("cluster/spectral",
                   {{"n", n}, {"k", k}, {"kind", "sparse"}});
  const SparseMatrix m = NormalizedAdjacency(affinity);
  const SymmetricOperator apply = [&m](const double* x, double* y) {
    m.Multiply(x, y);
  };
  // Subspace iteration rather than Lanczos: the top eigenvalue of a
  // well-separated affinity graph is degenerate (multiplicity = number of
  // components), which orthogonal iteration handles natively. The +1 shift
  // makes the wanted algebraically-largest eigenvalues of the normalized
  // adjacency (spectrum in [-1, 1]) dominant in magnitude.
  SubspaceIterationOptions iteration;
  iteration.shift = 1.0;
  FEDSC_ASSIGN_OR_RETURN(EigResult eig,
                         SubspaceIterationLargest(apply, n, k, iteration));
  Matrix embedding(n, k);
  for (int64_t j = 0; j < k && j < eig.vectors.cols(); ++j) {
    embedding.SetCol(j, eig.vectors.ColData(j));  // already descending
  }
  return FinishFromEmbedding(std::move(embedding), options, k);
}

}  // namespace internal_spectral

Result<SpectralResult> SpectralClusterLandmark(
    const SparseMatrix& coefficients, int64_t k,
    const SpectralOptions& options) {
  const int64_t num_atoms = coefficients.rows();
  const int64_t n = coefficients.cols();
  if (k < 1 || k > n) {
    return Status::InvalidArgument("spectral clustering needs 1 <= k <= N");
  }
  if (k > num_atoms) {
    return Status::InvalidArgument(
        "landmark spectral clustering needs k <= sketch dim (" +
        std::to_string(k) + " > " + std::to_string(num_atoms) + ")");
  }
  FEDSC_TRACE_SPAN("spectral/nystrom",
                   {{"n", n}, {"k", k}, {"atoms", num_atoms}});

  // B = |C|; the affinity semantics of every self-expression method uses
  // coefficient magnitudes.
  SparseMatrix b = coefficients;
  for (double& v : *b.mutable_values()) v = std::fabs(v);

  const Vector degrees = LandmarkDegrees(b);
  const SparseMatrix m = LandmarkNormalizedFactor(b, degrees);
  const SparseMatrix mt = m.Transposed();  // row i = point i's atom support

  // d x d core T = M M^T. Row a of T is produced independently (disjoint
  // output, summation order fixed by the CSR layouts), so the fan-out is
  // bit-identical for every thread count. Cost sum_j supp(j)^2.
  Matrix core(num_atoms, num_atoms);
  ParallelForRanges(0, num_atoms, options.num_threads, [&](int64_t a0,
                                                           int64_t a1, int) {
    for (int64_t a = a0; a < a1; ++a) {
      double* col = core.ColData(a);  // row a of the symmetric core
      for (int64_t p = m.row_ptr()[static_cast<size_t>(a)];
           p < m.row_ptr()[static_cast<size_t>(a) + 1]; ++p) {
        const int64_t j = m.col_idx()[static_cast<size_t>(p)];
        const double v_aj = m.values()[static_cast<size_t>(p)];
        for (int64_t q = mt.row_ptr()[static_cast<size_t>(j)];
             q < mt.row_ptr()[static_cast<size_t>(j) + 1]; ++q) {
          col[mt.col_idx()[static_cast<size_t>(q)]] +=
              v_aj * mt.values()[static_cast<size_t>(q)];
        }
      }
    }
  });

  EigOptions eig_options;
  eig_options.num_threads = options.num_threads;
  FEDSC_ASSIGN_OR_RETURN(SymmetricEigensolver solver,
                         SymmetricEigensolver::Create(core, eig_options));
  FEDSC_ASSIGN_OR_RETURN(EigResult eig, solver.Pairs(num_atoms - k, k));

  // Extend the top-k core eigenvectors to all N rows: T v = lambda v gives
  // M^T M u = lambda u for u = M^T v / sqrt(lambda). Rows of the embedding
  // are disjoint per point, so the extension threads cleanly.
  Vector inv_sqrt(static_cast<size_t>(k), 0.0);
  Matrix top_vectors(num_atoms, k);
  for (int64_t t = 0; t < k; ++t) {
    const double lambda = eig.values[static_cast<size_t>(k - 1 - t)];
    inv_sqrt[static_cast<size_t>(t)] =
        lambda > 1e-12 ? 1.0 / std::sqrt(lambda) : 0.0;
    top_vectors.SetCol(t, eig.vectors.ColData(k - 1 - t));
  }
  Matrix embedding(n, k);
  ParallelForRanges(0, n, options.num_threads, [&](int64_t i0, int64_t i1,
                                                   int) {
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t t = 0; t < k; ++t) {
        const double* v = top_vectors.ColData(t);
        double sum = 0.0;
        for (int64_t q = mt.row_ptr()[static_cast<size_t>(i)];
             q < mt.row_ptr()[static_cast<size_t>(i) + 1]; ++q) {
          sum += mt.values()[static_cast<size_t>(q)] *
                 v[mt.col_idx()[static_cast<size_t>(q)]];
        }
        embedding(i, t) = sum * inv_sqrt[static_cast<size_t>(t)];
      }
    }
  });
  return FinishFromEmbedding(std::move(embedding), options, k);
}

}  // namespace fedsc
