#include "sc/ssc_omp.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"

namespace fedsc {

namespace {

// Every column of x pursues atoms of `dictionary`, never self_atom[j].
Result<SparseMatrix> DictionaryPursuit(const Matrix& x,
                                       const Matrix& dictionary,
                                       const std::vector<int64_t>& self_atom,
                                       const SscOmpOptions& options) {
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  const int64_t num_atoms = dictionary.cols();
  if (options.max_support < 1) {
    return Status::InvalidArgument("SSC-OMP max_support must be >= 1");
  }

  // Each column's pursuit is independent: the solves fan out over fixed
  // column ranges, each range collecting its triplets locally. The per-range
  // lists concatenate in column order below, reproducing the serial triplet
  // order exactly (FromTriplets sums duplicates in input order, so order is
  // part of the determinism contract).
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_points, options.num_threads))));

  ParallelForRanges(0, num_points, options.num_threads, [&](int64_t c0,
                                                            int64_t c1,
                                                            int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    Vector residual(static_cast<size_t>(n), 0.0);
    Vector scores(static_cast<size_t>(num_atoms), 0.0);
    std::vector<int64_t> support;
    std::vector<char> in_support(static_cast<size_t>(num_atoms), 0);

    for (int64_t j = c0; j < c1; ++j) {
      const int64_t forbidden = self_atom[static_cast<size_t>(j)];
      const int64_t k_max = std::min<int64_t>(
          options.max_support, num_atoms - (forbidden >= 0 ? 1 : 0));
      if (k_max < 1) continue;
      std::copy(x.ColData(j), x.ColData(j) + n, residual.begin());
      support.clear();
      std::fill(in_support.begin(), in_support.end(), 0);
      if (forbidden >= 0) in_support[static_cast<size_t>(forbidden)] = 1;
      Vector coeffs;

      for (int64_t step = 0; step < k_max; ++step) {
        if (Norm2(residual.data(), n) < options.residual_tol) break;
        // Most correlated unused atom.
        Gemv(Trans::kTrans, 1.0, dictionary, residual.data(), 0.0,
             scores.data());
        int64_t best = -1;
        double best_score = 0.0;
        for (int64_t a = 0; a < num_atoms; ++a) {
          if (in_support[static_cast<size_t>(a)]) continue;
          const double s = std::fabs(scores[static_cast<size_t>(a)]);
          if (s > best_score) {
            best_score = s;
            best = a;
          }
        }
        if (best < 0 || best_score <= 1e-14) break;
        support.push_back(best);
        in_support[static_cast<size_t>(best)] = 1;

        // Least squares on the current support via normal equations
        // (supports stay tiny, and a diagonal jitter guards collinear
        // atoms).
        const Matrix sub = dictionary.GatherCols(support);
        Matrix gram = Gram(sub);
        for (int64_t d = 0; d < gram.rows(); ++d) gram(d, d) += 1e-12;
        const Vector rhs = Gemv(Trans::kTrans, sub, x.Col(j));
        auto solved = SolveSpd(gram, Matrix::FromColumn(rhs));
        if (!solved.ok()) break;
        coeffs = solved->Col(0);

        // residual = x_j - sub * coeffs
        std::copy(x.ColData(j), x.ColData(j) + n, residual.begin());
        Gemv(Trans::kNo, -1.0, sub, coeffs.data(), 1.0, residual.data());
      }

      for (size_t t = 0; t < support.size(); ++t) {
        if (coeffs.size() > t && coeffs[t] != 0.0) {
          triplets.push_back({support[t], j, coeffs[t]});
        }
      }
    }
  });

  std::vector<Triplet> triplets;
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(num_atoms, num_points,
                                    std::move(triplets));
}

}  // namespace

Result<SparseMatrix> SscOmpSelfExpression(const Matrix& x,
                                          const SscOmpOptions& options) {
  if (x.cols() < 2) {
    return Status::InvalidArgument("SSC-OMP needs at least 2 points");
  }
  return DictionaryPursuit(x, x, IdentitySelfAtoms(x.cols()), options);
}

Result<SparseMatrix> SscOmpSketchedSelfExpression(
    const Matrix& x, const SketchResult& sketch, const SscOmpOptions& options) {
  FEDSC_ASSIGN_OR_RETURN(const std::vector<int64_t> self_atom,
                         SketchSelfAtoms(x, sketch, "SSC-OMP"));
  return DictionaryPursuit(x, sketch.dictionary, self_atom, options);
}

}  // namespace fedsc
