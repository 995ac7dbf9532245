#include "sc/tsc.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "sc/affinity.h"

namespace fedsc {

namespace {

// The q entries of `score` with the highest values, ties going to the lower
// index, in heap order. One pass keeps the weakest of the best q at the
// front of a heap, so an entry that does not beat it costs one comparison.
void SelectTopQ(const Vector& score, int64_t q, std::vector<int64_t>* best) {
  const auto better = [&score](int64_t a, int64_t b) {
    const double fa = score[static_cast<size_t>(a)];
    const double fb = score[static_cast<size_t>(b)];
    return fa != fb ? fa > fb : a < b;
  };
  best->clear();
  for (int64_t a = 0; a < static_cast<int64_t>(score.size()); ++a) {
    if (static_cast<int64_t>(best->size()) < q) {
      best->push_back(a);
      std::push_heap(best->begin(), best->end(), better);
    } else if (better(a, best->front())) {
      std::pop_heap(best->begin(), best->end(), better);
      best->back() = a;
      std::push_heap(best->begin(), best->end(), better);
    }
  }
}

// Every column of x keeps its q nearest atoms of `dictionary` in spherical
// distance, never self_atom[j], weighted exp(-2 * arccos(|<b_a, x_j>|)).
// Ties in |<b_a, x_j>| go to the lower atom index. Requires q >= 1.
SparseMatrix DictionaryTopQ(const Matrix& x, const Matrix& dictionary,
                            const std::vector<int64_t>& self_atom,
                            const TscOptions& options) {
  const int64_t num_points = x.cols();
  const int64_t num_atoms = dictionary.cols();

  // Neighbor selection is independent per column; fan out over fixed column
  // ranges and concatenate the per-range triplet lists in column order so
  // the triplet stream matches the serial pass bit-for-bit.
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_points, options.num_threads))));

  ParallelForRanges(0, num_points, options.num_threads, [&](int64_t c0,
                                                            int64_t c1,
                                                            int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    Vector corr(static_cast<size_t>(num_atoms), 0.0);
    std::vector<int64_t> nearest;

    for (int64_t j = c0; j < c1; ++j) {
      // |b_a^T x_j| for all atoms (one column at a time keeps memory O(d)).
      Gemv(Trans::kTrans, 1.0, dictionary, x.ColData(j), 0.0, corr.data());
      for (auto& v : corr) v = std::fabs(v);
      const int64_t forbidden = self_atom[static_cast<size_t>(j)];
      if (forbidden >= 0) corr[static_cast<size_t>(forbidden)] = -1.0;
      const int64_t q = std::min<int64_t>(
          options.q, num_atoms - (forbidden >= 0 ? 1 : 0));
      if (q < 1) continue;

      SelectTopQ(corr, q, &nearest);
      for (const int64_t a : nearest) {
        const double c = std::min(1.0, corr[static_cast<size_t>(a)]);
        if (c <= 0.0) continue;
        const double weight = std::exp(-2.0 * std::acos(c));
        triplets.push_back({a, j, weight});
      }
    }
  });

  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(options.q * num_points));
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(num_atoms, num_points,
                                    std::move(triplets));
}

}  // namespace

Result<SparseMatrix> TscAffinity(const Matrix& x, const TscOptions& options) {
  const int64_t num_points = x.cols();
  if (num_points < 2) {
    return Status::InvalidArgument("TSC needs at least 2 points");
  }
  if (options.q < 1 || options.q >= num_points) {
    return Status::InvalidArgument("TSC needs 1 <= q < N, got q=" +
                                   std::to_string(options.q));
  }
  // An edge selected from both ends enters twice and sums: spectral
  // clustering is invariant to that mild reweighting, and mutual neighbors
  // deserve the extra affinity.
  return AffinityFromCoefficients(
      DictionaryTopQ(x, x, IdentitySelfAtoms(num_points), options),
      options.num_threads);
}

Result<SparseMatrix> TscLandmarkCoefficients(const Matrix& x,
                                             const SketchResult& sketch,
                                             const TscOptions& options) {
  if (x.cols() < 1) {
    return Status::InvalidArgument("TSC needs at least 1 point");
  }
  FEDSC_ASSIGN_OR_RETURN(const std::vector<int64_t> self_atom,
                         SketchSelfAtoms(x, sketch, "TSC"));
  if (options.q < 1) {
    return Status::InvalidArgument("TSC needs q >= 1, got q=" +
                                   std::to_string(options.q));
  }
  return DictionaryTopQ(x, sketch.dictionary, self_atom, options);
}

}  // namespace fedsc
