#include "sc/affinity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace fedsc {

SparseMatrix AffinityFromCoefficients(const SparseMatrix& c,
                                      int num_threads) {
  FEDSC_CHECK(c.rows() == c.cols()) << "coefficient matrix must be square";
  // Symmetrization reads disjoint CSR row ranges; the per-range triplet
  // lists concatenate in row order, matching the serial stream exactly.
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, c.rows(), num_threads))));
  ParallelForRanges(
      0, c.rows(), num_threads, [&](int64_t r0, int64_t r1, int chunk) {
        std::vector<Triplet>& triplets =
            chunk_triplets[static_cast<size_t>(chunk)];
        for (int64_t r = r0; r < r1; ++r) {
          for (int64_t k = c.row_ptr()[static_cast<size_t>(r)];
               k < c.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
            const int64_t col = c.col_idx()[static_cast<size_t>(k)];
            const double v = std::fabs(c.values()[static_cast<size_t>(k)]);
            if (v == 0.0) continue;
            triplets.push_back({r, col, v});
            triplets.push_back({col, r, v});
          }
        }
      });
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(2 * c.nnz()));
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(c.rows(), c.cols(), std::move(triplets));
}

SparseMatrix AffinityFromLandmarkCoefficients(const SparseMatrix& c,
                                              int64_t top_q,
                                              int num_threads) {
  const int64_t n = c.cols();  // points
  // Row i of the transpose is point i's atom support.
  const SparseMatrix ct = c.Transposed();
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, n, num_threads))));
  ParallelForRanges(0, n, num_threads, [&](int64_t i0, int64_t i1,
                                           int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    Vector scores(static_cast<size_t>(n), 0.0);
    std::vector<int64_t> touched;
    for (int64_t i = i0; i < i1; ++i) {
      touched.clear();
      for (int64_t k = ct.row_ptr()[static_cast<size_t>(i)];
           k < ct.row_ptr()[static_cast<size_t>(i) + 1]; ++k) {
        const int64_t a = ct.col_idx()[static_cast<size_t>(k)];
        const double v_ia = std::fabs(ct.values()[static_cast<size_t>(k)]);
        if (v_ia == 0.0) continue;
        for (int64_t m = c.row_ptr()[static_cast<size_t>(a)];
             m < c.row_ptr()[static_cast<size_t>(a) + 1]; ++m) {
          const int64_t j = c.col_idx()[static_cast<size_t>(m)];
          if (j == i) continue;
          const double v_aj = std::fabs(c.values()[static_cast<size_t>(m)]);
          if (v_aj == 0.0) continue;
          if (scores[static_cast<size_t>(j)] == 0.0) touched.push_back(j);
          scores[static_cast<size_t>(j)] += v_ia * v_aj;
        }
      }
      // Touched indices accumulate in CSR traversal order. The selection
      // order (score descending, index ascending) is a strict total order,
      // so the kept top q is the same set whatever order nth_element sees;
      // sorting only the kept indices back into index order then makes the
      // emitted stream a pure function of the input.
      auto* keep_begin = touched.data();
      auto* keep_end = keep_begin + touched.size();
      if (top_q > 0 && top_q < static_cast<int64_t>(touched.size())) {
        keep_end = keep_begin + top_q;
        std::nth_element(keep_begin, keep_end - 1,
                         keep_begin + touched.size(),
                         [&](int64_t a, int64_t b) {
                           const double sa = scores[static_cast<size_t>(a)];
                           const double sb = scores[static_cast<size_t>(b)];
                           if (sa != sb) return sa > sb;
                           return a < b;
                         });
      }
      std::sort(keep_begin, keep_end);
      for (auto* it = keep_begin; it != keep_end; ++it) {
        const double s = scores[static_cast<size_t>(*it)];
        triplets.push_back({i, *it, s});
        triplets.push_back({*it, i, s});
      }
      for (int64_t j : touched) scores[static_cast<size_t>(j)] = 0.0;
    }
  });
  std::vector<Triplet> triplets;
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace fedsc
