#include "sc/sketch.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"

namespace fedsc {

namespace {

// Ridge for the leverage scores, relative to trace(X X^T) / D: small enough
// that the scores follow the data's directions, large enough to keep
// X X^T + ridge I safely invertible when X is rank-deficient.
constexpr double kLeverageRidge = 1e-6;

std::vector<int64_t> UniformLandmarks(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(MixSeeds(seed, 0));
  std::vector<int64_t> landmarks = rng.SampleWithoutReplacement(n, dim);
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

// Efraimidis-Spirakis weighted sampling without replacement: column j gets
// key log(U_j) / w_j (U_j from its own seeded stream) and the d largest keys
// win. Keys are written into disjoint slots, so the draw is thread-count
// independent; ties break by index for a fully deterministic selection.
std::vector<int64_t> LeverageLandmarks(const Vector& scores, int64_t dim,
                                       uint64_t seed, int num_threads) {
  const int64_t n = static_cast<int64_t>(scores.size());
  Vector keys(static_cast<size_t>(n), 0.0);
  ParallelForRanges(0, n, num_threads, [&](int64_t j0, int64_t j1, int) {
    for (int64_t j = j0; j < j1; ++j) {
      Rng rng(MixSeeds(seed, static_cast<uint64_t>(j)));
      const double u = std::max(rng.Uniform(), 1e-300);
      const double w = std::max(scores[static_cast<size_t>(j)], 1e-12);
      keys[static_cast<size_t>(j)] = std::log(u) / w;
    }
  });
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const auto kth = order.begin() + dim;
  std::nth_element(order.begin(), kth, order.end(),
                   [&](int64_t a, int64_t b) {
                     const double ka = keys[static_cast<size_t>(a)];
                     const double kb = keys[static_cast<size_t>(b)];
                     if (ka != kb) return ka > kb;
                     return a < b;
                   });
  std::vector<int64_t> landmarks(order.begin(), kth);
  std::sort(landmarks.begin(), landmarks.end());
  return landmarks;
}

}  // namespace

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kUniformLandmarks:
      return "uniform";
    case SketchKind::kLeverageLandmarks:
      return "leverage";
  }
  return "?";
}

Result<Vector> RidgeLeverageScores(const Matrix& x, double ridge,
                                   int num_threads) {
  const int64_t d_ambient = x.rows();
  const int64_t n = x.cols();
  if (n < 1 || d_ambient < 1) {
    return Status::InvalidArgument("leverage scores need a non-empty matrix");
  }
  Matrix s = OuterGram(x, num_threads);  // X X^T, via Syrk
  for (int64_t i = 0; i < d_ambient; ++i) s(i, i) += ridge;
  FEDSC_ASSIGN_OR_RETURN(const Matrix s_inverse, SpdInverse(s));
  Vector scores(static_cast<size_t>(n), 0.0);
  ParallelForRanges(0, n, num_threads, [&](int64_t j0, int64_t j1, int) {
    Vector tmp(static_cast<size_t>(d_ambient), 0.0);
    for (int64_t j = j0; j < j1; ++j) {
      Gemv(Trans::kNo, 1.0, s_inverse, x.ColData(j), 0.0, tmp.data());
      scores[static_cast<size_t>(j)] =
          Dot(tmp.data(), x.ColData(j), d_ambient);
    }
  });
  return scores;
}

Result<SketchResult> SketchDictionary(const Matrix& x,
                                      const SketchOptions& options) {
  const int64_t n = x.cols();
  if (options.dim < 1) {
    return Status::InvalidArgument("sketch dim must be >= 1, got " +
                                   std::to_string(options.dim));
  }
  if (options.dim >= n) {
    return Status::InvalidArgument(
        "sketch dim must be < N (" + std::to_string(options.dim) +
        " >= " + std::to_string(n) + "); use the exact path instead");
  }
  FEDSC_TRACE_SPAN("sc/sketch", {{"kind", SketchKindName(options.kind)},
                                 {"points", n},
                                 {"dim", options.dim}});
  SketchResult result;
  switch (options.kind) {
    case SketchKind::kUniformLandmarks:
      result.landmarks = UniformLandmarks(n, options.dim, options.seed);
      result.dictionary = x.GatherCols(result.landmarks);
      break;
    case SketchKind::kLeverageLandmarks: {
      // Ridge relative to the mean diagonal of X X^T keeps the scores scale
      // free; the trace equals ||X||_F^2, which one pass over the data gives.
      const double frob = x.FrobeniusNorm();
      const double ridge = std::max(
          kLeverageRidge * frob * frob /
              static_cast<double>(std::max<int64_t>(x.rows(), 1)),
          1e-300);
      FEDSC_ASSIGN_OR_RETURN(
          const Vector scores,
          RidgeLeverageScores(x, ridge, options.num_threads));
      result.landmarks = LeverageLandmarks(scores, options.dim, options.seed,
                                           options.num_threads);
      result.dictionary = x.GatherCols(result.landmarks);
      break;
    }
  }
  FEDSC_METRIC_COUNTER("sc.sketch.builds").Increment();
  return result;
}

Result<std::vector<int64_t>> SketchSelfAtoms(const Matrix& x,
                                             const SketchResult& sketch,
                                             const std::string& method) {
  const Matrix& dictionary = sketch.dictionary;
  if (dictionary.cols() < 1) {
    return Status::InvalidArgument("sketched " + method +
                                   " needs a non-empty dictionary");
  }
  if (dictionary.rows() != x.rows()) {
    return Status::InvalidArgument(
        "dictionary ambient dim " + std::to_string(dictionary.rows()) +
        " does not match data dim " + std::to_string(x.rows()));
  }
  if (static_cast<int64_t>(sketch.landmarks.size()) > dictionary.cols()) {
    return Status::InvalidArgument("more landmarks than dictionary atoms");
  }
  std::vector<int64_t> self_atom(static_cast<size_t>(x.cols()), -1);
  for (size_t a = 0; a < sketch.landmarks.size(); ++a) {
    const int64_t landmark = sketch.landmarks[a];
    if (landmark < 0 || landmark >= x.cols()) {
      return Status::InvalidArgument("landmark " + std::to_string(landmark) +
                                     " is not a data column");
    }
    self_atom[static_cast<size_t>(landmark)] = static_cast<int64_t>(a);
  }
  return self_atom;
}

std::vector<int64_t> IdentitySelfAtoms(int64_t num_points) {
  std::vector<int64_t> self_atom(static_cast<size_t>(num_points));
  std::iota(self_atom.begin(), self_atom.end(), 0);
  return self_atom;
}

}  // namespace fedsc
