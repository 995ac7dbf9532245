// Right-sketch dictionaries for scalable central clustering (Traganitis &
// Giannakis, "Sketched Subspace Clustering"): instead of letting every point
// express itself against all N-1 peers, the self-expression solves run
// against a D x d dictionary B = X S built from the pooled data, so the
// per-column cost drops from O(N * D) to O(d * D).
//
// S selects d column landmarks (uniform or ridge-leverage-score sampling):
// B gathers d actual data columns, so coefficient row a corresponds to
// pooled sample landmarks[a] — this is what the landmark-mediated affinity
// and the Nystrom spectral extension consume.
//
// Determinism contract: the sketch is a pure function of (data, options.seed,
// shape). Every random draw comes from Rng(MixSeeds(seed, j)) keyed by the
// column index j, never from a shared stream, so the result is bit-identical
// for every thread count and independent of scheduling order.

#ifndef FEDSC_SC_SKETCH_H_
#define FEDSC_SC_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

enum class SketchKind {
  // d distinct data columns sampled uniformly without replacement.
  kUniformLandmarks,
  // d distinct data columns sampled by exact ridge leverage scores
  // (Efraimidis-Spirakis weighted reservoir keys over l_j = x_j^T
  // (X X^T + ridge I)^{-1} x_j). Skewed cluster sizes keep small clusters
  // represented: their directions concentrate on few columns, which raises
  // those columns' leverage.
  kLeverageLandmarks,
};

const char* SketchKindName(SketchKind kind);

struct SketchOptions {
  // Sketch width d. Must satisfy 1 <= dim < N at SketchDictionary call time
  // (the pipeline resolves dim == 0 to its shape rule and falls back to the
  // exact path when dim >= N before ever calling this).
  int64_t dim = 0;
  SketchKind kind = SketchKind::kUniformLandmarks;
  uint64_t seed = 0;
  // Workers for the per-column draws / score evaluations. Bit-identical
  // results for every thread count.
  int num_threads = 1;
};

struct SketchResult {
  Matrix dictionary;  // D x d
  // Data-column index of each dictionary atom, ascending.
  std::vector<int64_t> landmarks;
};

// Builds the sketch dictionary over the columns of x. Requires
// 1 <= options.dim < N.
Result<SketchResult> SketchDictionary(const Matrix& x,
                                      const SketchOptions& options);

// Exact ridge leverage scores l_j = x_j^T (X X^T + ridge I)^{-1} x_j for
// every column (exposed for tests; O(N * D^2 + D^3)). `ridge` is absolute.
Result<Vector> RidgeLeverageScores(const Matrix& x, double ridge,
                                   int num_threads = 1);

// The self-expression solves (SSC-ADMM, SSC-OMP, TSC) run against a
// dictionary B, and column j of x may not use atom self_atom[j] (-1: any
// atom), the diag(C) = 0 analogue. The exact solves are the case B = X with
// self_atom[j] = j (IdentitySelfAtoms); a landmark sketch pins column
// landmarks[a] to atom a and leaves the other columns free. SketchSelfAtoms
// returns that map after checking that the dictionary is non-empty and has
// x's ambient dimension, and that each landmark is a column of x with an
// atom; `method` names the solver in the error.
Result<std::vector<int64_t>> SketchSelfAtoms(const Matrix& x,
                                             const SketchResult& sketch,
                                             const std::string& method);
std::vector<int64_t> IdentitySelfAtoms(int64_t num_points);

}  // namespace fedsc

#endif  // FEDSC_SC_SKETCH_H_
