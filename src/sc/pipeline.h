// End-to-end centralized subspace clustering: affinity construction with any
// of the library's methods, then normalized spectral clustering. Benches use
// this to run the paper's centralized baselines (SSC, SSC-OMP, EnSC, TSC,
// NSN) under one interface.

#ifndef FEDSC_SC_PIPELINE_H_
#define FEDSC_SC_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/spectral.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sc/ensc.h"
#include "sc/esc.h"
#include "sc/nsn.h"
#include "sc/sketch.h"
#include "sc/ssc_admm.h"
#include "sc/ssc_omp.h"
#include "sc/tsc.h"

namespace fedsc {

enum class ScMethod { kSsc, kSscOmp, kEnsc, kTsc, kNsn, kEsc };

const char* ScMethodName(ScMethod method);

// ScMethodName lower-cased ("ssc", "sscomp", "tsc", ...): the spelling of
// the method in run records (journal events, the options fingerprint).
std::string ScMethodKey(ScMethod method);

// Which central-clustering engine runs. The choice is RESULT-AFFECTING (the
// sketched path solves against a d-column dictionary and clusters the
// landmark-factorized graph, so labels and affinities differ from the exact
// path), and under kAuto it is a pure function of (method, N, k, sketch dim)
// — never of the thread count — so outputs stay deterministic per
// (input, options).
enum class CentralPath {
  // Sketched when the method supports it (kSsc, kSscOmp, kTsc) and
  // N >= kSketchedCutoffN and k <= sketch dim < N; exact otherwise.
  kAuto,
  // Pin today's O(N^2)-O(N^3) path at every size: reproduces pre-sketch
  // results bit-for-bit.
  kExact,
  // Force the sketched path at every size (dim >= N still falls back to
  // exact; an unsupported method is a typed error).
  kSketched,
};

const char* CentralPathName(CentralPath path);

// The kAuto pooled-sample count at and above which the sketched path
// engages. Result-affecting: labels are discontinuous across it but
// deterministic on both sides. Below it the exact solve is cheap enough
// that sketching only costs accuracy.
inline constexpr int64_t kSketchedCutoffN = 4096;

// The sketch width the pipeline uses when options.sketch.dim == 0: a pure
// shape rule, d = clamp(N / 16, 128, 1024) (capped below N - 1).
int64_t SketchDimForShape(int64_t n, int64_t requested);

// Resolves which path RunSubspaceClustering will take for an N-point
// problem, as recorded in the journal's central_start event. Pure function
// of (options, n, num_clusters); pass num_clusters = 0 when unknown
// (affinity-only callers). An explicit kSketched resolves to kExact only in
// the documented degenerate case sketch dim >= N; unsupported methods or
// k > dim keep kSketched and surface a typed InvalidArgument at run time.
struct ScPipelineOptions;
CentralPath ResolveCentralPath(const ScPipelineOptions& options, int64_t n,
                               int64_t num_clusters);

struct ScPipelineOptions {
  ScMethod method = ScMethod::kSsc;
  SscAdmmOptions ssc;
  SscOmpOptions ssc_omp;
  EnscOptions ensc;
  EscOptions esc;
  TscOptions tsc;
  NsnOptions nsn;
  SpectralOptions spectral;
  // Normalize input columns to unit l2 norm before clustering (the paper's
  // standing assumption).
  bool normalize_columns = true;
  // Central-clustering engine dispatch (see CentralPath above). kExact pins
  // the pre-sketch bits; kAuto flips to the sketched path at
  // kSketchedCutoffN for the methods that support it.
  CentralPath central = CentralPath::kAuto;
  // Sketch construction for the sketched path. sketch.dim == 0 resolves to
  // SketchDimForShape(N); sketch.num_threads is lifted by num_threads like
  // the per-method solvers.
  SketchOptions sketch;
  // Pipeline-level worker count. Raises the per-method num_threads (SSC,
  // SSC-OMP, EnSC, TSC) and the affinity symmetrization to this value when
  // they are left at their default of 1; a method-level setting above 1
  // wins. Results are bit-identical for every thread count.
  int num_threads = 1;
};

// Neighbors kept per point when the sketched path's landmark-mediated
// affinity W = |C|^T |C| is sparsified: the graph holds at most
// 2 N kSketchTopQ entries in place of the dense N x N one.
inline constexpr int64_t kSketchTopQ = 8;

struct ScResult {
  std::vector<int64_t> labels;  // size N, values in [0, num_clusters)
  // Exact path: the symmetric W spectral clustering saw. Empty on the
  // sketched path, which clusters |C|^T |C| from landmark_coefficients.
  SparseMatrix affinity;
  // Sketched path: the d x N landmark coefficients C the labels came from.
  // Empty on the exact path.
  SparseMatrix landmark_coefficients;
  double seconds = 0.0;  // wall-clock of affinity + spectral steps
};

// The sketched path's sparsified landmark affinity of d x N coefficients:
// AffinityFromLandmarkCoefficients(coefficients, kSketchTopQ), the graph
// BuildAffinity returns on that path. Bit-identical for every thread count.
SparseMatrix LandmarkAffinity(const SparseMatrix& coefficients,
                              int num_threads = 1);

// The affinity W a run stands for, for readers such as GraphConnectivity:
// result.affinity on the exact path, LandmarkAffinity of
// result.landmark_coefficients (built on demand) on the sketched one.
SparseMatrix RunAffinity(const ScResult& result);

// Builds W with the selected method over the columns of x and segments them
// into num_clusters groups. `ssc_iterate`, when non-null, goes to the exact
// SSC solve: its warm start in, its final iterate out (SscSelfExpression).
// Every other method and the sketched path leave it untouched.
Result<ScResult> RunSubspaceClustering(const Matrix& x, int64_t num_clusters,
                                       const ScPipelineOptions& options = {},
                                       SscAdmmIterate* ssc_iterate = nullptr);

// Affinity-only entry point (shared by the federated scheme); `ssc_iterate`
// as in RunSubspaceClustering.
Result<SparseMatrix> BuildAffinity(const Matrix& x,
                                   const ScPipelineOptions& options,
                                   SscAdmmIterate* ssc_iterate = nullptr);

}  // namespace fedsc

#endif  // FEDSC_SC_PIPELINE_H_
