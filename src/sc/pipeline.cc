#include "sc/pipeline.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "sc/affinity.h"

namespace fedsc {

namespace {

bool MethodSupportsSketch(ScMethod method) {
  return method == ScMethod::kSsc || method == ScMethod::kSscOmp ||
         method == ScMethod::kTsc;
}

// Builds the sketch and solves the d x N coefficients for the sketched
// path. `resolved_dim` must already be the SketchDimForShape resolution.
Result<SparseMatrix> SketchedCoefficients(const Matrix& x,
                                          const ScPipelineOptions& options,
                                          int64_t resolved_dim,
                                          SketchResult* sketch_out) {
  if (!MethodSupportsSketch(options.method)) {
    return Status::InvalidArgument(
        std::string("central = sketch is not supported for method ") +
        ScMethodName(options.method) + " (supported: SSC, SSCOMP, TSC)");
  }
  const auto resolved = [&options](int method_threads) {
    return method_threads > 1 ? method_threads : options.num_threads;
  };
  SketchOptions sketch_options = options.sketch;
  sketch_options.dim = resolved_dim;
  sketch_options.num_threads = resolved(sketch_options.num_threads);
  FEDSC_ASSIGN_OR_RETURN(SketchResult sketch, SketchDictionary(x, sketch_options));
  SparseMatrix coefficients;
  switch (options.method) {
    case ScMethod::kSsc: {
      SscAdmmOptions ssc = options.ssc;
      ssc.num_threads = resolved(ssc.num_threads);
      FEDSC_ASSIGN_OR_RETURN(coefficients,
                             SscSketchedSelfExpression(x, sketch, ssc));
      break;
    }
    case ScMethod::kSscOmp: {
      SscOmpOptions omp = options.ssc_omp;
      omp.num_threads = resolved(omp.num_threads);
      FEDSC_ASSIGN_OR_RETURN(coefficients,
                             SscOmpSketchedSelfExpression(x, sketch, omp));
      break;
    }
    case ScMethod::kTsc: {
      TscOptions tsc = options.tsc;
      tsc.num_threads = resolved(tsc.num_threads);
      tsc.q = std::max<int64_t>(tsc.q, 1);
      FEDSC_ASSIGN_OR_RETURN(coefficients,
                             TscLandmarkCoefficients(x, sketch, tsc));
      break;
    }
    default:
      return Status::InvalidArgument("unreachable: unsupported sketch method");
  }
  // Deterministic provenance of the sketched solve (serial coordinator
  // code; the exact path leaves these gauges untouched).
  FEDSC_METRIC_GAUGE("sc.sketch.dim", MetricKind::kDeterministic)
      .Set(static_cast<double>(resolved_dim));
  FEDSC_METRIC_GAUGE("sc.sketch.landmarks", MetricKind::kDeterministic)
      .Set(static_cast<double>(sketch.landmarks.size()));
  FEDSC_METRIC_GAUGE("sc.sketch.coeff_nnz", MetricKind::kDeterministic)
      .Set(static_cast<double>(coefficients.nnz()));
  if (sketch_out != nullptr) *sketch_out = std::move(sketch);
  return coefficients;
}

}  // namespace

const char* ScMethodName(ScMethod method) {
  switch (method) {
    case ScMethod::kSsc:
      return "SSC";
    case ScMethod::kSscOmp:
      return "SSCOMP";
    case ScMethod::kEnsc:
      return "EnSC";
    case ScMethod::kTsc:
      return "TSC";
    case ScMethod::kNsn:
      return "NSN";
    case ScMethod::kEsc:
      return "ESC";
  }
  return "?";
}

std::string ScMethodKey(ScMethod method) {
  std::string key = ScMethodName(method);
  for (char& ch : key) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return key;
}

const char* CentralPathName(CentralPath path) {
  switch (path) {
    case CentralPath::kAuto:
      return "auto";
    case CentralPath::kExact:
      return "exact";
    case CentralPath::kSketched:
      return "sketched";
  }
  return "?";
}

int64_t SketchDimForShape(int64_t n, int64_t requested) {
  if (requested > 0) return requested;
  const int64_t dim = std::clamp<int64_t>(n / 16, 128, 1024);
  return std::min(dim, std::max<int64_t>(n - 1, 1));
}

CentralPath ResolveCentralPath(const ScPipelineOptions& options, int64_t n,
                               int64_t num_clusters) {
  const int64_t dim = SketchDimForShape(n, options.sketch.dim);
  switch (options.central) {
    case CentralPath::kExact:
      return CentralPath::kExact;
    case CentralPath::kSketched:
      // The one documented fallback: a sketch at least as wide as the data
      // has nothing to compress, so the exact solve runs instead.
      return dim >= n ? CentralPath::kExact : CentralPath::kSketched;
    case CentralPath::kAuto:
      if (MethodSupportsSketch(options.method) && n >= kSketchedCutoffN &&
          dim < n && (num_clusters <= 0 || num_clusters <= dim)) {
        return CentralPath::kSketched;
      }
      return CentralPath::kExact;
  }
  return CentralPath::kExact;
}

SparseMatrix LandmarkAffinity(const SparseMatrix& coefficients,
                              int num_threads) {
  return AffinityFromLandmarkCoefficients(coefficients, kSketchTopQ,
                                          num_threads);
}

SparseMatrix RunAffinity(const ScResult& result) {
  if (result.landmark_coefficients.rows() == 0) return result.affinity;
  return LandmarkAffinity(result.landmark_coefficients);
}

Result<SparseMatrix> BuildAffinity(const Matrix& x,
                                   const ScPipelineOptions& options,
                                   SscAdmmIterate* ssc_iterate) {
  FEDSC_TRACE_SPAN("sc/affinity", {{"method", ScMethodName(options.method)},
                                   {"points", x.cols()}});
  if (ResolveCentralPath(options, x.cols(), 0) == CentralPath::kSketched) {
    const int64_t dim = SketchDimForShape(x.cols(), options.sketch.dim);
    FEDSC_ASSIGN_OR_RETURN(SparseMatrix coefficients,
                           SketchedCoefficients(x, options, dim, nullptr));
    return LandmarkAffinity(coefficients, options.num_threads);
  }
  // The pipeline knob lifts method-level defaults; an explicit per-method
  // setting above 1 is respected as-is, even when the pipeline asks for
  // more.
  const auto resolved = [&options](int method_threads) {
    return method_threads > 1 ? method_threads : options.num_threads;
  };
  switch (options.method) {
    case ScMethod::kSsc: {
      SscAdmmOptions ssc = options.ssc;
      ssc.num_threads = resolved(ssc.num_threads);
      FEDSC_ASSIGN_OR_RETURN(SparseMatrix c,
                             SscSelfExpression(x, ssc, nullptr, ssc_iterate));
      return AffinityFromCoefficients(c, options.num_threads);
    }
    case ScMethod::kSscOmp: {
      SscOmpOptions omp = options.ssc_omp;
      omp.num_threads = resolved(omp.num_threads);
      FEDSC_ASSIGN_OR_RETURN(SparseMatrix c, SscOmpSelfExpression(x, omp));
      return AffinityFromCoefficients(c, options.num_threads);
    }
    case ScMethod::kEnsc: {
      EnscOptions ensc = options.ensc;
      ensc.num_threads = resolved(ensc.num_threads);
      FEDSC_ASSIGN_OR_RETURN(SparseMatrix c, EnscSelfExpression(x, ensc));
      return AffinityFromCoefficients(c, options.num_threads);
    }
    case ScMethod::kTsc: {
      TscOptions tsc = options.tsc;
      tsc.num_threads = resolved(tsc.num_threads);
      return TscAffinity(x, tsc);
    }
    case ScMethod::kNsn:
      return NsnAffinity(x, options.nsn);
    case ScMethod::kEsc:
      return EscAffinity(x, options.esc);
  }
  return Status::InvalidArgument("unknown subspace clustering method");
}

Result<ScResult> RunSubspaceClustering(const Matrix& x, int64_t num_clusters,
                                       const ScPipelineOptions& options,
                                       SscAdmmIterate* ssc_iterate) {
  if (num_clusters < 1 || num_clusters > x.cols()) {
    return Status::InvalidArgument("need 1 <= num_clusters <= N");
  }
  Stopwatch timer;
  Matrix normalized;
  const Matrix* input = &x;
  if (options.normalize_columns) {
    normalized = x;
    normalized.NormalizeColumns();
    input = &normalized;
  }

  if (ResolveCentralPath(options, x.cols(), num_clusters) ==
      CentralPath::kSketched) {
    const int64_t dim = SketchDimForShape(x.cols(), options.sketch.dim);
    if (num_clusters > dim) {
      return Status::InvalidArgument(
          "sketched central clustering needs num_clusters <= sketch dim (" +
          std::to_string(num_clusters) + " > " + std::to_string(dim) +
          "); widen --sketch-dim or use central = exact");
    }
    SparseMatrix coefficients;
    {
      FEDSC_TRACE_SPAN("sc/affinity",
                       {{"method", ScMethodName(options.method)},
                        {"points", x.cols()},
                        {"path", "sketched"}});
      FEDSC_ASSIGN_OR_RETURN(
          coefficients, SketchedCoefficients(*input, options, dim, nullptr));
    }
    // The spectral step clusters the full factorized graph |C|^T |C| via its
    // d x d core; no label reads the sparsified landmark affinity, so the
    // result carries C and readers build W from it (RunAffinity).
    SpectralResult spectral;
    {
      FEDSC_TRACE_SPAN("sc/spectral", {{"k", num_clusters}});
      SpectralOptions spectral_options = options.spectral;
      spectral_options.num_threads =
          spectral_options.num_threads > 1 ? spectral_options.num_threads
                                           : options.num_threads;
      FEDSC_ASSIGN_OR_RETURN(
          spectral, SpectralClusterLandmark(coefficients, num_clusters,
                                            spectral_options));
    }
    ScResult result;
    result.labels = std::move(spectral.labels);
    result.landmark_coefficients = std::move(coefficients);
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Pin the affinity builder to the exact path: a kAuto resolution that
  // chose exact here (e.g. num_clusters > sketch dim) must not re-resolve
  // sketched inside BuildAffinity, which never sees num_clusters.
  ScPipelineOptions exact_options = options;
  exact_options.central = CentralPath::kExact;
  FEDSC_ASSIGN_OR_RETURN(SparseMatrix affinity,
                         BuildAffinity(*input, exact_options, ssc_iterate));
  SpectralResult spectral;
  {
    FEDSC_TRACE_SPAN("sc/spectral", {{"k", num_clusters}});
    // Same lift as the per-method solvers: the pipeline-level thread count
    // applies unless the spectral options set their own.
    SpectralOptions spectral_options = options.spectral;
    spectral_options.num_threads =
        spectral_options.num_threads > 1 ? spectral_options.num_threads
                                         : options.num_threads;
    FEDSC_ASSIGN_OR_RETURN(
        spectral, SpectralCluster(affinity, num_clusters, spectral_options));
  }
  ScResult result;
  result.labels = std::move(spectral.labels);
  result.affinity = std::move(affinity);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fedsc
