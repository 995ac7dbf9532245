// Fed-SC: one-shot federated subspace clustering (Algorithms 1 and 2 of the
// paper).
//
// Phase 1 (every client, Algorithm 2): solve the SSC Lasso on the local
// data, build W^(z) = |C^(z)| + |C^(z)|^T, estimate the number of local
// clusters r^(z) with the eigengap heuristic (Eq. 3) or a fixed upper bound,
// segment with normalized spectral clustering, estimate an orthonormal basis
// of each local cluster's subspace by truncated SVD, and upload one sample
// per cluster drawn uniformly from the unit sphere of that subspace (Eq. 5).
//
// Phase 2 (server): validate, pool and screen the uploads, then cluster
// them into L groups with SSC or TSC (FedScServer, core/server.h).
//
// Phase 3 (every client): relabel each local point by its local cluster's
// global assignment (RelabelPoints).

#ifndef FEDSC_CORE_FEDSC_H_
#define FEDSC_CORE_FEDSC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "fed/defense.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/privacy.h"
#include "fed/partition.h"
#include "linalg/sparse.h"
#include "metrics/connectivity.h"
#include "sc/pipeline.h"

namespace fedsc {

struct FedScOptions {
  // Server-side clustering algorithm: kSsc (Fed-SC (SSC)) or kTsc
  // (Fed-SC (TSC)); every other method is rejected.
  ScMethod central_method = ScMethod::kSsc;

  // Central-clustering engine dispatch (sc/pipeline.h): kExact pins the
  // pre-sketch Phase-2 bits, kSketched forces the sketched dictionary +
  // landmark spectral path, kAuto switches at kSketchedCutoffN pooled
  // samples. The resolved choice is journaled on the central_start event.
  CentralPath central = CentralPath::kAuto;
  // Sketch construction for the sketched path. central_sketch.seed is
  // ignored: the sketch stream is derived from `seed` so one knob fixes the
  // whole round.
  SketchOptions central_sketch;

  SscAdmmOptions local_ssc;
  SscAdmmOptions central_ssc;
  // central_tsc.q <= 0 selects the paper's rule q = max(3, ceil(Z / L)).
  TscOptions central_tsc{.q = 0};

  SpectralOptions local_spectral;
  SpectralOptions central_spectral;

  // r^(z) estimation. With use_eigengap, Eq. 3 (optionally capped by
  // max_local_clusters); without it, r^(z) = min(max_local_clusters, N^(z))
  // — the fixed-upper-bound mode the paper uses on real-world data.
  bool use_eigengap = true;
  int64_t max_local_clusters = 0;

  // Dimension d_t of each estimated subspace basis. 0 = numerical rank of
  // the local cluster matrix (synthetic experiments); the paper sets 1 on
  // real-world data.
  int64_t sample_dim = 0;
  // Rank cutoff for the auto mode: directions with singular value below
  // rank_rel_tol * sigma_1 are treated as noise. Deliberately aggressive:
  // under-ranking still samples inside the true subspace (harmless), while
  // over-ranking mixes noise directions into the uploaded samples (fatal on
  // noisy data). At or above kGramSigmaFloor (1e-4, linalg/batch.h) every
  // basis — local, trim refit and AssignNewPoints — comes from one small
  // Gram eigensolve per cluster; below it, from the Jacobi SVD
  // (PrincipalSubspace). The two span the same subspace but differ in bits.
  double rank_rel_tol = 0.1;

  // Samples uploaded per local cluster. The paper uploads exactly one; the
  // ablation benches sweep this.
  int64_t samples_per_cluster = 1;

  // Robustness extension (the paper's ref [17] analyzes SC with outliers):
  // after fitting each local cluster's basis, the fraction of member points
  // with the largest residual to the fitted subspace is dropped and the
  // basis refit, so stray points cannot tilt the uploaded sample. 0 = off.
  double trim_fraction = 0.0;

  ChannelOptions channel;

  // Fault tolerance (fed/faults.h, fed/network.h). The defaults describe
  // the paper's idealized network: no injected faults, one attempt per
  // device, permissive server-side validation, and a quorum of 1.0 — every
  // device must report, so any failure surfaces as a typed kQuorumNotMet
  // Status rather than silently degrading.
  FaultPlanOptions faults;
  // Per-upload deadline, bounded retry budget, and jittered exponential
  // backoff, all on a simulated clock.
  RetryOptions retry;
  // Server-side acceptance bounds; corrupt sample columns are quarantined
  // (reported in FedScResult) instead of poisoning the central solve.
  UploadValidationOptions validation;
  // Minimum fraction of devices that must deliver a valid upload for the
  // round to proceed. Points on failed devices receive
  // FedScResult::kFailedDeviceLabel. Must lie in [0, 1].
  double quorum = 1.0;

  // Byzantine-robust central aggregation (fed/defense.h): statistical
  // screening of accepted uploads before pooling plus the robust central
  // k-engine. Screened devices count against the quorum exactly like
  // quarantined ones. Off by default — the round then reproduces
  // pre-defense results bit-for-bit.
  DefenseOptions defense;

  // Remark 2 extension: apply the Gaussian mechanism to every uploaded
  // sample (clip + noise; see fed/privacy.h) so each upload is
  // (epsilon, delta)-differentially private. One-shot DP on full vectors is
  // expensive in utility — the privacy example quantifies the tradeoff.
  bool use_dp = false;
  DpOptions dp;

  // Builds a provenance-stamped RunReport (core/report.h) — manifest,
  // journal, span profile, metrics — and attaches it to FedScResult::report.
  // Off by default: report collection snapshots every observability surface,
  // which is pure overhead for callers that only want labels.
  bool collect_report = false;

  // Workers used for Phase 1, where devices are independent — the source of
  // the paper's parallel running time O(N^2 + Z^2) (Section IV-E) — and for
  // the Phase-2 central clustering kernels (GEMM, per-column solves), via
  // ScPipelineOptions::num_threads. Results are bit-identical for any
  // thread count (each device's seed is fixed before dispatch, and every
  // threaded kernel partitions its output by fixed index ranges); reported
  // local_seconds stays the *sum* over devices, matching the paper's
  // T = sum_z T^(z) + T_c.
  int num_threads = 1;

  uint64_t seed = 0x5eed'F5CULL;
};

// The per-device output of Algorithm 2 (exposed separately for tests and
// for building custom federations).
struct LocalClusteringOutput {
  std::vector<int64_t> partition;       // T^(z): local cluster per point
  int64_t num_local_clusters = 0;       // r^(z)
  Matrix samples;                       // n x (r^(z) * samples_per_cluster)
  std::vector<int64_t> sample_cluster;  // local cluster of each sample column
};

Result<LocalClusteringOutput> LocalClusterAndSample(const Matrix& points,
                                                    const FedScOptions& options,
                                                    uint64_t seed);

// One uniform sample from the unit sphere of span(basis) (Eq. 5), drawn as
// theta = P h / ||P h|| with P = U U^T and h ~ N(0, I_n): the projection of
// an isotropic Gaussian is isotropic within the subspace, and P, so the
// sample, depends only on the span, not on U's signs or a rotation inside
// it. `basis` has orthonormal columns; consumes n Gaussians of `rng` per
// attempt.
Vector SampleFromSubspace(const Matrix& basis, Rng* rng);

// What a device releases for upload: its samples, privatized by the
// Gaussian mechanism (fed/privacy.h) on a stream keyed by `seed` when
// options.use_dp. RunFedSc and FedScClient both call it, so the two paths
// upload the same bits.
Result<Matrix> ReleaseUpload(const Matrix& samples,
                             const FedScOptions& options, uint64_t seed);

// How one device fared in the round: the ledger FedScServer keeps, one
// entry per intake (core/server.h).
enum class DeviceOutcome {
  kOk = 0,          // delivered; at least one sample accepted
  kDropped,         // no upload arrived (dropout / straggler / retry budget)
  kQuarantined,     // upload arrived but no sample survived validation
  kLocalError,      // the device's local clustering failed
  kScreened,        // delivered valid samples, but the defense screened them
};

const char* DeviceOutcomeName(DeviceOutcome outcome);

struct DeviceReport {
  int64_t device = 0;
  DeviceOutcome outcome = DeviceOutcome::kOk;
  int attempts = 0;                // uplink attempts consumed
  int64_t uploaded_samples = 0;    // columns delivered to the server
  int64_t quarantined_samples = 0;  // delivered columns rejected
  Status status;                   // non-OK explains the failure
  // Triggering defense statistic for kScreened devices ("coherence support
  // 1/23 below cut 5.5"); empty otherwise.
  std::string screen_statistic;
};

struct RunReport;  // core/report.h

struct FedScResult {
  // Label given to every point on a failed (dropped / quarantined /
  // errored) device, so partial participation can never masquerade as a
  // confident assignment.
  static constexpr int64_t kFailedDeviceLabel = -1;

  std::vector<std::vector<int64_t>> device_labels;  // partition layout
  std::vector<int64_t> global_labels;               // dataset order
  std::vector<int64_t> local_cluster_counts;        // r^(z) per device
  int64_t total_samples = 0;  // accepted samples pooled by the server

  // Per-device fate of the round (one entry per device, in device order),
  // plus the ids of devices that did not participate.
  std::vector<DeviceReport> device_reports;
  std::vector<int64_t> failed_devices;
  int64_t participating_devices = 0;
  int64_t quarantined_samples = 0;
  int64_t screened_devices = 0;

  Matrix samples;                        // pooled samples (post-channel)
  std::vector<int64_t> sample_device;    // device of each pooled sample
  std::vector<int64_t> sample_labels;    // server assignment per sample
  // Global sample column representing each local point's cluster (used to
  // induce the global affinity graph).
  std::vector<std::vector<int64_t>> point_sample;
  // What the sample labels came from, as in CentralSolution: W over the
  // pooled samples on the exact path, the d x N landmark coefficients on
  // the sketched one (the other is empty). CentralAffinity reads either.
  SparseMatrix central_affinity;
  SparseMatrix central_coefficients;

  CommStats comm;
  double local_seconds = 0.0;    // sum_z T^(z)
  double central_seconds = 0.0;  // T_c
  double seconds = 0.0;          // T = sum_z T^(z) + T_c

  // Set when FedScOptions::collect_report: the run's full ledger (manifest,
  // journal, profile, metrics — see core/report.h). shared_ptr keeps this
  // header free of the report type and the result cheaply copyable.
  std::shared_ptr<const RunReport> report;
};

// Algorithm 1, run through one FedScServer (core/server.h): Phase 1 on
// every device, then per device Channel::UplinkWithRetry and server intake,
// the screen, CheckQuorum, the central solve, and Phase 3 with the downlink.
Result<FedScResult> RunFedSc(const FederatedDataset& data,
                             int64_t num_clusters,
                             const FedScOptions& options = {});

// Phase 3, shared by RunFedSc and FedScClient: a local cluster takes the
// label of its first sample (in upload order) the server clustered, else
// FedScResult::kFailedDeviceLabel; its points inherit that label.
// `assignments` holds one label per upload column, the sentinel where the
// server did not cluster it. `point_sample`, when set, receives the upload
// column each point's label came from (-1 for none).
std::vector<int64_t> RelabelPoints(const LocalClusteringOutput& local,
                                   const std::vector<int64_t>& assignments,
                                   std::vector<int64_t>* point_sample = nullptr);

// Out-of-sample extension: assigns new points (columns) to the clusters of
// a completed run. The samples the server labeled with each cluster span an
// estimated subspace; a new point joins the cluster whose subspace
// reconstructs it best (smallest residual after projection). No further
// communication round is needed — this is how a device labels points that
// arrive after the one-shot protocol ran.
Result<std::vector<int64_t>> AssignNewPoints(const FedScResult& result,
                                             int64_t num_clusters,
                                             const Matrix& new_points,
                                             double rank_rel_tol = 0.1);

// W over the pooled samples: result.central_affinity on the exact path,
// LandmarkAffinity(result.central_coefficients) on the sketched one.
SparseMatrix CentralAffinity(const FedScResult& result);

// Connectivity of the induced global affinity graph: two points are as
// affine as the samples representing their local clusters (weight 1 within
// a local cluster). This is the graph Section IV-E argues is denser than
// the centralized SSC graph; Table III's CONN column for Fed-SC reports it.
Result<ConnectivityResult> InducedConnectivity(const FederatedDataset& data,
                                               const FedScResult& result);

}  // namespace fedsc

#endif  // FEDSC_CORE_FEDSC_H_
