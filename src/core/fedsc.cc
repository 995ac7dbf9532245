#include "core/fedsc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/spectral.h"
#include "common/journal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/server.h"
#include "graph/eigengap.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "sc/affinity.h"

namespace fedsc {

namespace {

// Bases for every local cluster's subspace in two batched factorization
// calls (linalg/batch.h): one over all member panels, then — when
// trim_fraction pruning kicks in — one over the inlier panels. Slot t holds
// the basis for members[t], or the per-cluster error for degenerate
// clusters (all points numerically zero); the caller draws its
// random-direction fallback at exactly the point the old per-cluster loop
// did, so the rng stream is unchanged. With trim_fraction > 0 the
// worst-fitting members of each cluster are dropped once and that basis
// refit (outlier robustness); a failed refit keeps the initial basis, as
// before.
std::vector<Result<Matrix>> EstimateClusterBases(
    const Matrix& normalized, const std::vector<std::vector<int64_t>>& members,
    const FedScOptions& options) {
  BatchedSubspaceOptions batch;
  batch.rank = options.sample_dim;
  batch.rel_tol = options.rank_rel_tol;
  // Nested calls made from inside the device fan-out run inline, so this
  // cannot oversubscribe (same lift as the spectral step).
  batch.num_threads = options.num_threads;
  std::vector<Result<Matrix>> bases =
      BatchedPrincipalSubspace(normalized, members, batch);
  if (options.trim_fraction <= 0.0) return bases;

  // Residual of each member to its fitted subspace: ||x - U U^T x||. The
  // refit panels gather inliers in ascending-residual order, matching the
  // GatherCols order of the per-cluster loop this replaces.
  const int64_t n = normalized.rows();
  std::vector<size_t> refit_slots;
  std::vector<std::vector<int64_t>> refit_groups;
  Vector reconstructed(static_cast<size_t>(n), 0.0);
  for (size_t t = 0; t < members.size(); ++t) {
    if (!bases[t].ok()) continue;
    const Matrix& basis = *bases[t];
    const std::vector<int64_t>& group = members[t];
    const int64_t count = static_cast<int64_t>(group.size());
    const int64_t keep = count - static_cast<int64_t>(std::floor(
                                     options.trim_fraction * count));
    if (keep >= count || keep <= basis.cols() + 1) continue;
    std::vector<std::pair<double, int64_t>> residuals;
    residuals.reserve(static_cast<size_t>(count));
    Vector coords(static_cast<size_t>(basis.cols()), 0.0);
    for (int64_t j = 0; j < count; ++j) {
      const double* x = normalized.ColData(group[static_cast<size_t>(j)]);
      Gemv(Trans::kTrans, 1.0, basis, x, 0.0, coords.data());
      Gemv(Trans::kNo, 1.0, basis, coords.data(), 0.0, reconstructed.data());
      Axpy(-1.0, x, reconstructed.data(), n);
      residuals.push_back({Norm2(reconstructed.data(), n), j});
    }
    std::sort(residuals.begin(), residuals.end());
    std::vector<int64_t> inliers;
    inliers.reserve(static_cast<size_t>(keep));
    for (int64_t j = 0; j < keep; ++j) {
      inliers.push_back(group[static_cast<size_t>(
          residuals[static_cast<size_t>(j)].second)]);
    }
    refit_slots.push_back(t);
    refit_groups.push_back(std::move(inliers));
  }
  if (refit_groups.empty()) return bases;

  std::vector<Result<Matrix>> refits =
      BatchedPrincipalSubspace(normalized, refit_groups, batch);
  for (size_t i = 0; i < refit_slots.size(); ++i) {
    if (refits[i].ok()) bases[refit_slots[i]] = std::move(refits[i]);
  }
  return bases;
}

Status ValidateOptions(const FedScOptions& options) {
  if (options.central_method != ScMethod::kSsc &&
      options.central_method != ScMethod::kTsc) {
    return Status::InvalidArgument(
        "Fed-SC's server runs SSC or TSC (Section IV-D)");
  }
  if (options.samples_per_cluster < 1) {
    return Status::InvalidArgument("samples_per_cluster must be >= 1");
  }
  if (!options.use_eigengap && options.max_local_clusters < 1) {
    return Status::InvalidArgument(
        "fixed-r mode needs max_local_clusters >= 1");
  }
  FEDSC_RETURN_NOT_OK(ValidateChannelOptions(options.channel));
  FEDSC_RETURN_NOT_OK(ValidateRetryOptions(options.retry));
  FEDSC_RETURN_NOT_OK(ValidateFaultPlanOptions(options.faults));
  FEDSC_RETURN_NOT_OK(ValidateUploadValidationOptions(options.validation));
  FEDSC_RETURN_NOT_OK(ValidateDefenseOptions(options.defense));
  if (!(options.quorum >= 0.0 && options.quorum <= 1.0)) {
    return Status::InvalidArgument("quorum must lie in [0, 1], got " +
                                   std::to_string(options.quorum));
  }
  return Status::OK();
}

}  // namespace

Result<LocalClusteringOutput> LocalClusterAndSample(const Matrix& points,
                                                    const FedScOptions& options,
                                                    uint64_t seed) {
  FEDSC_RETURN_NOT_OK(ValidateOptions(options));
  Rng rng(seed);
  const int64_t n = points.rows();
  const int64_t num_points = points.cols();

  LocalClusteringOutput out;
  if (num_points == 0) return out;

  Matrix normalized = points;
  normalized.NormalizeColumns();

  // Tiny devices cannot run SSC; treat all points as one cluster.
  if (num_points < 3) {
    out.partition.assign(static_cast<size_t>(num_points), 0);
    out.num_local_clusters = 1;
  } else {
    Matrix affinity;
    {
      FEDSC_TRACE_SPAN("local/ssc", {{"points", num_points}});
      FEDSC_ASSIGN_OR_RETURN(SparseMatrix coeffs,
                             SscSelfExpression(normalized, options.local_ssc));
      affinity = AffinityFromCoefficients(coeffs).ToDense();
    }

    // Same lift as the pipeline: the run-level thread count applies unless
    // the local spectral options pin their own. Nested calls made from
    // inside the device fan-out run inline, so this cannot oversubscribe.
    SpectralOptions spectral = options.local_spectral;
    spectral.num_threads = spectral.num_threads > 1 ? spectral.num_threads
                                                    : options.num_threads;
    TraceSpan span;
    if (TraceEnabled()) span.Begin("local/spectral", {{"n", num_points}});
    int64_t components = 0;
    if (options.use_eigengap) {
      // r^(z) and the partition from one reduction per connected component
      // of the affinity.
      EigengapOptions gap;
      gap.max_clusters = options.max_local_clusters;
      FEDSC_ASSIGN_OR_RETURN(EigengapSpectralResult local,
                             EigengapSpectralCluster(affinity, gap, spectral,
                                                     &rng));
      out.num_local_clusters = local.num_clusters;
      out.partition = std::move(local.labels);
      components = local.num_components;
    } else {
      out.num_local_clusters =
          std::min<int64_t>(options.max_local_clusters, num_points);
      if (out.num_local_clusters == 1) {
        out.partition.assign(static_cast<size_t>(num_points), 0);
      } else {
        spectral.kmeans.seed = rng.Next();
        FEDSC_ASSIGN_OR_RETURN(
            SpectralResult clusters,
            SpectralCluster(affinity, out.num_local_clusters, spectral));
        out.partition = std::move(clusters.labels);
      }
    }
    if (TraceEnabled()) {
      span.End({{"r", out.num_local_clusters}, {"components", components}});
    }
  }

  // Estimate each cluster's subspace and draw the uploaded samples. The
  // bases for all clusters come from batched factorization calls up front
  // (none of which consume rng); the loop below then draws fallbacks and
  // samples in the same order — and so from the same rng positions — as the
  // per-cluster loop this replaces.
  FEDSC_TRACE_SPAN("local/sample", {{"clusters", out.num_local_clusters}});
  const int64_t r = out.num_local_clusters;
  const int64_t per_cluster = options.samples_per_cluster;
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(r));
  for (int64_t i = 0; i < num_points; ++i) {
    members[static_cast<size_t>(out.partition[static_cast<size_t>(i)])]
        .push_back(i);
  }
  std::vector<Result<Matrix>> bases;
  {
    FEDSC_TRACE_SPAN("local/basis", {{"clusters", r}});
    bases = EstimateClusterBases(normalized, members, options);
  }
  out.samples = Matrix(n, r * per_cluster);
  out.sample_cluster.reserve(static_cast<size_t>(r * per_cluster));
  int64_t next = 0;
  for (int64_t t = 0; t < r; ++t) {
    Matrix basis;
    if (members[static_cast<size_t>(t)].empty()) {
      // Spectral k-means guards against empty clusters, but stay defensive.
      basis = Matrix::FromColumn(rng.UnitSphere(n));
    } else if (!bases[static_cast<size_t>(t)].ok()) {
      // Degenerate cluster (all points numerically zero): fall back to a
      // random direction so the device can still participate.
      FEDSC_LOG(Warning) << "degenerate local cluster ("
                         << bases[static_cast<size_t>(t)].status().ToString()
                         << "); sampling a random direction";
      basis = Matrix::FromColumn(rng.UnitSphere(n));
    } else {
      basis = std::move(bases[static_cast<size_t>(t)]).value();
    }
    for (int64_t s = 0; s < per_cluster; ++s) {
      out.samples.SetCol(next++, SampleFromSubspace(basis, &rng));
      out.sample_cluster.push_back(t);
    }
  }
  return out;
}

Vector SampleFromSubspace(const Matrix& basis, Rng* rng) {
  const int64_t n = basis.rows();
  Vector coords(static_cast<size_t>(basis.cols()), 0.0);
  Vector theta(static_cast<size_t>(n), 0.0);
  double norm = 0.0;
  do {
    const Vector h = rng->GaussianVector(n);
    Gemv(Trans::kTrans, 1.0, basis, h.data(), 0.0, coords.data());
    Gemv(Trans::kNo, 1.0, basis, coords.data(), 0.0, theta.data());
    norm = Norm2(theta.data(), n);
  } while (norm <= 1e-300);
  Scal(1.0 / norm, theta.data(), n);
  return theta;
}

Result<Matrix> ReleaseUpload(const Matrix& samples,
                             const FedScOptions& options, uint64_t seed) {
  if (!options.use_dp) return samples;
  Rng dp_rng(seed ^ 0xD1FFE4E47'1A1ULL);
  return PrivatizeSamples(samples, options.dp, &dp_rng);
}

std::vector<int64_t> RelabelPoints(const LocalClusteringOutput& local,
                                   const std::vector<int64_t>& assignments,
                                   std::vector<int64_t>* point_sample) {
  std::vector<int64_t> cluster_sample(
      static_cast<size_t>(std::max<int64_t>(local.num_local_clusters, 1)),
      -1);
  for (size_t s = 0; s < assignments.size(); ++s) {
    const auto t = static_cast<size_t>(local.sample_cluster[s]);
    if (cluster_sample[t] == -1 &&
        assignments[s] != FedScResult::kFailedDeviceLabel) {
      cluster_sample[t] = static_cast<int64_t>(s);
    }
  }
  std::vector<int64_t> labels(local.partition.size());
  if (point_sample != nullptr) point_sample->resize(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const int64_t s = cluster_sample[static_cast<size_t>(local.partition[i])];
    labels[i] = s < 0 ? FedScResult::kFailedDeviceLabel
                      : assignments[static_cast<size_t>(s)];
    if (point_sample != nullptr) (*point_sample)[i] = s;
  }
  return labels;
}

Result<FedScResult> RunFedSc(const FederatedDataset& data,
                             int64_t num_clusters,
                             const FedScOptions& options) {
  FEDSC_RETURN_NOT_OK(ValidateOptions(options));
  const int64_t num_devices = data.num_devices();
  if (num_devices == 0) return Status::InvalidArgument("no devices");
  if (num_clusters < 1) {
    return Status::InvalidArgument("need num_clusters >= 1");
  }

  FEDSC_TRACE_SPAN("fedsc/run",
                   {{"devices", num_devices}, {"clusters", num_clusters}});
  FEDSC_METRIC_COUNTER("fedsc.runs").Increment();
  FEDSC_METRIC_COUNTER("fedsc.devices").Add(num_devices);

  Rng rng(options.seed);
  Channel channel(options.channel);
  FedScResult result;
  result.local_cluster_counts.resize(static_cast<size_t>(num_devices));
  result.device_labels.resize(static_cast<size_t>(num_devices));
  result.point_sample.resize(static_cast<size_t>(num_devices));

  // The fault plan is a pure function of (options, z), so drawing it before
  // Phase 1 changes nothing downstream — and lets the journal announce every
  // device's schedule up front.
  FEDSC_ASSIGN_OR_RETURN(FaultPlan plan,
                         FaultPlan::Create(num_devices, options.faults));
  FEDSC_JOURNAL_EVENT("run_start", -1, -1,
                      {{"devices", num_devices},
                       {"clusters", num_clusters},
                       {"seed", options.seed},
                       {"fault_seed", options.faults.seed}});
  if (JournalEnabled()) {
    for (int64_t z = 0; z < num_devices; ++z) {
      JournalRecord("scheduled", z, -1,
                    {{"fault", FaultClassName(plan.ScheduleFor(z))}});
    }
  }

  // Phase 1: local clustering and sampling on every device. Devices are
  // independent, so the work fans out over options.num_threads; seeds are
  // fixed up front so the outcome matches the sequential run exactly.
  std::vector<Result<LocalClusteringOutput>> locals(
      static_cast<size_t>(num_devices), Status::Internal("not run"));
  std::vector<double> device_seconds(static_cast<size_t>(num_devices), 0.0);
  std::vector<uint64_t> device_seeds(static_cast<size_t>(num_devices));
  for (auto& seed : device_seeds) seed = rng.Next();
  {
    FEDSC_TRACE_SPAN("fedsc/phase1", {{"devices", num_devices}});
    ParallelFor(0, num_devices, options.num_threads, [&](int64_t z) {
      FEDSC_TRACE_SPAN("fedsc/phase1/device", {{"z", z}});
      const auto zi = static_cast<size_t>(z);
      Stopwatch local_timer;
      locals[zi] =
          LocalClusterAndSample(data.points[zi], options, device_seeds[zi]);
      device_seconds[zi] = local_timer.ElapsedSeconds();
    });
  }

  // Uplink with the failure model: the fault plan injects per-device
  // failures, the channel retries against a simulated clock, and the server
  // takes every device in, in device order, so server ids are device ids.
  // Everything here is serial protocol code, so metrics, schedules, and
  // journal events are deterministic for any num_threads.
  FedScServer server(num_clusters, options, data.ambient_dim);
  int64_t rounds_used = 1;
  int64_t sim_uplink_ms = 0;
  {
    FEDSC_TRACE_SPAN("fedsc/uplink", {{"devices", num_devices}});
    for (int64_t z = 0; z < num_devices; ++z) {
      const auto zi = static_cast<size_t>(z);
      if (!locals[zi].ok()) {
        server.AddLocalError(locals[zi].status());
        continue;
      }
      result.local_seconds += device_seconds[zi];
      result.local_cluster_counts[zi] = locals[zi]->num_local_clusters;
      FEDSC_METRIC_COUNTER("fedsc.local_clusters")
          .Add(locals[zi]->num_local_clusters);
      FEDSC_ASSIGN_OR_RETURN(
          const Matrix upload,
          ReleaseUpload(locals[zi]->samples, options, device_seeds[zi]));

      // Devices upload concurrently in a real federation, so each gets its
      // own simulated clock; the phase lasts as long as the slowest device.
      SimClock device_clock;
      const UplinkOutcome outcome = channel.UplinkWithRetry(
          z, upload, plan, options.retry, &device_clock);
      rounds_used = std::max<int64_t>(rounds_used, outcome.attempts);
      sim_uplink_ms = std::max(sim_uplink_ms, outcome.elapsed_ms);
      // A rejected Byzantine device is worth its own journal event: its
      // payload was adversarial-yet-well-formed, so only a *co-scheduled*
      // fault (or validation bound) can stop it.
      if (!server.AddUplink(outcome).ok() &&
          plan.ScheduleFor(z).payload == PayloadFault::kByzantine) {
        FEDSC_JOURNAL_EVENT("byzantine_rejected", z, outcome.elapsed_ms,
                            {{"attempts", outcome.attempts}});
      }
    }
  }
  // Byzantine defense: screen the accepted uploads before pooling. Screened
  // devices degrade exactly like quarantined ones — they count against the
  // quorum and their points get the sentinel label.
  FEDSC_RETURN_NOT_OK(server.Screen(sim_uplink_ms));
  result.device_reports = server.reports();
  for (const DeviceReport& report : result.device_reports) {
    if (report.outcome != DeviceOutcome::kOk) {
      result.failed_devices.push_back(report.device);
    }
  }
  result.participating_devices = server.participating_devices();
  result.quarantined_samples = server.quarantined_samples();
  result.screened_devices = server.screened_devices();
  FEDSC_METRIC_COUNTER("fedsc.participating_devices")
      .Add(result.participating_devices);
  FEDSC_RETURN_NOT_OK(
      CheckQuorum(result.device_reports, options.quorum, sim_uplink_ms));

  // Phase 2: central clustering of the pooled samples.
  Stopwatch central_timer;
  FEDSC_RETURN_NOT_OK(server.Cluster(sim_uplink_ms));
  result.central_seconds = central_timer.ElapsedSeconds();
  result.total_samples = server.solution().samples.cols();
  FEDSC_METRIC_COUNTER("fedsc.total_samples").Add(result.total_samples);

  // Phase 3: downlink assignments; devices relabel their points. Points on
  // failed devices get the sentinel label — partial participation degrades
  // coverage, never correctness of the surviving labels.
  FEDSC_TRACE_SPAN("fedsc/phase3/relabel");
  FEDSC_JOURNAL_EVENT("broadcast", -1, sim_uplink_ms,
                      {{"devices", result.participating_devices}});
  for (int64_t z = 0; z < num_devices; ++z) {
    const auto zi = static_cast<size_t>(z);
    auto& labels = result.device_labels[zi];
    auto& point_sample = result.point_sample[zi];
    const DeviceReport& report = result.device_reports[zi];
    if (report.outcome != DeviceOutcome::kOk) {
      const auto num_points = static_cast<size_t>(data.points[zi].cols());
      labels.assign(num_points, FedScResult::kFailedDeviceLabel);
      point_sample.assign(num_points, -1);
      continue;
    }
    const int64_t accepted =
        report.uploaded_samples - report.quarantined_samples;
    channel.Downlink(accepted, num_clusters);
    FEDSC_JOURNAL_EVENT("downlink", z, sim_uplink_ms, {{"values", accepted}});

    // Aligned to the honest upload: columns a truncated payload lost keep
    // the sentinel; a duplicated one's extra columns label no local cluster.
    std::vector<int64_t> solved_column;
    FEDSC_ASSIGN_OR_RETURN(std::vector<int64_t> assignments,
                           server.AssignmentsFor(z, &solved_column));
    const LocalClusteringOutput& local = *locals[zi];
    assignments.resize(local.sample_cluster.size(),
                       FedScResult::kFailedDeviceLabel);
    solved_column.resize(local.sample_cluster.size(), -1);
    labels = RelabelPoints(local, assignments, &point_sample);
    for (int64_t& s : point_sample) {
      if (s >= 0) s = solved_column[static_cast<size_t>(s)];
    }
  }
  channel.FinishRounds(rounds_used);
  CentralSolution central = server.TakeSolution();
  result.samples = std::move(central.samples);
  result.sample_device = std::move(central.sample_device);
  result.sample_labels = std::move(central.labels);
  result.central_affinity = std::move(central.affinity);
  result.central_coefficients = std::move(central.landmark_coefficients);

  result.global_labels = data.ToGlobalOrder(result.device_labels);
  result.comm = channel.stats();
  result.comm.sim_uplink_ms = sim_uplink_ms;
  result.seconds = result.local_seconds + result.central_seconds;
  FEDSC_JOURNAL_EVENT("run_finish", -1, sim_uplink_ms,
                      {{"participating", result.participating_devices},
                       {"total_samples", result.total_samples},
                       {"rounds", rounds_used},
                       {"uplink_wire_bytes", result.comm.uplink_wire_bytes}});
  if (options.collect_report) {
    result.report =
        std::make_shared<const RunReport>(BuildRunReport(options, result));
  }
  return result;
}

Result<std::vector<int64_t>> AssignNewPoints(const FedScResult& result,
                                             int64_t num_clusters,
                                             const Matrix& new_points,
                                             double rank_rel_tol) {
  if (num_clusters < 1) {
    return Status::InvalidArgument("need num_clusters >= 1");
  }
  if (new_points.rows() != result.samples.rows()) {
    return Status::InvalidArgument("new points have ambient dimension " +
                                   std::to_string(new_points.rows()) +
                                   ", expected " +
                                   std::to_string(result.samples.rows()));
  }
  const int64_t n = result.samples.rows();

  // Basis per global cluster from its labeled samples, all through one
  // batched factorization call. Empty and degenerate clusters leave their
  // slot as an empty matrix: they never win the residual contest below.
  std::vector<std::vector<int64_t>> groups(static_cast<size_t>(num_clusters));
  for (size_t s = 0; s < result.sample_labels.size(); ++s) {
    const int64_t c = result.sample_labels[s];
    if (c >= 0 && c < num_clusters) {
      groups[static_cast<size_t>(c)].push_back(static_cast<int64_t>(s));
    }
  }
  BatchedSubspaceOptions batch;
  batch.rank = 0;
  batch.rel_tol = rank_rel_tol;
  std::vector<Result<Matrix>> fitted =
      BatchedPrincipalSubspace(result.samples, groups, batch);
  std::vector<Matrix> bases(static_cast<size_t>(num_clusters));
  for (int64_t c = 0; c < num_clusters; ++c) {
    if (fitted[static_cast<size_t>(c)].ok()) {
      bases[static_cast<size_t>(c)] =
          std::move(fitted[static_cast<size_t>(c)]).value();
    }
  }

  std::vector<int64_t> labels(static_cast<size_t>(new_points.cols()), 0);
  Vector normalized(static_cast<size_t>(n), 0.0);
  Vector reconstructed(static_cast<size_t>(n), 0.0);
  for (int64_t j = 0; j < new_points.cols(); ++j) {
    std::copy(new_points.ColData(j), new_points.ColData(j) + n,
              normalized.begin());
    const double norm = Norm2(normalized.data(), n);
    if (norm > 1e-300) Scal(1.0 / norm, normalized.data(), n);
    double best = std::numeric_limits<double>::infinity();
    int64_t arg = 0;
    for (int64_t c = 0; c < num_clusters; ++c) {
      const Matrix& basis = bases[static_cast<size_t>(c)];
      if (basis.cols() == 0) continue;
      Vector coords(static_cast<size_t>(basis.cols()), 0.0);
      Gemv(Trans::kTrans, 1.0, basis, normalized.data(), 0.0, coords.data());
      std::copy(normalized.begin(), normalized.end(),
                reconstructed.begin());
      Gemv(Trans::kNo, -1.0, basis, coords.data(), 1.0,
           reconstructed.data());
      const double residual = Norm2(reconstructed.data(), n);
      if (residual < best) {
        best = residual;
        arg = c;
      }
    }
    labels[static_cast<size_t>(j)] = arg;
  }
  return labels;
}

SparseMatrix CentralAffinity(const FedScResult& result) {
  if (result.central_coefficients.rows() == 0) return result.central_affinity;
  return LandmarkAffinity(result.central_coefficients);
}

Result<ConnectivityResult> InducedConnectivity(const FederatedDataset& data,
                                               const FedScResult& result) {
  // Truth labels and sample ids in dataset order.
  const std::vector<int64_t> truth = data.GlobalTruth();
  const std::vector<int64_t> sample_of_point =
      data.ToGlobalOrder(result.point_sample);
  const Matrix central = CentralAffinity(result).ToDense();

  // Build the induced affinity class by class (dense per class; classes are
  // small relative to N).
  int64_t num_classes = 0;
  for (int64_t t : truth) num_classes = std::max(num_classes, t + 1);
  std::vector<std::vector<int64_t>> members(
      static_cast<size_t>(num_classes));
  for (size_t i = 0; i < truth.size(); ++i) {
    members[static_cast<size_t>(truth[i])].push_back(
        static_cast<int64_t>(i));
  }

  ConnectivityResult conn;
  conn.per_cluster.assign(static_cast<size_t>(num_classes), 0.0);
  for (int64_t c = 0; c < num_classes; ++c) {
    const auto& idx = members[static_cast<size_t>(c)];
    if (idx.size() < 2) continue;
    Matrix w(static_cast<int64_t>(idx.size()),
             static_cast<int64_t>(idx.size()));
    for (size_t a = 0; a < idx.size(); ++a) {
      const int64_t sa = sample_of_point[static_cast<size_t>(idx[a])];
      for (size_t b = a + 1; b < idx.size(); ++b) {
        const int64_t sb = sample_of_point[static_cast<size_t>(idx[b])];
        double v;
        if (sa < 0 || sb < 0) {
          v = 0.0;
        } else if (sa == sb) {
          v = 1.0;  // same local cluster: fully connected
        } else {
          v = central(sa, sb);
        }
        w(static_cast<int64_t>(a), static_cast<int64_t>(b)) = v;
        w(static_cast<int64_t>(b), static_cast<int64_t>(a)) = v;
      }
    }
    FEDSC_ASSIGN_OR_RETURN(ConnectivityResult single,
                           GraphConnectivity(w, std::vector<int64_t>(
                                                    idx.size(), 0)));
    conn.per_cluster[static_cast<size_t>(c)] = single.per_cluster[0];
  }

  double sum = 0.0;
  double min_value =
      conn.per_cluster.empty() ? 0.0 : conn.per_cluster[0];
  for (double v : conn.per_cluster) {
    sum += v;
    min_value = std::min(min_value, v);
  }
  conn.min_lambda2 = min_value;
  conn.mean_lambda2 = conn.per_cluster.empty()
                          ? 0.0
                          : sum / static_cast<double>(conn.per_cluster.size());
  return conn;
}

}  // namespace fedsc
