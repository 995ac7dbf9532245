#include "core/server.h"

#include <algorithm>
#include <utility>

#include "common/journal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fedsc {

namespace {

// Phase 2: clusters `out.samples` (the unscreened pool, one device id per
// column in `out.sample_device`) into num_clusters groups. `num_devices` is
// Z in the paper's TSC rule q = max(3, ceil(Z / L)). `iterate` is the exact
// SSC solve's warm start in and final iterate out; any other path empties
// it.
Result<CentralSolution> SolveCentral(CentralSolution out,
                                     int64_t num_clusters,
                                     int64_t num_devices,
                                     const FedScOptions& options,
                                     int64_t sim_ms,
                                     SscAdmmIterate* iterate) {
  if (num_clusters < 1) {
    return Status::InvalidArgument("need num_clusters >= 1");
  }
  const int64_t total = out.samples.cols();
  if (total < num_clusters) {
    return Status::FailedPrecondition(
        "server received fewer samples than clusters (" +
        std::to_string(total) + " < " + std::to_string(num_clusters) + ")");
  }

  FEDSC_TRACE_SPAN("fedsc/phase2/central", {{"samples", total}});
  ScPipelineOptions central;
  central.method = options.central_method;
  central.central = options.central;
  central.sketch = options.central_sketch;
  // The sketch stream and the k-means seed hang off the run seed alone, so
  // the labels are a pure function of (seed, pooled uploads).
  central.sketch.seed = MixSeeds(options.seed, 0x5ce7c4ULL);
  central.ssc = options.central_ssc;
  central.tsc = options.central_tsc;
  if (central.tsc.q <= 0) {
    // The paper's rule: q = max(3, ceil(Z / L)).
    central.tsc.q = std::max<int64_t>(
        3, (num_devices + num_clusters - 1) / num_clusters);
  }
  central.tsc.q = std::min<int64_t>(central.tsc.q, total - 1);
  central.spectral = options.central_spectral;
  central.spectral.kmeans.seed = options.seed ^ 0x5e47e4ULL;
  if (options.defense.enabled) {
    // Robust k-engine: trimmed assignment, robust centers, and a per-device
    // influence cap on the embedding rows (one per solved column).
    KMeansRobustOptions& robust = central.spectral.kmeans.robust;
    robust.enabled = true;
    robust.trim_fraction = options.defense.trim_fraction;
    robust.center = options.defense.robust_center;
    robust.max_group_fraction = options.defense.max_device_fraction;
    robust.point_group = out.sample_device;
  }
  // Channel noise can leave samples slightly off the unit sphere;
  // renormalize like the paper's analysis assumes.
  central.normalize_columns = true;
  // Phase 2 runs after every device reported, so the worker budget that
  // fanned Phase 1 out across devices now threads the central kernels
  // (bit-identical for any thread count).
  central.num_threads = options.num_threads;
  const CentralPath central_path =
      ResolveCentralPath(central, total, num_clusters);
  if (central_path != CentralPath::kExact ||
      central.method != ScMethod::kSsc || central.ssc.affine) {
    *iterate = SscAdmmIterate();
  }
  const int64_t warm_columns = std::count_if(
      iterate->source.begin(), iterate->source.end(),
      [](int64_t s) { return s >= 0; });
  FEDSC_JOURNAL_EVENT("central_start", -1, sim_ms,
                      {{"samples", total},
                       {"method", ScMethodKey(options.central_method)},
                       {"warm_columns", warm_columns},
                       {"central_path", CentralPathName(central_path)}});
  FEDSC_METRIC_GAUGE("fedsc.central_sketched", MetricKind::kDeterministic)
      .Set(central_path == CentralPath::kSketched ? 1.0 : 0.0);
  FEDSC_ASSIGN_OR_RETURN(ScResult result,
                         RunSubspaceClustering(out.samples, num_clusters,
                                               central, iterate));
  out.labels = std::move(result.labels);
  out.affinity = std::move(result.affinity);
  out.landmark_coefficients = std::move(result.landmark_coefficients);
  FEDSC_JOURNAL_EVENT("central_finish", -1, sim_ms, {{"samples", total}});
  return out;
}

}  // namespace

const char* DeviceOutcomeName(DeviceOutcome outcome) {
  switch (outcome) {
    case DeviceOutcome::kOk:
      return "ok";
    case DeviceOutcome::kDropped:
      return "dropped";
    case DeviceOutcome::kQuarantined:
      return "quarantined";
    case DeviceOutcome::kLocalError:
      return "local error";
    case DeviceOutcome::kScreened:
      return "screened";
  }
  return "unknown";
}

FedScClient::FedScClient(Matrix points, FedScOptions options, uint64_t seed)
    : points_(std::move(points)), options_(std::move(options)), seed_(seed) {}

Result<Matrix> FedScClient::ProduceUpload() {
  if (!ran_) {
    FEDSC_ASSIGN_OR_RETURN(local_,
                           LocalClusterAndSample(points_, options_, seed_));
    ran_ = true;
  }
  return ReleaseUpload(local_.samples, options_, seed_);
}

Result<std::vector<uint8_t>> FedScClient::ProduceEncodedUpload(
    const CodecOptions& codec) {
  FEDSC_ASSIGN_OR_RETURN(Matrix samples, ProduceUpload());
  return EncodeUpload(samples, codec);
}

Result<std::vector<int64_t>> FedScClient::ApplyAssignments(
    const std::vector<int64_t>& sample_assignments) const {
  if (!ran_) {
    return Status::FailedPrecondition("ProduceUpload() has not run");
  }
  if (sample_assignments.size() != local_.sample_cluster.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(local_.sample_cluster.size()) +
        " assignments, got " + std::to_string(sample_assignments.size()));
  }
  for (int64_t assignment : sample_assignments) {
    if (assignment < FedScResult::kFailedDeviceLabel) {
      return Status::InvalidArgument(
          "assignment " + std::to_string(assignment) +
          " is out of range (labels must be >= 0, or -1 for a sample the "
          "server did not cluster)");
    }
  }
  return RelabelPoints(local_, sample_assignments);
}

FedScServer::FedScServer(int64_t num_clusters, FedScOptions options,
                         int64_t ambient_dim)
    : num_clusters_(num_clusters),
      options_(std::move(options)),
      ambient_dim_(ambient_dim) {}

Result<int64_t> FedScServer::AddUpload(const Matrix& samples) {
  return Intake(&samples, Status::OK(), 1, -1);
}

Result<int64_t> FedScServer::AddEncodedUpload(
    const std::vector<uint8_t>& wire) {
  Result<DecodedUpload> decoded = DecodeUpload(wire);
  if (!decoded.ok()) return Intake(nullptr, decoded.status(), 1, -1);
  return Intake(&decoded->samples, Status::OK(), 1, -1);
}

Result<int64_t> FedScServer::AddUplink(const UplinkOutcome& outcome) {
  return Intake(outcome.delivered ? &outcome.received : nullptr,
                outcome.status, outcome.attempts, outcome.elapsed_ms);
}

int64_t FedScServer::AddLocalError(const Status& status) {
  const int64_t id = num_devices();
  reports_.push_back({id, DeviceOutcome::kLocalError, 0, 0, 0, status, ""});
  uploads_.emplace_back();
  kept_.emplace_back();
  FEDSC_JOURNAL_EVENT("local_error", id, -1, {{"status", status.ToString()}});
  return id;
}

Result<int64_t> FedScServer::Intake(const Matrix* received,
                                    const Status& status, int attempts,
                                    int64_t sim_ms) {
  const int64_t id = num_devices();
  reports_.push_back({id, DeviceOutcome::kOk, attempts, 0, 0, {}, ""});
  uploads_.emplace_back();
  kept_.emplace_back();
  if (received == nullptr) {
    // Wire-corrupt bytes *arrived* — they just failed to decode — so the
    // device is quarantined like any unusable upload; a device that never
    // delivered is dropped.
    return Reject(status.code() == StatusCode::kWireCorrupt
                      ? DeviceOutcome::kQuarantined
                      : DeviceOutcome::kDropped,
                  status, sim_ms);
  }
  DeviceReport& report = reports_.back();
  report.uploaded_samples = received->cols();
  Result<UploadValidation> validation =
      ValidateUpload(*received, ambient_dim_, options_.validation);
  // A structurally unusable upload (e.g. the wrong ambient dimension) is
  // quarantined whole.
  report.quarantined_samples =
      validation.ok() ? static_cast<int64_t>(validation->quarantined.size())
                      : received->cols();
  quarantined_samples_ += report.quarantined_samples;
  if (!validation.ok()) {
    return Reject(DeviceOutcome::kQuarantined, validation.status(), sim_ms);
  }
  const int64_t accepted = validation->accepted.cols();
  if (accepted == 0) {
    return Reject(DeviceOutcome::kQuarantined,
                  Status::InvalidArgument(
                      "every sample of device " + std::to_string(id) +
                      " failed validation: " +
                      QuarantinedColumnsSummary(*validation)),
                  sim_ms);
  }
  if (ambient_dim_ < 0) ambient_dim_ = received->rows();
  uploads_.back() = std::move(validation->accepted);
  kept_.back() = std::move(validation->kept);
  total_samples_ += accepted;
  screen_current_ = false;
  clustered_ = false;
  FEDSC_JOURNAL_EVENT("accepted", id, sim_ms,
                      {{"attempts", attempts},
                       {"uploaded_samples", report.uploaded_samples},
                       {"accepted_samples", accepted},
                       {"quarantined_samples", report.quarantined_samples}});
  return id;
}

Status FedScServer::Reject(DeviceOutcome outcome, Status status,
                           int64_t sim_ms) {
  DeviceReport& report = reports_.back();
  report.outcome = outcome;
  report.status = status;
  const bool dropped = outcome == DeviceOutcome::kDropped;
  if (dropped) {
    FEDSC_METRIC_COUNTER("fed.faults.dropped_devices").Increment();
  } else {
    FEDSC_METRIC_COUNTER("fed.quarantine.devices").Increment();
  }
  FEDSC_JOURNAL_EVENT(dropped ? "dropped" : "quarantined", report.device,
                      sim_ms,
                      {{"attempts", report.attempts},
                       {"reason", status.ToString()}});
  FEDSC_LOG(Warning) << "device " << report.device << " "
                     << DeviceOutcomeName(outcome) << ": "
                     << status.ToString();
  return status;
}

int64_t FedScServer::Count(DeviceOutcome outcome) const {
  return std::count_if(
      reports_.begin(), reports_.end(),
      [outcome](const DeviceReport& r) { return r.outcome == outcome; });
}

void FedScServer::Pool(Matrix* samples, std::vector<int64_t>* device) const {
  std::vector<const double*> columns;
  device->clear();
  for (size_t z = 0; z < uploads_.size(); ++z) {
    if (reports_[z].outcome != DeviceOutcome::kOk) continue;
    for (int64_t c = 0; c < uploads_[z].cols(); ++c) {
      columns.push_back(uploads_[z].ColData(c));
      device->push_back(static_cast<int64_t>(z));
    }
  }
  *samples = Matrix(std::max<int64_t>(ambient_dim_, 0),
                    static_cast<int64_t>(columns.size()));
  for (size_t j = 0; j < columns.size(); ++j) {
    samples->SetCol(static_cast<int64_t>(j), columns[j]);
  }
}

Status FedScServer::Screen(int64_t sim_ms) {
  if (screen_current_) return Status::OK();
  // Every accepted device re-enters the screen: the verdicts belong to the
  // current pool.
  for (DeviceReport& report : reports_) {
    if (report.outcome != DeviceOutcome::kScreened) continue;
    report.outcome = DeviceOutcome::kOk;
    report.status = Status::OK();
    report.screen_statistic.clear();
  }
  if (options_.defense.enabled && total_samples_ > 0) {
    FEDSC_TRACE_SPAN("fedsc/defense/screen", {{"samples", total_samples_}});
    FEDSC_ASSIGN_OR_RETURN(DefensePlan defense,
                           DefensePlan::Create(options_.defense));
    Matrix pool;
    std::vector<int64_t> device;
    Pool(&pool, &device);
    const ScreeningOutcome screening =
        defense.Screen(pool, device, options_.num_threads);
    for (const DeviceScreenVerdict& verdict : screening.verdicts) {
      if (!verdict.screened) continue;
      DeviceReport& report = reports_[static_cast<size_t>(verdict.device)];
      report.outcome = DeviceOutcome::kScreened;
      report.screen_statistic = verdict.statistic;
      report.status = Status::InvalidArgument(
          "device " + std::to_string(verdict.device) +
          " screened by the Byzantine defense: " + verdict.statistic);
      FEDSC_METRIC_COUNTER("fedsc.screened_devices").Increment();
      FEDSC_JOURNAL_EVENT("defense_screened", verdict.device, sim_ms,
                          {{"statistic", verdict.statistic},
                           {"support", verdict.support},
                           {"residual", verdict.residual}});
      FEDSC_LOG(Warning) << "device " << verdict.device
                         << " screened by the Byzantine defense: "
                         << verdict.statistic;
    }
  }
  screen_current_ = true;
  return Status::OK();
}

Status FedScServer::Cluster(int64_t sim_ms) {
  if (clustered_) return Status::OK();
  // Taken out, so a failed call leaves no iterate behind.
  SscAdmmIterate iterate = std::exchange(warm_, SscAdmmIterate());
  FEDSC_RETURN_NOT_OK(Screen(sim_ms));
  CentralSolution pool;
  Pool(&pool.samples, &pool.sample_device);
  if (!iterate.u.empty()) {
    // A pooled column is keyed by (device id, accepted column); the last
    // solve held device z's columns from solved_offset_[z] on. A device
    // new to the pool, or screened from the last one, starts from zero.
    iterate.source.resize(pool.sample_device.size());
    int64_t column = 0;
    for (size_t j = 0; j < pool.sample_device.size(); ++j) {
      const auto z = static_cast<size_t>(pool.sample_device[j]);
      column = j > 0 && pool.sample_device[j - 1] == pool.sample_device[j]
                   ? column + 1
                   : 0;
      iterate.source[j] = z < solved_offset_.size() && solved_offset_[z] >= 0
                              ? solved_offset_[z] + column
                              : -1;
    }
  }
  FEDSC_ASSIGN_OR_RETURN(
      solution_, SolveCentral(std::move(pool), num_clusters_, num_devices(),
                              options_, sim_ms, &iterate));
  warm_ = std::move(iterate);
  solved_offset_.assign(reports_.size(), -1);
  int64_t next = 0;
  for (size_t z = 0; z < uploads_.size(); ++z) {
    if (reports_[z].outcome != DeviceOutcome::kOk) continue;
    solved_offset_[z] = next;
    next += uploads_[z].cols();
  }
  clustered_ = true;
  return Status::OK();
}

CentralSolution FedScServer::TakeSolution() {
  clustered_ = false;
  return std::exchange(solution_, CentralSolution());
}

Result<std::vector<int64_t>> FedScServer::AssignmentsFor(
    int64_t id, std::vector<int64_t>* solved_column) const {
  if (id < 0 || id >= num_devices()) {
    return Status::InvalidArgument("unknown device id " + std::to_string(id));
  }
  if (!clustered_) {
    return Status::FailedPrecondition("Cluster() has not run");
  }
  const DeviceReport& report = reports_[static_cast<size_t>(id)];
  if (report.outcome != DeviceOutcome::kOk) {
    return Status::InvalidArgument(
        "device " + std::to_string(id) + " was " +
        DeviceOutcomeName(report.outcome) +
        " and its samples were excluded from the central clustering: " +
        report.status.ToString());
  }
  const auto uploaded = static_cast<size_t>(report.uploaded_samples);
  std::vector<int64_t> assignments(uploaded, FedScResult::kFailedDeviceLabel);
  if (solved_column != nullptr) solved_column->assign(uploaded, -1);
  const std::vector<int64_t>& kept = kept_[static_cast<size_t>(id)];
  for (size_t k = 0; k < kept.size(); ++k) {
    const int64_t column =
        solved_offset_[static_cast<size_t>(id)] + static_cast<int64_t>(k);
    const auto s = static_cast<size_t>(kept[k]);
    assignments[s] = solution_.labels[static_cast<size_t>(column)];
    if (solved_column != nullptr) (*solved_column)[s] = column;
  }
  return assignments;
}

Status CheckQuorum(const std::vector<DeviceReport>& reports, double quorum,
                   int64_t sim_ms) {
  const auto devices = static_cast<int64_t>(reports.size());
  int64_t participating = 0;
  std::string detail;
  for (const DeviceReport& report : reports) {
    if (report.outcome == DeviceOutcome::kOk) {
      ++participating;
      continue;
    }
    if (!detail.empty()) detail += "; ";
    detail += "device " + std::to_string(report.device) + " " +
              DeviceOutcomeName(report.outcome);
  }
  const double participation =
      static_cast<double>(participating) / static_cast<double>(devices);
  const bool met = participation + 1e-12 >= quorum;
  FEDSC_JOURNAL_EVENT(met ? "quorum_reached" : "quorum_missed", -1, sim_ms,
                      {{"participating", participating},
                       {"devices", devices},
                       {"quorum", quorum}});
  if (met) return Status::OK();
  return Status::QuorumNotMet(
      std::to_string(participating) + "/" + std::to_string(devices) +
      " devices reported, quorum " + std::to_string(quorum) + " (" + detail +
      ")");
}

}  // namespace fedsc
