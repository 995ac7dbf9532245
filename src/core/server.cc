#include "core/server.h"

#include <algorithm>

#include "common/journal.h"
#include "common/rng.h"

namespace fedsc {

FedScClient::FedScClient(Matrix points, FedScOptions options, uint64_t seed)
    : points_(std::move(points)), options_(std::move(options)), seed_(seed) {}

Result<Matrix> FedScClient::ProduceUpload() {
  if (!ran_) {
    FEDSC_ASSIGN_OR_RETURN(local_,
                           LocalClusterAndSample(points_, options_, seed_));
    ran_ = true;
  }
  return local_.samples;
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
    if (assignment < 0) {
      return Status::InvalidArgument(
          "assignment " + std::to_string(assignment) +
          " is out of range (labels must be >= 0)");
    }
  }
  // Label of a local cluster = assignment of its first sample.
  std::vector<int64_t> cluster_label(
      static_cast<size_t>(std::max<int64_t>(local_.num_local_clusters, 1)),
      -1);
  for (size_t s = 0; s < local_.sample_cluster.size(); ++s) {
    const auto t = static_cast<size_t>(local_.sample_cluster[s]);
    if (cluster_label[t] == -1) cluster_label[t] = sample_assignments[s];
  }
  std::vector<int64_t> labels(local_.partition.size(), 0);
  for (size_t i = 0; i < local_.partition.size(); ++i) {
    labels[i] = cluster_label[static_cast<size_t>(local_.partition[i])];
  }
  return labels;
}

FedScServer::FedScServer(int64_t num_clusters, FedScOptions options)
    : num_clusters_(num_clusters), options_(std::move(options)) {}

Result<int64_t> FedScServer::AddUpload(const Matrix& samples) {
  if (samples.cols() == 0) {
    return Status::InvalidArgument("empty upload");
  }
  // The first device fixes the federation's ambient dimension; validation
  // quarantines corrupt columns so one bad device cannot poison (or crash)
  // the central solve.
  FEDSC_ASSIGN_OR_RETURN(
      UploadValidation validation,
      ValidateUpload(samples, ambient_dim_ >= 0 ? ambient_dim_ : -1,
                     options_.validation));
  quarantined_samples_ +=
      static_cast<int64_t>(validation.quarantined.size());
  if (validation.accepted.cols() == 0) {
    FEDSC_JOURNAL_EVENT(
        "quarantined", num_devices(), -1,
        {{"reason", "every sample of the upload failed validation"}});
    return Status::InvalidArgument(
        "every sample of the upload failed validation: " +
        QuarantinedColumnsSummary(validation));
  }
  if (ambient_dim_ < 0) ambient_dim_ = samples.rows();
  device_offsets_.push_back(total_samples_);
  total_samples_ += validation.accepted.cols();
  uploads_.push_back(std::move(validation.accepted));
  clustered_ = false;
  FEDSC_JOURNAL_EVENT(
      "accepted", num_devices() - 1, -1,
      {{"uploaded_samples", samples.cols()},
       {"accepted_samples", uploads_.back().cols()},
       {"quarantined_samples",
        static_cast<int64_t>(validation.quarantined.size())}});
  return num_devices() - 1;
}

Result<int64_t> FedScServer::AddEncodedUpload(
    const std::vector<uint8_t>& wire) {
  FEDSC_ASSIGN_OR_RETURN(DecodedUpload decoded, DecodeUpload(wire));
  return AddUpload(decoded.samples);
}

Status FedScServer::Cluster() {
  if (clustered_) return Status::OK();
  if (total_samples_ < num_clusters_) {
    return Status::FailedPrecondition(
        "fewer samples than clusters: " + std::to_string(total_samples_) +
        " < " + std::to_string(num_clusters_));
  }
  Matrix pooled(ambient_dim_, total_samples_);
  std::vector<int64_t> pool_device;
  pool_device.reserve(static_cast<size_t>(total_samples_));
  int64_t next = 0;
  for (size_t z = 0; z < uploads_.size(); ++z) {
    const Matrix& upload = uploads_[z];
    for (int64_t c = 0; c < upload.cols(); ++c) {
      pooled.SetCol(next++, upload.ColData(c));
      pool_device.push_back(static_cast<int64_t>(z));
    }
  }

  // Byzantine defense: screen the registered uploads; screened devices'
  // samples are excluded from the central solve and keep the sentinel
  // label -1 in sample_labels().
  screened_.assign(static_cast<size_t>(num_devices()), false);
  Matrix solve = pooled;
  std::vector<int64_t> solve_device = pool_device;
  std::vector<int64_t> keep;
  if (options_.defense.enabled) {
    FEDSC_ASSIGN_OR_RETURN(DefensePlan defense,
                           DefensePlan::Create(options_.defense));
    const ScreeningOutcome screening =
        defense.Screen(pooled, pool_device, options_.num_threads);
    for (const DeviceScreenVerdict& verdict : screening.verdicts) {
      if (!verdict.screened) continue;
      screened_[static_cast<size_t>(verdict.device)] = true;
      FEDSC_JOURNAL_EVENT("defense_screened", verdict.device, -1,
                          {{"statistic", verdict.statistic},
                           {"support", verdict.support},
                           {"residual", verdict.residual}});
    }
    if (screening.screened_devices > 0) {
      for (int64_t c = 0; c < total_samples_; ++c) {
        if (!screened_[static_cast<size_t>(
                pool_device[static_cast<size_t>(c)])]) {
          keep.push_back(c);
        }
      }
      if (static_cast<int64_t>(keep.size()) < num_clusters_) {
        return Status::FailedPrecondition(
            "fewer unscreened samples than clusters: " +
            std::to_string(keep.size()) + " < " +
            std::to_string(num_clusters_));
      }
      solve = pooled.GatherCols(keep);
      solve_device.clear();
      for (int64_t c : keep) {
        solve_device.push_back(pool_device[static_cast<size_t>(c)]);
      }
    }
  }

  ScPipelineOptions central;
  central.method = options_.central_method;
  central.central = options_.central;
  central.sketch = options_.central_sketch;
  // Same derivation as RunFedSc: the sketch stream is a pure function of
  // the run seed, independent of upload arrival order.
  central.sketch.seed = MixSeeds(options_.seed, 0x5ce7c4ULL);
  central.ssc = options_.central_ssc;
  central.tsc = options_.central_tsc;
  if (central.tsc.q <= 0) {
    central.tsc.q = std::max<int64_t>(
        3, (num_devices() + num_clusters_ - 1) / num_clusters_);
  }
  central.tsc.q = std::min<int64_t>(central.tsc.q, total_samples_ - 1);
  central.spectral = options_.central_spectral;
  central.spectral.kmeans.seed = options_.seed ^ 0x5e47e4ULL;
  if (options_.defense.enabled) {
    KMeansRobustOptions& robust = central.spectral.kmeans.robust;
    robust.enabled = true;
    robust.trim_fraction = options_.defense.trim_fraction;
    robust.center = options_.defense.robust_center;
    robust.max_group_fraction = options_.defense.max_device_fraction;
    robust.point_group = solve_device;
  }
  central.num_threads = options_.num_threads;
  FEDSC_JOURNAL_EVENT(
      "central_start", -1, -1,
      {{"samples", solve.cols()},
       {"method", ScMethodKey(central.method)},
       {"central_path",
        CentralPathName(
            ResolveCentralPath(central, solve.cols(), num_clusters_))}});
  FEDSC_ASSIGN_OR_RETURN(ScResult result,
                         RunSubspaceClustering(solve, num_clusters_,
                                               central));
  if (keep.empty()) {
    sample_labels_ = std::move(result.labels);
  } else {
    // Screened samples keep the failed-device sentinel.
    sample_labels_.assign(static_cast<size_t>(total_samples_), -1);
    for (size_t i = 0; i < keep.size(); ++i) {
      sample_labels_[static_cast<size_t>(keep[i])] = result.labels[i];
    }
  }
  clustered_ = true;
  FEDSC_JOURNAL_EVENT("central_finish", -1, -1,
                      {{"samples", solve.cols()}});
  return Status::OK();
}

Result<std::vector<int64_t>> FedScServer::AssignmentsFor(int64_t id) const {
  if (id < 0 || id >= num_devices()) {
    return Status::InvalidArgument("unknown device id " + std::to_string(id));
  }
  if (!clustered_) {
    return Status::FailedPrecondition("Cluster() has not run");
  }
  if (!screened_.empty() && screened_[static_cast<size_t>(id)]) {
    return Status::InvalidArgument(
        "device " + std::to_string(id) +
        " was screened by the Byzantine defense; its samples were excluded "
        "from the central clustering");
  }
  const int64_t begin = device_offsets_[static_cast<size_t>(id)];
  const int64_t count = uploads_[static_cast<size_t>(id)].cols();
  return std::vector<int64_t>(sample_labels_.begin() + begin,
                              sample_labels_.begin() + begin + count);
}

}  // namespace fedsc
