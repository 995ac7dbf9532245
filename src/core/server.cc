#include "core/server.h"

#include "common/journal.h"

namespace fedsc {

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
  std::vector<int64_t> pooled_column(static_cast<size_t>(samples.cols()), -1);
  for (size_t k = 0; k < validation.kept.size(); ++k) {
    pooled_column[static_cast<size_t>(validation.kept[k])] =
        total_samples_ + static_cast<int64_t>(k);
  }
  pooled_column_.push_back(std::move(pooled_column));
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
  FEDSC_ASSIGN_OR_RETURN(CentralPool pool,
                         PoolAndScreen(uploads_, options_, -1));
  screened_ = pool.screened;
  FEDSC_ASSIGN_OR_RETURN(
      CentralSolution central,
      SolveCentral(std::move(pool), num_clusters_, num_devices(), options_,
                   -1));
  // Screened devices' samples keep the failed-device sentinel.
  sample_labels_.assign(static_cast<size_t>(total_samples_),
                        FedScResult::kFailedDeviceLabel);
  size_t next = 0;
  for (size_t z = 0; z < uploads_.size(); ++z) {
    if (screened_[z]) continue;
    for (int64_t c : pooled_column_[z]) {
      if (c >= 0) sample_labels_[static_cast<size_t>(c)] = central.labels[next++];
    }
  }
  clustered_ = true;
  return Status::OK();
}

Result<std::vector<int64_t>> FedScServer::AssignmentsFor(int64_t id) const {
  if (id < 0 || id >= num_devices()) {
    return Status::InvalidArgument("unknown device id " + std::to_string(id));
  }
  if (!clustered_) {
    return Status::FailedPrecondition("Cluster() has not run");
  }
  if (screened(id)) {
    return Status::InvalidArgument(
        "device " + std::to_string(id) +
        " was screened by the Byzantine defense; its samples were excluded "
        "from the central clustering");
  }
  std::vector<int64_t> assignments;
  for (int64_t c : pooled_column_[static_cast<size_t>(id)]) {
    assignments.push_back(c < 0 ? FedScResult::kFailedDeviceLabel
                                : sample_labels_[static_cast<size_t>(c)]);
  }
  return assignments;
}

}  // namespace fedsc
