// Stateful client/server API for Fed-SC.
//
// RunFedSc() drives the whole one-shot protocol over a FederatedDataset in
// one call, which suits experiments. Real deployments have devices that come
// and go: each FedScClient runs Algorithm 2 on its own data and produces an
// upload; the FedScServer accumulates uploads and (re-)clusters on demand,
// handing every client back the assignments for its samples. Adding a device
// and re-clustering costs one more central solve — the local phases of the
// other devices are never repeated.
// Both paths run the same Phase 2 (PoolAndScreen + SolveCentral) and Phase
// 3 (RelabelPoints) from core/fedsc.h, so the same uploads get the same
// labels; quorum, the channel model, and DeviceReports stay RunFedSc's.

#ifndef FEDSC_CORE_SERVER_H_
#define FEDSC_CORE_SERVER_H_

#include <cstdint>
#include <vector>

#include "core/fedsc.h"

namespace fedsc {

// One device: owns its raw points, runs local clustering + sampling once,
// and translates server assignments into point labels.
class FedScClient {
 public:
  // `points` are this device's raw data columns; `seed` drives every local
  // random choice.
  FedScClient(Matrix points, FedScOptions options, uint64_t seed);

  // Algorithm 2: cluster locally, estimate bases, draw samples, then
  // ReleaseUpload (the Gaussian mechanism when options.use_dp). Idempotent
  // (the local phase is cached; the release is seeded).
  Result<Matrix> ProduceUpload();

  // ProduceUpload() serialized with `codec` (fed/codec.h): the byte stream
  // a real transport would carry to FedScServer::AddEncodedUpload.
  Result<std::vector<uint8_t>> ProduceEncodedUpload(
      const CodecOptions& codec = {});

  // Number of samples this client uploads (valid after ProduceUpload).
  int64_t num_samples() const { return local_.samples.cols(); }

  // Phase 3 (RelabelPoints): map per-sample assignments (one per uploaded
  // sample, in upload order; FedScResult::kFailedDeviceLabel where the
  // server did not cluster it) to per-point labels. Rejects vectors whose
  // length mismatches num_samples() or that hold a value below -1.
  Result<std::vector<int64_t>> ApplyAssignments(
      const std::vector<int64_t>& sample_assignments) const;

  const LocalClusteringOutput& local() const { return local_; }

 private:
  Matrix points_;
  FedScOptions options_;
  uint64_t seed_;
  bool ran_ = false;
  LocalClusteringOutput local_;
};

// The coordinator: accumulates uploads, clusters them into num_clusters
// groups with the central method (TSC's q rule counts the registered
// devices as Z), and serves per-device assignments.
class FedScServer {
 public:
  FedScServer(int64_t num_clusters, FedScOptions options);

  // Registers one device's upload; returns the device's id. Invalidates any
  // previous clustering. Sample columns that fail validation
  // (FedScOptions::validation — non-finite values, norms far off the unit
  // sphere) are quarantined rather than registered; an upload with no valid
  // column (or the wrong ambient dimension) is rejected with a typed
  // Status.
  Result<int64_t> AddUpload(const Matrix& samples);

  // AddUpload over a serialized wire message (fed/wire.h): decodes with the
  // self-describing codec recorded in the message's header, then registers
  // the reconstructed samples. Malformed bytes are rejected with the typed
  // kWireCorrupt status (never a crash or out-of-bounds read).
  Result<int64_t> AddEncodedUpload(const std::vector<uint8_t>& wire);

  int64_t num_devices() const { return static_cast<int64_t>(uploads_.size()); }
  int64_t total_samples() const { return total_samples_; }
  // Sample columns rejected by AddUpload validation since construction.
  int64_t quarantined_samples() const { return quarantined_samples_; }

  // (Re-)clusters all registered samples with PoolAndScreen + SolveCentral
  // (typed errors: InvalidArgument for num_clusters < 1, FailedPrecondition
  // for fewer unscreened samples than clusters). Idempotent until the next
  // AddUpload.
  Status Cluster();

  // Assignments for device `id`: one per *uploaded* column, in upload
  // order, kFailedDeviceLabel at the columns validation quarantined.
  // Requires a successful Cluster() since the last AddUpload. A device
  // screened by the Byzantine defense (FedScOptions::defense) gets a typed
  // error instead — its samples never entered the central solve.
  Result<std::vector<int64_t>> AssignmentsFor(int64_t id) const;

  // True when the last Cluster() screened device `id` (always false with
  // the defense disabled or before Cluster() ran).
  bool screened(int64_t id) const {
    return id >= 0 && id < static_cast<int64_t>(screened_.size()) &&
           screened_[static_cast<size_t>(id)];
  }

  // The full pooled clustering: one label per accepted sample, in
  // registration order (the sentinel for screened devices' samples).
  const std::vector<int64_t>& sample_labels() const { return sample_labels_; }

 private:
  int64_t num_clusters_;
  FedScOptions options_;
  int64_t ambient_dim_ = -1;
  std::vector<Matrix> uploads_;  // accepted columns per device
  // Per device and uploaded column: its column in the pool (and so in
  // sample_labels_), or -1 when validation quarantined it.
  std::vector<std::vector<int64_t>> pooled_column_;
  int64_t total_samples_ = 0;
  int64_t quarantined_samples_ = 0;
  bool clustered_ = false;
  std::vector<bool> screened_;
  std::vector<int64_t> sample_labels_;
};

}  // namespace fedsc

#endif  // FEDSC_CORE_SERVER_H_
