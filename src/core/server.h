// Stateful client/server API for Fed-SC.
//
// Real deployments have devices that come and go: each FedScClient runs
// Algorithm 2 on its own data and produces an upload; the FedScServer takes
// uploads in and (re-)clusters on demand, handing every client back the
// assignments for its samples. Adding a device and re-clustering costs one
// more central solve — the local phases of the other devices are never
// repeated.
//
// FedScServer is the protocol's only server. RunFedSc() (core/fedsc.h)
// drives one over a FederatedDataset, feeding it every device's channel
// outcome or local failure, so upload validation and quarantine, the
// per-device DeviceReport ledger, the Byzantine screen and the central
// solve exist once. The participation quorum is the caller's: CheckQuorum
// over reports(), between Screen() and Cluster().
//
// Re-clustering is warm, so a call's labels depend on the call history.
// After a successful Cluster() on the exact SSC path the server keeps that
// solve's final C (its nonzeros), scaled dual U (dense N x N) and rho. The
// next Cluster() starts SSC-ADMM from them (Boyd et al.'s warm start): each
// pooled column, keyed by (device id, accepted column), continues its
// column and atom of the last solve, and columns new to the pool (late
// joiners, devices the last screen dropped) start from zero. The stopping
// rule, rho balancing and max_iterations are the cold solve's, so the
// result differs from a fresh server's on the same pool only within the
// ADMM stopping tolerance, and labels can move by that much. Results stay
// deterministic: servers fed the same call sequence return bit-identical
// labels for any thread count. A failed call, the sketched path, a central
// method other than SSC and affine SSC drop the stored iterate, so the next
// call starts cold. For a result with no history, make a new server;
// RunFedSc makes one call on a fresh server.

#ifndef FEDSC_CORE_SERVER_H_
#define FEDSC_CORE_SERVER_H_

#include <cstdint>
#include <vector>

#include "core/fedsc.h"
#include "sc/ssc_admm.h"

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

// A central solve: the unscreened accepted columns in device order, the
// device and server label of each, and what the labels came from: the
// affinity W over them (exact path) or the d x N landmark coefficients
// (sketched path; LandmarkAffinity builds their W on demand).
struct CentralSolution {
  Matrix samples;
  std::vector<int64_t> sample_device;
  std::vector<int64_t> labels;
  SparseMatrix affinity;
  SparseMatrix landmark_coefficients;
};

// The coordinator: takes uploads in, clusters them into num_clusters groups
// with the central method, and serves per-device assignments.
class FedScServer {
 public:
  // `ambient_dim` is the federation's D when the caller knows it; with -1
  // the first accepted upload fixes it.
  FedScServer(int64_t num_clusters, FedScOptions options,
              int64_t ambient_dim = -1);

  // Intake. Every call consumes the next device id (arrival order), appends
  // that device's DeviceReport and journals its fate, rejected or not.
  // Columns that fail validation (FedScOptions::validation) are quarantined;
  // an upload with no valid column, or the wrong ambient dimension, is
  // rejected with a typed Status. An accepted upload invalidates any
  // previous screen and clustering.
  Result<int64_t> AddUpload(const Matrix& samples);
  // Decodes a wire message (fed/wire.h) first; malformed bytes quarantine
  // the device with kWireCorrupt (never a crash or out-of-bounds read).
  Result<int64_t> AddEncodedUpload(const std::vector<uint8_t>& wire);
  // A Channel::UplinkWithRetry outcome, on its attempts and simulated clock:
  // undelivered is dropped, or quarantined when the bytes arrived but failed
  // to decode (kWireCorrupt).
  Result<int64_t> AddUplink(const UplinkOutcome& outcome);
  // A device whose local phase failed with `status`.
  int64_t AddLocalError(const Status& status);

  int64_t num_devices() const { return static_cast<int64_t>(reports_.size()); }
  // Accepted columns, screened devices' included.
  int64_t total_samples() const { return total_samples_; }
  // Delivered columns rejected by validation.
  int64_t quarantined_samples() const { return quarantined_samples_; }
  int64_t participating_devices() const { return Count(DeviceOutcome::kOk); }
  int64_t screened_devices() const { return Count(DeviceOutcome::kScreened); }
  // One report per device id, with the last Screen()'s verdicts.
  const std::vector<DeviceReport>& reports() const { return reports_; }

  // With options.defense enabled, screens the pooled accepted columns: a
  // screened device's report turns kScreened (journaled defense_screened at
  // `sim_ms`). Cluster() runs it first; call it directly to act between the
  // screen and the solve, as RunFedSc's quorum does. Idempotent until the
  // next accepted upload, like Cluster().
  Status Screen(int64_t sim_ms = -1);

  // Screen(), then clusters the unscreened columns, journaling
  // central_start/central_finish at `sim_ms` (InvalidArgument for
  // num_clusters < 1, FailedPrecondition for fewer samples than clusters).
  // TSC's q rule counts every device id as Z. Applies no quorum.
  Status Cluster(int64_t sim_ms = -1);

  // Device `id`'s assignments: one per *uploaded* column, in upload order,
  // kFailedDeviceLabel at quarantined columns. Requires a successful
  // Cluster() since the last accepted upload; a device rejected at intake
  // or screened gets a typed error. `solved_column`, when set, receives each
  // uploaded column's column in solution() (-1 where none).
  Result<std::vector<int64_t>> AssignmentsFor(
      int64_t id, std::vector<int64_t>* solved_column = nullptr) const;

  bool screened(int64_t id) const {
    return id >= 0 && id < num_devices() &&
           reports_[static_cast<size_t>(id)].outcome ==
               DeviceOutcome::kScreened;
  }

  // The last successful Cluster()'s solve.
  const CentralSolution& solution() const { return solution_; }
  // Moves that solve out instead of copying it. The server then counts as
  // not clustered: AssignmentsFor fails until the next Cluster(), which
  // keeps the stored warm start.
  CentralSolution TakeSolution();

 private:
  // The one intake; `received` is null when nothing was delivered.
  Result<int64_t> Intake(const Matrix* received, const Status& status,
                         int attempts, int64_t sim_ms);
  // Marks the newest report `outcome` and journals it; returns `status`.
  Status Reject(DeviceOutcome outcome, Status status, int64_t sim_ms);
  int64_t Count(DeviceOutcome outcome) const;
  // The accepted columns of every kOk device, in id order.
  void Pool(Matrix* samples, std::vector<int64_t>* device) const;

  int64_t num_clusters_;
  FedScOptions options_;
  int64_t ambient_dim_;
  std::vector<DeviceReport> reports_;
  // Per device id: its accepted columns and the upload column of each.
  std::vector<Matrix> uploads_;
  std::vector<std::vector<int64_t>> kept_;
  int64_t total_samples_ = 0;
  int64_t quarantined_samples_ = 0;
  bool screen_current_ = false;
  bool clustered_ = false;
  CentralSolution solution_;
  // The last exact SSC solve's final iterate over solution()'s columns, or
  // empty when the next Cluster() starts cold.
  SscAdmmIterate warm_;
  // Per device id: solution() column of its first accepted one, or -1.
  std::vector<int64_t> solved_offset_;
};

// The participation quorum, over a round's device reports: journals
// quorum_reached, or quorum_missed and returns kQuorumNotMet naming every
// failed device, when fewer than `quorum` of the reports are kOk. Screened
// devices count against it like rejected ones.
Status CheckQuorum(const std::vector<DeviceReport>& reports, double quorum,
                   int64_t sim_ms);

}  // namespace fedsc

#endif  // FEDSC_CORE_SERVER_H_
