// Tests for the stateful client/server API (core/server.h) and the
// differential-privacy uplink (fed/privacy.h).

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/journal.h"
#include "common/metrics.h"
#include "core/server.h"
#include "data/synthetic.h"
#include "fed/codec.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/partition.h"
#include "fed/privacy.h"
#include "linalg/blas.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

struct Federation {
  Dataset data;
  FederatedDataset fed;
};

Federation MakeFederation(int64_t num_subspaces, int64_t per_subspace,
                          int64_t num_devices, int64_t clusters_per_device,
                          uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = 24;
  options.subspace_dim = 3;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = num_devices;
  partition.clusters_per_device = clusters_per_device;
  partition.seed = seed ^ 0x1234;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return {std::move(data).value(), std::move(fed).value()};
}

// Phase 3 spelled out: every point takes the assignment of the first
// sample (in upload order) of its local cluster that the server clustered,
// or the sentinel when there is none.
std::vector<int64_t> FirstClusteredSampleRule(
    const LocalClusteringOutput& local,
    const std::vector<int64_t>& assignments) {
  std::vector<int64_t> labels;
  for (int64_t t : local.partition) {
    int64_t label = FedScResult::kFailedDeviceLabel;
    for (size_t s = 0; s < assignments.size(); ++s) {
      if (local.sample_cluster[s] == t &&
          assignments[s] != FedScResult::kFailedDeviceLabel) {
        label = assignments[s];
        break;
      }
    }
    labels.push_back(label);
  }
  return labels;
}

TEST(FedScServerTest, MatchesBatchPipelineQuality) {
  Federation f = MakeFederation(5, 60, 12, 2, 301);
  FedScOptions options;

  FedScServer server(5, options);
  std::vector<FedScClient> clients;
  clients.reserve(static_cast<size_t>(f.fed.num_devices()));
  std::vector<int64_t> ids;
  Rng rng(77);
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    clients.emplace_back(f.fed.points[static_cast<size_t>(z)], options,
                         rng.Next());
    auto upload = clients.back().ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    auto id = server.AddUpload(*upload);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(server.Cluster().ok());

  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(f.fed.num_devices()));
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    auto assignments = server.AssignmentsFor(ids[static_cast<size_t>(z)]);
    ASSERT_TRUE(assignments.ok());
    auto labels =
        clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
    ASSERT_TRUE(labels.ok());
    device_labels[static_cast<size_t>(z)] = std::move(labels).value();
  }
  const auto global = f.fed.ToGlobalOrder(device_labels);
  EXPECT_GE(ClusteringAccuracy(f.data.labels, global), 98.0);
}

TEST(FedScServerTest, CentralStartJournalsTheRealMethod) {
  // The server runs any central method; its ledger names that method
  // instead of recording every non-SSC one as "tsc".
  // Clients validate the whole option set, which names SSC or TSC only.
  Federation f = MakeFederation(3, 30, 6, 2, 307);
  const FedScOptions client_options;
  FedScOptions options;
  options.central_method = ScMethod::kSscOmp;
  FedScServer server(3, options);
  Rng rng(79);
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    FedScClient client(f.fed.points[static_cast<size_t>(z)], client_options,
                       rng.Next());
    auto upload = client.ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    ASSERT_TRUE(server.AddUpload(*upload).ok());
  }
  ResetJournal();
  EnableJournal(true);
  const Status status = server.Cluster();
  const std::vector<JournalEvent> events = SnapshotJournal();
  EnableJournal(false);
  ASSERT_TRUE(status.ok()) << status.ToString();
  int64_t starts = 0;
  for (const JournalEvent& event : events) {
    if (event.type != "central_start") continue;
    ++starts;
    for (const auto& [key, value] : event.fields) {
      if (key == "method") {
        EXPECT_EQ(value, "\"sscomp\"");
      }
    }
  }
  EXPECT_EQ(starts, 1);
}

TEST(FedScServerTest, IncrementalDevicesReclusterCorrectly) {
  Federation f = MakeFederation(4, 60, 10, 2, 303);
  FedScOptions options;
  FedScServer server(4, options);

  // First half of the federation only: not enough subspace coverage is
  // possible, but the server still clusters what it has.
  std::vector<FedScClient> clients;
  Rng rng(88);
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    clients.emplace_back(f.fed.points[static_cast<size_t>(z)], options,
                         rng.Next());
  }
  for (int64_t z = 0; z < 5; ++z) {
    auto upload = clients[static_cast<size_t>(z)].ProduceUpload();
    ASSERT_TRUE(upload.ok());
    ASSERT_TRUE(server.AddUpload(*upload).ok());
  }
  ASSERT_TRUE(server.Cluster().ok());
  const int64_t samples_before = server.total_samples();

  // Late joiners invalidate the clustering; re-cluster covers them too.
  for (int64_t z = 5; z < f.fed.num_devices(); ++z) {
    auto upload = clients[static_cast<size_t>(z)].ProduceUpload();
    ASSERT_TRUE(upload.ok());
    ASSERT_TRUE(server.AddUpload(*upload).ok());
  }
  EXPECT_FALSE(server.AssignmentsFor(7).ok());  // stale until Cluster()
  ASSERT_TRUE(server.Cluster().ok());
  EXPECT_GT(server.total_samples(), samples_before);

  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(f.fed.num_devices()));
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    auto assignments = server.AssignmentsFor(z);
    ASSERT_TRUE(assignments.ok());
    auto labels =
        clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
    ASSERT_TRUE(labels.ok());
    device_labels[static_cast<size_t>(z)] = std::move(labels).value();
  }
  const auto global = f.fed.ToGlobalOrder(device_labels);
  EXPECT_GE(ClusteringAccuracy(f.data.labels, global), 95.0);
}

TEST(FedScServerTest, Validation) {
  FedScOptions options;
  FedScServer server(3, options);
  EXPECT_FALSE(server.AddUpload(Matrix(4, 0)).ok());   // empty upload
  EXPECT_FALSE(server.Cluster().ok());                 // no samples yet
  Matrix upload(4, 2);
  upload(0, 0) = 1.0;
  upload(1, 1) = 1.0;
  ASSERT_TRUE(server.AddUpload(upload).ok());
  EXPECT_FALSE(server.AddUpload(Matrix(5, 2)).ok());   // dimension mismatch
  EXPECT_FALSE(server.AssignmentsFor(0).ok());         // not clustered
  EXPECT_FALSE(server.AssignmentsFor(9).ok());         // unknown id

  // Told the federation's D, the server rejects a wrong-dimension first
  // upload instead of adopting its D.
  Matrix wrong(5, 2);
  wrong(0, 0) = 1.0;
  wrong(1, 1) = 1.0;
  FedScServer known(3, options, 4);
  EXPECT_FALSE(known.AddUpload(wrong).ok());
  EXPECT_TRUE(known.AddUpload(upload).ok());
}

TEST(FedScClientTest, AssignmentsValidation) {
  // Correlated points (mutually orthogonal data would make SSC degenerate).
  Rng rng(21);
  const Matrix basis = RandomOrthonormalBasis(6, 2, &rng);
  Matrix coeffs(2, 4);
  for (int64_t j = 0; j < 4; ++j) {
    coeffs(0, j) = rng.Gaussian();
    coeffs(1, j) = rng.Gaussian();
  }
  const Matrix points = MatMul(basis, coeffs);
  FedScClient client(points, FedScOptions{}, 5);
  EXPECT_FALSE(client.ApplyAssignments({0}).ok());  // before ProduceUpload
  ASSERT_TRUE(client.ProduceUpload().ok());
  std::vector<int64_t> wrong_size(
      static_cast<size_t>(client.num_samples() + 1), 0);
  EXPECT_FALSE(client.ApplyAssignments(wrong_size).ok());

  // The failed-device sentinel marks a sample the server did not cluster:
  // the relabel rule skips it instead of rejecting the vector.
  std::vector<int64_t> negative(static_cast<size_t>(client.num_samples()),
                                0);
  negative.back() = FedScResult::kFailedDeviceLabel;
  auto relabeled = client.ApplyAssignments(negative);
  ASSERT_TRUE(relabeled.ok()) << relabeled.status().ToString();
  EXPECT_EQ(*relabeled, FirstClusteredSampleRule(client.local(), negative));

  // Anything below the sentinel is out of range.
  negative.back() = -2;
  auto rejected = client.ApplyAssignments(negative);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  std::vector<int64_t> valid(static_cast<size_t>(client.num_samples()), 0);
  EXPECT_TRUE(client.ApplyAssignments(valid).ok());
}

TEST(FedScServerTest, AddUploadQuarantinesCorruptColumns) {
  FedScOptions options;
  FedScServer server(2, options);
  Matrix upload(4, 3);
  upload(0, 0) = 1.0;                                      // honest
  upload(1, 1) = std::numeric_limits<double>::quiet_NaN();  // corrupt
  upload(2, 2) = 1.0;                                      // honest
  auto id = server.AddUpload(upload);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(server.total_samples(), 2);
  EXPECT_EQ(server.quarantined_samples(), 1);

  // An upload with no valid column at all is rejected outright.
  Matrix hopeless(4, 2);
  hopeless(0, 0) = std::numeric_limits<double>::infinity();
  hopeless(0, 1) = 1e9;  // far outside the norm acceptance bounds
  auto rejected = server.AddUpload(hopeless);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // The rejected upload still consumed a device id and left a report.
  EXPECT_EQ(server.num_devices(), 2);
  EXPECT_EQ(server.reports()[1].outcome, DeviceOutcome::kQuarantined);
  EXPECT_EQ(server.quarantined_samples(), 3);
}

// Every intake consumes its own id, so a rejected upload and the next
// accepted one are journaled under different devices, and the rejected id
// serves a typed error rather than another device's assignments.
TEST(FedScServerTest, RejectedUploadConsumesItsOwnId) {
  Federation f = MakeFederation(2, 30, 4, 2, 337);
  FedScServer server(2, FedScOptions{});
  std::vector<FedScClient> clients;
  Rng rng(101);
  for (const Matrix& points : f.fed.points) {
    clients.emplace_back(points, FedScOptions{}, rng.Next());
  }
  ResetJournal();
  EnableJournal(true);
  std::vector<int64_t> accepted_ids;
  for (size_t z = 0; z < clients.size(); ++z) {
    auto upload = clients[z].ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    auto id = server.AddUpload(*upload);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    accepted_ids.push_back(*id);
    if (z == 0) {
      Matrix hopeless(upload->rows(), 1);
      hopeless(0, 0) = std::numeric_limits<double>::quiet_NaN();
      EXPECT_FALSE(server.AddUpload(hopeless).ok());
    }
  }
  const std::vector<JournalEvent> events = SnapshotJournal();
  EnableJournal(false);
  EXPECT_EQ(accepted_ids, (std::vector<int64_t>{0, 2, 3, 4}));
  ASSERT_EQ(server.num_devices(), 5);

  std::set<int64_t> journaled;
  for (const JournalEvent& event : events) {
    if (event.type != "accepted" && event.type != "quarantined") continue;
    EXPECT_TRUE(journaled.insert(event.device).second)
        << event.type << " reuses device id " << event.device;
    EXPECT_EQ(event.type == "quarantined", event.device == 1);
  }
  EXPECT_EQ(journaled.size(), 5u);

  ASSERT_TRUE(server.Cluster().ok());
  auto rejected = server.AssignmentsFor(1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  for (size_t z = 0; z < clients.size(); ++z) {
    auto assignments = server.AssignmentsFor(accepted_ids[z]);
    ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
    EXPECT_TRUE(clients[z].ApplyAssignments(*assignments).ok());
  }
}

TEST(FedScServerTest, NonPositiveClusterCountIsATypedError) {
  Federation f = MakeFederation(3, 30, 6, 2, 311);
  for (int64_t clusters : {int64_t{0}, int64_t{-2}}) {
    FedScServer server(clusters, FedScOptions{});
    Rng rng(83);
    for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
      FedScClient client(f.fed.points[static_cast<size_t>(z)], FedScOptions{},
                         rng.Next());
      auto upload = client.ProduceUpload();
      ASSERT_TRUE(upload.ok()) << upload.status().ToString();
      ASSERT_TRUE(server.AddUpload(*upload).ok());
    }
    const Status status = server.Cluster();
    ASSERT_FALSE(status.ok()) << "num_clusters " << clusters;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(server.AssignmentsFor(0).ok());
  }
}

// The federation plus one device whose points live in a subspace no other
// device shares: its uploads have no cross-device support, so the defense
// screens it.
FederatedDataset WithLonelyDevice(FederatedDataset fed, uint64_t seed) {
  Rng rng(seed);
  const Matrix basis = RandomOrthonormalBasis(fed.ambient_dim, 3, &rng);
  Matrix coeffs(3, 20);
  for (int64_t j = 0; j < coeffs.cols(); ++j) {
    for (int64_t i = 0; i < 3; ++i) coeffs(i, j) = rng.Gaussian();
  }
  fed.points.push_back(MatMul(basis, coeffs));
  fed.labels.emplace_back(20, fed.num_clusters);
  std::vector<int64_t> index;
  for (int64_t j = 0; j < 20; ++j) index.push_back(fed.total_points + j);
  fed.global_index.push_back(std::move(index));
  fed.total_points += 20;
  fed.num_clusters += 1;
  return fed;
}

// The server-side events both paths emit: the defense screen, the quorum
// verdict and the central solve.
std::vector<JournalEvent> CentralEvents(const std::vector<JournalEvent>& all) {
  std::vector<JournalEvent> central;
  for (const JournalEvent& event : all) {
    if (event.type == "central_start" || event.type == "central_finish" ||
        event.type == "defense_screened" || event.type == "quorum_reached" ||
        event.type == "quorum_missed") {
      central.push_back(event);
    }
  }
  return central;
}

// The federation with one extra ambient row on device 0's points, so its
// uploads carry the wrong dimension the way PayloadFault::kCorruptDim's do
// (the fault plan's corruption cycle starts at kTruncate, so it never
// schedules kCorruptDim on device 0).
FederatedDataset WithWrongDimFirstDevice(FederatedDataset fed, uint64_t seed) {
  Rng rng(seed);
  const Matrix& points = fed.points[0];
  Matrix wrong(points.rows() + 1, points.cols());
  for (int64_t j = 0; j < points.cols(); ++j) {
    for (int64_t i = 0; i < points.rows(); ++i) wrong(i, j) = points(i, j);
    wrong(points.rows(), j) = rng.Gaussian();
  }
  fed.points[0] = std::move(wrong);
  return fed;
}

// RunFedSc runs through one FedScServer: seeded the way RunFedSc seeds its
// devices, a hand-written FedScClient -> Channel::UplinkWithRetry ->
// FedScServer loop returns exactly RunFedSc's device reports and labels
// (not merely the same partition up to a permutation), under faults too,
// and misses the quorum with the same status before any central solve.
TEST(FedScServerTest, BitIdenticalToRunFedSc) {
  const Federation f = MakeFederation(4, 40, 10, 2, 313);
  const FederatedDataset lonely = WithLonelyDevice(f.fed, 17);
  const FederatedDataset wrong_dim = WithWrongDimFirstDevice(f.fed, 19);
  struct Config {
    std::string name;
    ScMethod method = ScMethod::kSsc;
    bool defense = false;
    CentralPath path = CentralPath::kExact;
    bool dp = false;
    FaultPlanOptions faults;
    int max_attempts = 1;
    double quorum = 0.5;  // the screened device counts against it
    const FederatedDataset* fed = nullptr;  // default: f.fed, lonely with
                                            // the defense
  };
  std::vector<Config> configs;
  const auto add = [&](std::string name) -> Config& {
    configs.emplace_back().name = std::move(name);
    return configs.back();
  };
  for (ScMethod method : {ScMethod::kSsc, ScMethod::kTsc}) {
    for (bool defense : {false, true}) {
      for (CentralPath path : {CentralPath::kExact, CentralPath::kSketched}) {
        Config& c = add(std::string(ScMethodKey(method)) +
                        (defense ? " defended " : " ") +
                        CentralPathName(path));
        c.method = method;
        c.defense = defense;
        c.path = path;
      }
    }
  }
  // Both paths release their uploads through the same Gaussian mechanism.
  add("dp").dp = true;
  add("dropout").faults.dropout_rate = 0.3;
  Config& transient = add("transient with retries");
  transient.faults.transient_rate = 0.6;
  transient.max_attempts = 3;
  // The corruption cycle runs truncate, duplicate, NaN, dim, norm.
  Config& corrupt = add("payload corruption");
  corrupt.faults.corrupt_rate = 0.6;
  corrupt.faults.seed = 7;
  add("wire corruption").faults.wire_corrupt_rate = 0.3;
  Config& screened = add("quorum missed by screening alone");
  screened.defense = true;
  screened.quorum = 1.0;
  add("wrong-dimension first upload").fed = &wrong_dim;
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    const FederatedDataset& fed =
        c.fed != nullptr ? *c.fed : c.defense ? lonely : f.fed;
    FedScOptions options;
    options.central_method = c.method;
    options.central = c.path;
    options.central_sketch.dim = 10;
    options.defense.enabled = c.defense;
    options.use_dp = c.dp;
    options.faults = c.faults;
    options.retry.max_attempts = c.max_attempts;
    options.quorum = c.quorum;
    // Threads the screen and the central solve (ci_tsan.sh runs this
    // suite); labels are bit-identical for any thread count.
    options.num_threads = 2;

    ResetJournal();
    EnableJournal(true);
    auto batch = RunFedSc(fed, 4, options);
    const std::vector<JournalEvent> batch_events =
        CentralEvents(SnapshotJournal());

    ResetJournal();
    FedScServer server(4, options, fed.ambient_dim);
    Channel channel(options.channel);
    auto plan = FaultPlan::Create(fed.num_devices(), options.faults);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<FedScClient> clients;
    clients.reserve(static_cast<size_t>(fed.num_devices()));
    Rng rng(options.seed);
    for (int64_t z = 0; z < fed.num_devices(); ++z) {
      clients.emplace_back(fed.points[static_cast<size_t>(z)], options,
                           rng.Next());
      auto upload = clients.back().ProduceUpload();
      ASSERT_TRUE(upload.ok()) << upload.status().ToString();
      SimClock clock;
      const UplinkOutcome outcome =
          channel.UplinkWithRetry(z, *upload, *plan, options.retry, &clock);
      auto id = server.AddUplink(outcome);
      if (id.ok()) {
        EXPECT_EQ(*id, z);
      }
      EXPECT_EQ(server.num_devices(), z + 1);
    }
    ASSERT_TRUE(server.Screen().ok());
    Status clustered = CheckQuorum(server.reports(), options.quorum, -1);
    if (clustered.ok()) clustered = server.Cluster();
    const std::vector<JournalEvent> server_events =
        CentralEvents(SnapshotJournal());
    EnableJournal(false);

    // The same server-side events and payloads; only the clock differs.
    ASSERT_EQ(server_events.size(), batch_events.size());
    for (size_t e = 0; e < server_events.size(); ++e) {
      EXPECT_EQ(server_events[e].type, batch_events[e].type);
      EXPECT_EQ(server_events[e].device, batch_events[e].device);
      EXPECT_EQ(server_events[e].fields, batch_events[e].fields);
    }

    if (c.quorum == 1.0) {
      ASSERT_FALSE(batch.ok());
      EXPECT_EQ(batch.status().code(), StatusCode::kQuorumNotMet);
      EXPECT_EQ(clustered.ToString(), batch.status().ToString());
      EXPECT_EQ(server.screened_devices(), 1);
      ASSERT_FALSE(batch_events.empty());
      EXPECT_EQ(batch_events.back().type, "quorum_missed");
      continue;
    }
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(clustered.ok()) << clustered.ToString();
    EXPECT_EQ(batch->screened_devices, c.defense ? 1 : 0);
    for (const JournalEvent& event : batch_events) {
      if (event.type != "central_start") continue;
      const std::string want =
          std::string("\"") + CentralPathName(c.path) + "\"";
      EXPECT_EQ(event.fields.back().second, want);
    }

    // One ledger: the server's reports are RunFedSc's.
    ASSERT_EQ(server.reports().size(), batch->device_reports.size());
    std::set<DeviceOutcome> outcomes;
    int64_t retried = 0;
    for (size_t z = 0; z < server.reports().size(); ++z) {
      const DeviceReport& got = server.reports()[z];
      const DeviceReport& want = batch->device_reports[z];
      EXPECT_EQ(got.device, want.device);
      EXPECT_EQ(got.outcome, want.outcome) << "device " << z;
      EXPECT_EQ(got.attempts, want.attempts) << "device " << z;
      EXPECT_EQ(got.uploaded_samples, want.uploaded_samples);
      EXPECT_EQ(got.quarantined_samples, want.quarantined_samples);
      EXPECT_EQ(got.status.ToString(), want.status.ToString());
      EXPECT_EQ(got.screen_statistic, want.screen_statistic);
      outcomes.insert(want.outcome);
      if (want.outcome == DeviceOutcome::kOk && want.attempts > 1) ++retried;
    }
    EXPECT_EQ(server.participating_devices(), batch->participating_devices);
    EXPECT_EQ(server.quarantined_samples(), batch->quarantined_samples);
    // Each faulted config exercises the fault it names.
    if (c.faults.dropout_rate > 0.0) {
      EXPECT_TRUE(outcomes.count(DeviceOutcome::kDropped));
    }
    if (c.faults.transient_rate > 0.0) {
      EXPECT_GT(retried, 0);
    }
    if (c.faults.corrupt_rate > 0.0) {
      std::set<PayloadFault> scheduled;
      for (int64_t z = 0; z < fed.num_devices(); ++z) {
        scheduled.insert(plan->ScheduleFor(z).payload);
      }
      for (PayloadFault fault :
           {PayloadFault::kTruncate, PayloadFault::kDuplicate,
            PayloadFault::kCorruptNan}) {
        EXPECT_TRUE(scheduled.count(fault)) << PayloadFaultName(fault);
      }
    }
    if (c.faults.wire_corrupt_rate > 0.0) {
      EXPECT_TRUE(outcomes.count(DeviceOutcome::kQuarantined));
    }
    if (c.fed == &wrong_dim) {
      // Device 0's D did not become the federation's: it alone is out.
      EXPECT_EQ(batch->device_reports[0].outcome, DeviceOutcome::kQuarantined);
      EXPECT_EQ(batch->participating_devices, fed.num_devices() - 1);
    }

    // The same solved pool: screened devices' samples are absent.
    EXPECT_EQ(server.solution().labels, batch->sample_labels);
    EXPECT_EQ(server.solution().sample_device, batch->sample_device);

    for (int64_t z = 0; z < fed.num_devices(); ++z) {
      const auto zi = static_cast<size_t>(z);
      EXPECT_EQ(server.screened(z), batch->device_reports[zi].outcome ==
                                        DeviceOutcome::kScreened);
      auto assignments = server.AssignmentsFor(z);
      if (batch->device_reports[zi].outcome != DeviceOutcome::kOk) {
        EXPECT_FALSE(assignments.ok());
        for (int64_t label : batch->device_labels[zi]) {
          EXPECT_EQ(label, FedScResult::kFailedDeviceLabel);
        }
        continue;
      }
      ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
      // Aligned to the honest upload: truncated columns take the sentinel,
      // duplicated ones are dropped.
      assignments->resize(static_cast<size_t>(clients[zi].num_samples()),
                          FedScResult::kFailedDeviceLabel);
      auto labels = clients[zi].ApplyAssignments(*assignments);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      EXPECT_EQ(*labels, batch->device_labels[zi]) << "device " << z;
    }
  }
}

// A client upload with one quarantined (NaN) column: the server keeps the
// rest, AssignmentsFor still returns one entry per uploaded column with the
// sentinel at the quarantined one, and the client relabels by the shared
// rule. With one sample per local cluster, the cluster whose only sample
// was quarantined gets the sentinel; with two, a cluster whose first
// sample was quarantined takes its second sample's label.
TEST(FedScServerTest, PartialQuarantineRelabelsByTheSharedRule) {
  Federation f = MakeFederation(4, 40, 8, 3, 317);
  for (int64_t per_cluster : {int64_t{1}, int64_t{2}}) {
    SCOPED_TRACE("samples_per_cluster " + std::to_string(per_cluster));
    FedScOptions options;
    options.samples_per_cluster = per_cluster;
    FedScServer server(4, options);
    std::vector<FedScClient> clients;
    Rng rng(91);
    for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
      clients.emplace_back(f.fed.points[static_cast<size_t>(z)], options,
                           rng.Next());
    }
    auto upload = clients[0].ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    const int64_t uploaded = upload->cols();
    ASSERT_GE(uploaded, 2 * per_cluster) << "device 0 needs two clusters";
    const int64_t poisoned = per_cluster == 1 ? uploaded - 1 : 0;
    (*upload)(0, poisoned) = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(server.AddUpload(*upload).ok());
    EXPECT_EQ(server.quarantined_samples(), 1);
    EXPECT_EQ(server.total_samples(), uploaded - 1);
    for (size_t z = 1; z < clients.size(); ++z) {
      auto honest = clients[z].ProduceUpload();
      ASSERT_TRUE(honest.ok());
      ASSERT_TRUE(server.AddUpload(*honest).ok());
    }
    ASSERT_TRUE(server.Cluster().ok());

    auto assignments = server.AssignmentsFor(0);
    ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
    ASSERT_EQ(static_cast<int64_t>(assignments->size()), uploaded);
    int64_t pooled = 0;
    for (int64_t s = 0; s < uploaded; ++s) {
      const int64_t want =
          s == poisoned
              ? FedScResult::kFailedDeviceLabel
              : server.solution().labels[static_cast<size_t>(pooled++)];
      EXPECT_EQ((*assignments)[static_cast<size_t>(s)], want);
    }
    auto labels = clients[0].ApplyAssignments(*assignments);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    const LocalClusteringOutput& local = clients[0].local();
    EXPECT_EQ(*labels, FirstClusteredSampleRule(local, *assignments));
    const int64_t hit = local.sample_cluster[static_cast<size_t>(poisoned)];
    for (size_t i = 0; i < labels->size(); ++i) {
      if (local.partition[i] != hit) {
        EXPECT_NE((*labels)[i], FedScResult::kFailedDeviceLabel);
      } else if (per_cluster == 1) {
        EXPECT_EQ((*labels)[i], FedScResult::kFailedDeviceLabel);
      } else {
        EXPECT_EQ((*labels)[i], (*assignments)[1]);
      }
    }
  }
}

// Seeded random call sequences against the server state machine: NaN
// columns, wrong dimensions, truncated and bit-flipped wire bytes, and
// duplicated uploads, for num_clusters in {0, 1, 3}. Every call returns a
// Status and nothing aborts; a successful Cluster() serves every unscreened
// device one assignment per uploaded column.
TEST(FedScServerTest, CallSequenceFuzz) {
  Federation f = MakeFederation(3, 30, 6, 2, 331);
  std::vector<Matrix> honest;
  Rng seeds(97);
  for (const Matrix& points : f.fed.points) {
    FedScClient client(points, FedScOptions{}, seeds.Next());
    auto upload = client.ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    honest.push_back(std::move(upload).value());
  }
  const CodecOptions codec;
  for (uint64_t sequence = 0; sequence < 48; ++sequence) {
    Rng rng(1000 + sequence);
    const int64_t clusters = std::vector<int64_t>{0, 1, 3}[sequence % 3];
    FedScOptions options;
    options.defense.enabled = sequence % 2 == 1;
    FedScServer server(clusters, options);
    std::vector<int64_t> uploaded_cols;  // per id; -1 when rejected
    bool clustered = false;
    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " +
                   std::to_string(step));
      Matrix upload = honest[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(honest.size())))];
      const int64_t op = rng.UniformInt(9);
      if (op == 6) {
        const Status status = server.Cluster();
        if (clusters < 1) {
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        }
        clustered = status.ok();
        continue;
      }
      if (op >= 7) {
        const int64_t probe = rng.UniformInt(server.num_devices() + 2) - 1;
        auto assignments = server.AssignmentsFor(probe);
        const bool known = probe >= 0 && probe < server.num_devices();
        if (!known || !clustered || server.screened(probe) ||
            uploaded_cols[static_cast<size_t>(probe)] < 0) {
          EXPECT_FALSE(assignments.ok());
          continue;
        }
        ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
        EXPECT_EQ(static_cast<int64_t>(assignments->size()),
                  uploaded_cols[static_cast<size_t>(probe)]);
        for (int64_t label : *assignments) {
          EXPECT_GE(label, FedScResult::kFailedDeviceLabel);
          EXPECT_LT(label, clusters);
        }
        continue;
      }
      const Result<int64_t> id = [&]() -> Result<int64_t> {
        switch (op) {
          case 0:  // a NaN column
            upload(0, rng.UniformInt(upload.cols())) =
                std::numeric_limits<double>::quiet_NaN();
            return server.AddUpload(upload);
          case 1: {  // wrong ambient dimension
            Matrix wrong(upload.rows() + 1, upload.cols());
            for (int64_t j = 0; j < wrong.cols(); ++j) wrong(0, j) = 1.0;
            upload = std::move(wrong);
            return server.AddUpload(upload);
          }
          case 2: {  // duplicated columns
            std::vector<int64_t> cols;
            for (int64_t j = 0; j < upload.cols(); ++j) {
              cols.push_back(j);
              cols.push_back(j);
            }
            upload = upload.GatherCols(cols);
            return server.AddUpload(upload);
          }
          case 3:    // truncated wire bytes
          case 4: {  // one flipped wire bit
            auto wire = EncodeUpload(upload, codec);
            if (!wire.ok()) return wire.status();
            if (op == 3) {
              wire->resize(static_cast<size_t>(
                  rng.UniformInt(static_cast<int64_t>(wire->size()))));
            } else {
              const auto byte = static_cast<size_t>(
                  rng.UniformInt(static_cast<int64_t>(wire->size())));
              (*wire)[byte] ^= static_cast<uint8_t>(1u << rng.UniformInt(8));
            }
            return server.AddEncodedUpload(*wire);
          }
          default:  // an honest, possibly repeated, upload
            return server.AddUpload(upload);
        }
      }();
      // Every intake consumes the next id, accepted or not.
      EXPECT_EQ(server.num_devices(),
                static_cast<int64_t>(uploaded_cols.size()) + 1);
      if (id.ok()) {
        EXPECT_EQ(*id, static_cast<int64_t>(uploaded_cols.size()));
        uploaded_cols.push_back(upload.cols());
        clustered = false;
      } else {
        EXPECT_FALSE(id.status().message().empty());
        uploaded_cols.push_back(-1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm re-clustering: every Cluster() after the first starts the exact
// SSC-ADMM from the last solve's iterate.

// Every device's upload, produced once by its client.
struct ClientUploads {
  std::vector<FedScClient> clients;
  std::vector<Matrix> uploads;
};

ClientUploads ProduceUploads(const FederatedDataset& fed, uint64_t seed) {
  ClientUploads out;
  out.clients.reserve(static_cast<size_t>(fed.num_devices()));
  Rng rng(seed);
  for (const Matrix& points : fed.points) {
    out.clients.emplace_back(points, FedScOptions{}, rng.Next());
    auto upload = out.clients.back().ProduceUpload();
    EXPECT_TRUE(upload.ok()) << upload.status().ToString();
    out.uploads.push_back(std::move(upload).value());
  }
  return out;
}

// server->Cluster() with the journal on. *warm_columns receives the
// central_start event's warm_columns, or -1 when no solve started.
Status ClusterJournaled(FedScServer* server, int64_t* warm_columns) {
  ResetJournal();
  EnableJournal(true);
  const Status status = server->Cluster();
  const std::vector<JournalEvent> events = SnapshotJournal();
  EnableJournal(false);
  *warm_columns = -1;
  for (const JournalEvent& event : events) {
    if (event.type != "central_start") continue;
    for (const auto& [key, value] : event.fields) {
      if (key == "warm_columns") *warm_columns = std::stoll(value);
    }
  }
  return status;
}

// server->Cluster() with the metrics on: the status, and the ADMM
// iterations and warm starts the call ran.
struct ClusterCost {
  Status status;
  int64_t iterations = 0;
  int64_t warm_starts = 0;
};

ClusterCost ClusterMetered(FedScServer* server) {
  ResetMetrics();
  EnableMetrics(true);
  ClusterCost cost;
  cost.status = server->Cluster();
  EnableMetrics(false);
  const MetricsSnapshot metrics = SnapshotMetrics();
  cost.iterations = metrics.counters.at("sc.ssc_admm.iterations");
  cost.warm_starts = metrics.counters.at("sc.ssc_admm.warm_starts");
  return cost;
}

// ACC of the federation's points under the server's current assignments.
double ServerAccuracy(const FedScServer& server, const Federation& f,
                      const ClientUploads& u) {
  std::vector<std::vector<int64_t>> device_labels;
  for (size_t z = 0; z < u.clients.size(); ++z) {
    auto assignments = server.AssignmentsFor(static_cast<int64_t>(z));
    EXPECT_TRUE(assignments.ok()) << assignments.status().ToString();
    auto labels = u.clients[z].ApplyAssignments(*assignments);
    EXPECT_TRUE(labels.ok()) << labels.status().ToString();
    device_labels.push_back(std::move(labels).value());
  }
  return ClusteringAccuracy(f.data.labels, f.fed.ToGlobalOrder(device_labels));
}

// Two servers fed the same uploads in the same four waves, with Cluster()
// after each, serve bit-identical labels at every call for 1, 2 and 8
// threads; calls 2-4 each start warm.
TEST(FedScServerWarmStartTest, CallSequencesAreBitIdenticalAcrossThreads) {
  const Federation f = MakeFederation(4, 60, 12, 2, 341);
  const ClientUploads u = ProduceUploads(f.fed, 109);
  std::vector<std::vector<int64_t>> reference;
  for (int threads : {1, 2, 8}) {
    for (int copy = 0; copy < 2; ++copy) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " copy " +
                   std::to_string(copy));
      FedScOptions options;
      options.num_threads = threads;
      FedScServer server(4, options);
      std::vector<std::vector<int64_t>> labels;
      for (size_t z = 0; z < u.uploads.size(); ++z) {
        ASSERT_TRUE(server.AddUpload(u.uploads[z]).ok());
        if (z % 3 != 2) continue;
        const ClusterCost cost = ClusterMetered(&server);
        ASSERT_TRUE(cost.status.ok()) << cost.status.ToString();
        EXPECT_EQ(cost.warm_starts, z == 2 ? 0 : 1) << "after device " << z;
        labels.push_back(server.solution().labels);
      }
      if (reference.empty()) reference = labels;
      EXPECT_EQ(labels, reference);
    }
  }
}

// A warm second call on a separable federation runs fewer ADMM iterations
// than a fresh server's cold solve of the same pool, at no lower ACC.
TEST(FedScServerWarmStartTest, WarmCallRunsFewerIterationsAtNoLowerAcc) {
  const Federation f = MakeFederation(5, 60, 16, 2, 343);
  const ClientUploads u = ProduceUploads(f.fed, 113);
  FedScServer warm(5, FedScOptions{});
  for (size_t z = 0; z < u.uploads.size(); ++z) {
    if (z == u.uploads.size() / 2) ASSERT_TRUE(warm.Cluster().ok());
    ASSERT_TRUE(warm.AddUpload(u.uploads[z]).ok());
  }
  const ClusterCost warm_cost = ClusterMetered(&warm);
  ASSERT_TRUE(warm_cost.status.ok()) << warm_cost.status.ToString();
  EXPECT_EQ(warm_cost.warm_starts, 1);

  FedScServer cold(5, FedScOptions{});
  for (const Matrix& upload : u.uploads) {
    ASSERT_TRUE(cold.AddUpload(upload).ok());
  }
  const ClusterCost cold_cost = ClusterMetered(&cold);
  ASSERT_TRUE(cold_cost.status.ok()) << cold_cost.status.ToString();
  EXPECT_EQ(cold_cost.warm_starts, 0);

  EXPECT_LT(warm_cost.iterations, cold_cost.iterations);
  const double warm_acc = ServerAccuracy(warm, f, u);
  EXPECT_GE(warm_acc, ServerAccuracy(cold, f, u));
  EXPECT_GE(warm_acc, 98.0);
}

// Points of `devices` extra devices on one subspace of R^dim that no other
// device shares, `columns` each.
std::vector<Matrix> LonelyUploads(int64_t dim, int64_t devices,
                                  int64_t columns, uint64_t seed) {
  Rng rng(seed);
  const Matrix basis = RandomOrthonormalBasis(dim, 3, &rng);
  std::vector<Matrix> uploads;
  for (int64_t d = 0; d < devices; ++d) {
    Matrix coeffs(3, columns);
    for (int64_t i = 0; i < coeffs.size(); ++i) {
      coeffs.data()[i] = rng.Gaussian();
    }
    Matrix points = MatMul(basis, coeffs);
    points.NormalizeColumns();
    uploads.push_back(std::move(points));
  }
  return uploads;
}

// The accepted columns of the devices kOk at both of two calls: what the
// second call's solve can continue.
int64_t SharedColumns(const std::vector<DeviceReport>& before,
                      const std::vector<DeviceReport>& after) {
  int64_t shared = 0;
  for (size_t z = 0; z < before.size(); ++z) {
    if (before[z].outcome == DeviceOutcome::kOk &&
        after[z].outcome == DeviceOutcome::kOk) {
      shared += after[z].uploaded_samples - after[z].quarantined_samples;
    }
  }
  return shared;
}

// A device the defense screens in call 1 and admits in call 2 (its subspace
// gains enough devices to stop being a minority) joins call 2's solve with
// zeros: only the columns both pools hold start warm.
TEST(FedScServerWarmStartTest, ScreenedThenAdmittedDeviceStartsCold) {
  const Federation f = MakeFederation(4, 40, 10, 2, 347);
  const ClientUploads u = ProduceUploads(f.fed, 127);
  const std::vector<Matrix> lonely =
      LonelyUploads(f.fed.ambient_dim, 6, 6, 131);
  FedScOptions options;
  options.defense.enabled = true;
  FedScServer server(5, options);
  for (const Matrix& upload : u.uploads) {
    ASSERT_TRUE(server.AddUpload(upload).ok());
  }
  auto lonely_id = server.AddUpload(lonely[0]);
  ASSERT_TRUE(lonely_id.ok());
  int64_t warm_columns = 0;
  ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
  EXPECT_EQ(warm_columns, 0);
  ASSERT_TRUE(server.screened(*lonely_id));
  auto refused = server.AssignmentsFor(*lonely_id);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  const int64_t first_pool = server.solution().samples.cols();
  const std::vector<DeviceReport> first = server.reports();

  for (size_t d = 1; d < lonely.size(); ++d) {
    ASSERT_TRUE(server.AddUpload(lonely[d]).ok());
  }
  ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
  EXPECT_FALSE(server.screened(*lonely_id));
  EXPECT_TRUE(server.AssignmentsFor(*lonely_id).ok());
  EXPECT_EQ(warm_columns, SharedColumns(first, server.reports()));
  EXPECT_LE(warm_columns, first_pool);
  EXPECT_LE(warm_columns + 6 * static_cast<int64_t>(lonely.size()),
            server.solution().samples.cols());
}

// Quarantine leaves the stored iterate alone: a rejected upload consumes an
// id and adds no column, and a partly quarantined one adds only its kept
// columns, which start from zero.
TEST(FedScServerWarmStartTest, QuarantinedUploadsAddNoWarmColumns) {
  const Federation f = MakeFederation(4, 40, 10, 2, 349);
  const ClientUploads u = ProduceUploads(f.fed, 137);
  FedScServer server(4, FedScOptions{});
  for (size_t z = 0; z + 1 < u.uploads.size(); ++z) {
    ASSERT_TRUE(server.AddUpload(u.uploads[z]).ok());
  }
  int64_t warm_columns = 0;
  ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
  const int64_t first_pool = server.solution().samples.cols();

  Matrix hopeless(f.fed.ambient_dim, 2);
  hopeless(0, 0) = std::numeric_limits<double>::quiet_NaN();
  hopeless(0, 1) = std::numeric_limits<double>::infinity();
  auto rejected = server.AddUpload(hopeless);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(server.AssignmentsFor(0).ok());  // still clustered

  Matrix partial = u.uploads.back();
  partial(0, 0) = std::numeric_limits<double>::quiet_NaN();
  auto partial_id = server.AddUpload(partial);
  ASSERT_TRUE(partial_id.ok());
  ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
  EXPECT_EQ(warm_columns, first_pool);
  EXPECT_EQ(server.solution().samples.cols(),
            first_pool + partial.cols() - 1);
  auto refused = server.AssignmentsFor(*partial_id - 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  auto assignments = server.AssignmentsFor(*partial_id);
  ASSERT_TRUE(assignments.ok()) << assignments.status().ToString();
  EXPECT_EQ((*assignments)[0], FedScResult::kFailedDeviceLabel);
}

// A failed call drops the stored iterate, so the next call starts cold; a
// pool that crosses to the sketched path starts cold and keeps none.
TEST(FedScServerWarmStartTest, FailedCallAndSketchedPathStartCold) {
  // Every honest point has a zero last coordinate, so a column along that
  // axis is orthogonal to the whole pool: SSC's mutual coherence floor is
  // 0 and the solve fails with a typed status.
  const Federation f = MakeFederation(4, 40, 10, 2, 353);
  const ClientUploads u = ProduceUploads(f.fed, 139);
  const int64_t dim = f.fed.ambient_dim + 1;
  const auto padded = [dim](const Matrix& m) {
    Matrix out(dim, m.cols());
    for (int64_t j = 0; j < m.cols(); ++j) {
      std::copy(m.ColData(j), m.ColData(j) + m.rows(), out.ColData(j));
    }
    return out;
  };
  {
    FedScServer server(4, FedScOptions{});
    for (size_t z = 0; z < 5; ++z) {
      ASSERT_TRUE(server.AddUpload(padded(u.uploads[z])).ok());
    }
    int64_t warm_columns = 0;
    ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
    Matrix axis(dim, 1);
    axis(dim - 1, 0) = 1.0;
    ASSERT_TRUE(server.AddUpload(axis).ok());
    const Status failed = ClusterJournaled(&server, &warm_columns);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kFailedPrecondition);
    EXPECT_GT(warm_columns, 0);  // that call had started warm
    EXPECT_FALSE(server.AssignmentsFor(0).ok());

    Matrix tilted = padded(u.uploads[5]);
    tilted(dim - 1, 0) = 1.0;
    ASSERT_TRUE(server.AddUpload(tilted).ok());
    ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
    EXPECT_EQ(warm_columns, 0);
  }
  {
    // Forced sketch of width 40: exact while the pool has at most 40
    // columns, sketched past it.
    FedScOptions options;
    options.central = CentralPath::kSketched;
    options.central_sketch.dim = 40;
    FedScServer server(4, options);
    size_t z = 0;
    while (server.total_samples() + u.uploads[z].cols() <= 40) {
      ASSERT_TRUE(server.AddUpload(u.uploads[z++]).ok());
    }
    int64_t warm_columns = 0;
    ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
    ASSERT_TRUE(server.AddUpload(u.uploads[z++]).ok());
    ASSERT_GT(server.total_samples(), 40);
    const ClusterCost sketched = ClusterMetered(&server);
    ASSERT_TRUE(sketched.status.ok()) << sketched.status.ToString();
    EXPECT_EQ(sketched.warm_starts, 0);
    ASSERT_TRUE(server.AddUpload(u.uploads[z++]).ok());
    ASSERT_TRUE(ClusterJournaled(&server, &warm_columns).ok());
    EXPECT_EQ(warm_columns, 0);
  }
}

TEST(PrivacyTest, SigmaFormulaAndValidation) {
  DpOptions options;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  options.sensitivity = 2.0;
  auto sigma = GaussianMechanismSigma(options);
  ASSERT_TRUE(sigma.ok());
  EXPECT_NEAR(*sigma, 2.0 * std::sqrt(2.0 * std::log(1.25e5)), 1e-9);

  options.epsilon = 0.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.epsilon = 1.5;  // outside the theorem's regime
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.epsilon = 0.5;
  options.delta = 0.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.delta = 1e-5;
  options.sensitivity = -1.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
}

TEST(PrivacyTest, ClipsAndPerturbsWithRequestedScale) {
  Rng rng(9);
  Matrix samples(2000, 2);
  for (int64_t i = 0; i < 2000; ++i) samples(i, 0) = 0.1;  // norm ~ 4.47 > 1
  DpOptions options;
  options.epsilon = 1.0;
  options.delta = 1e-3;
  options.sensitivity = 2.0;
  auto released = PrivatizeSamples(samples, options, &rng);
  ASSERT_TRUE(released.ok());
  const double sigma = *GaussianMechanismSigma(options);
  // Column 1 was all zeros: its released values are pure noise with
  // variance sigma^2.
  double sum2 = 0.0;
  for (int64_t i = 0; i < 2000; ++i) {
    sum2 += (*released)(i, 1) * (*released)(i, 1);
  }
  EXPECT_NEAR(sum2 / 2000.0, sigma * sigma, 0.1 * sigma * sigma);
}

TEST(PrivacyTest, FedScRunsEndToEndWithDp) {
  Federation f = MakeFederation(3, 40, 8, 2, 307);
  FedScOptions options;
  options.use_dp = true;
  options.dp.epsilon = 1.0;
  options.dp.delta = 1e-5;
  auto result = RunFedSc(f.fed, 3, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With this much noise on 24-dim vectors, utility collapses — the honest
  // privacy-utility tradeoff. The pipeline must still be well-formed.
  EXPECT_EQ(result->global_labels.size(), f.data.labels.size());
  for (int64_t l : result->global_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  // And DP must be deterministic under the same seed.
  auto repeat = RunFedSc(f.fed, 3, options);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(result->global_labels, repeat->global_labels);
}

}  // namespace
}  // namespace fedsc
