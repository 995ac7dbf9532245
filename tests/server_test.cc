// Tests for the stateful client/server API (core/server.h) and the
// differential-privacy uplink (fed/privacy.h).

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/journal.h"
#include "core/server.h"
#include "data/synthetic.h"
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

  // Out-of-range assignments (e.g. a leaked failed-device sentinel) are
  // rejected instead of silently labeling points -1.
  std::vector<int64_t> negative(static_cast<size_t>(client.num_samples()),
                                0);
  negative.back() = -1;
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
  EXPECT_EQ(server.num_devices(), 1);
  EXPECT_EQ(server.quarantined_samples(), 3);
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
