#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "linalg/blas.h"
#include "metrics/clustering_metrics.h"
#include "sc/affinity.h"

namespace fedsc {
namespace {

// A well-separated synthetic federation: L subspaces of dimension d in a
// roomy ambient space, partitioned non-IID across Z devices.
struct Federation {
  Dataset data;
  FederatedDataset fed;
};

Federation MakeFederation(int64_t num_subspaces, int64_t per_subspace,
                          int64_t num_devices, int64_t clusters_per_device,
                          uint64_t seed, int64_t ambient = 24,
                          int64_t dim = 3) {
  SyntheticOptions options;
  options.ambient_dim = ambient;
  options.subspace_dim = dim;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = num_devices;
  partition.clusters_per_device = clusters_per_device;
  partition.seed = seed ^ 0xABCDEF;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return {std::move(data).value(), std::move(fed).value()};
}

TEST(LocalClusteringTest, PartitionsTwoSubspacesAndSamplesFromThem) {
  // One device holding points from 2 well-separated subspaces.
  Federation f = MakeFederation(2, 30, 1, 2, 42);
  FedScOptions options;
  auto local = LocalClusterAndSample(f.fed.points[0], options, 7);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->num_local_clusters, 2);
  EXPECT_EQ(ClusteringAccuracy(f.fed.labels[0], local->partition), 100.0);

  // One unit-norm sample per local cluster, lying in the right subspace.
  EXPECT_EQ(local->samples.cols(), 2);
  for (int64_t s = 0; s < 2; ++s) {
    EXPECT_NEAR(Norm2(local->samples.ColData(s), 24), 1.0, 1e-9);
    // Find the ground-truth label of the sample's local cluster.
    const int64_t t = local->sample_cluster[static_cast<size_t>(s)];
    int64_t truth_label = -1;
    for (size_t i = 0; i < local->partition.size(); ++i) {
      if (local->partition[i] == t) {
        truth_label = f.fed.labels[0][i];
        break;
      }
    }
    ASSERT_GE(truth_label, 0);
    const Matrix& basis = f.data.bases[static_cast<size_t>(truth_label)];
    Vector coords = Gemv(Trans::kTrans, basis, local->samples.Col(s));
    Vector reconstructed = Gemv(Trans::kNo, basis, coords);
    Axpy(-1.0, local->samples.ColData(s), reconstructed.data(), 24);
    EXPECT_LT(Norm2(reconstructed.data(), 24), 1e-6)
        << "sample " << s << " not in subspace " << truth_label;
  }
}

// Eq. 5's draw depends on the subspace, not on the basis spanning it:
// flipping column signs or rotating U inside its span leaves every sample
// unchanged to rounding, and the sample is a unit vector in the span.
TEST(LocalClusteringTest, SamplesDependOnlyOnTheSpan) {
  Rng basis_rng(17);
  for (const int64_t d : {1, 2, 4}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const int64_t n = 30;
    const Matrix u = RandomOrthonormalBasis(n, d, &basis_rng);
    Matrix flipped = u;
    for (int64_t j = 0; j < d; j += 2) Scal(-1.0, flipped.ColData(j), n);
    const Matrix q = RandomOrthonormalBasis(d, d, &basis_rng);
    Matrix rotated(n, d);
    Gemm(Trans::kNo, Trans::kNo, 1.0, u, q, 0.0, &rotated);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng a(seed);
      Rng b(seed);
      Rng c(seed);
      const Vector theta = SampleFromSubspace(u, &a);
      const Vector theta_flipped = SampleFromSubspace(flipped, &b);
      const Vector theta_rotated = SampleFromSubspace(rotated, &c);
      EXPECT_NEAR(Norm2(theta.data(), n), 1.0, 1e-12);
      const Vector coords = Gemv(Trans::kTrans, u, theta);
      EXPECT_NEAR(Norm2(coords.data(), d), 1.0, 1e-12);
      for (int64_t i = 0; i < n; ++i) {
        const auto ii = static_cast<size_t>(i);
        EXPECT_NEAR(theta[ii], theta_flipped[ii], 1e-12) << "row " << i;
        EXPECT_NEAR(theta[ii], theta_rotated[ii], 1e-12) << "row " << i;
      }
      // The three draws consumed the same stream.
      const uint64_t next = a.Next();
      EXPECT_EQ(next, b.Next());
      EXPECT_EQ(next, c.Next());
    }
  }
}

TEST(LocalClusteringTest, SinglePointDevice) {
  Matrix one(8, 1);
  one(0, 0) = 2.0;
  auto local = LocalClusterAndSample(one, FedScOptions{}, 3);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->num_local_clusters, 1);
  EXPECT_EQ(local->partition, (std::vector<int64_t>{0}));
  EXPECT_EQ(local->samples.cols(), 1);
  EXPECT_NEAR(Norm2(local->samples.ColData(0), 8), 1.0, 1e-12);
  // With d_t auto-detected, the sample must be +-e_0.
  EXPECT_NEAR(std::fabs(local->samples(0, 0)), 1.0, 1e-9);
}

TEST(LocalClusteringTest, EmptyDevice) {
  auto local = LocalClusterAndSample(Matrix(8, 0), FedScOptions{}, 3);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->num_local_clusters, 0);
  EXPECT_EQ(local->samples.cols(), 0);
}

TEST(LocalClusteringTest, FixedUpperBoundMode) {
  Federation f = MakeFederation(3, 20, 1, 3, 11);
  FedScOptions options;
  options.use_eigengap = false;
  options.max_local_clusters = 3;
  options.sample_dim = 1;
  auto local = LocalClusterAndSample(f.fed.points[0], options, 5);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->num_local_clusters, 3);
  EXPECT_EQ(local->samples.cols(), 3);
  options.max_local_clusters = 0;
  EXPECT_FALSE(LocalClusterAndSample(f.fed.points[0], options, 5).ok());
}

TEST(LocalClusteringTest, MultipleSamplesPerCluster) {
  Federation f = MakeFederation(2, 25, 1, 2, 13);
  FedScOptions options;
  options.samples_per_cluster = 3;
  auto local = LocalClusterAndSample(f.fed.points[0], options, 5);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->samples.cols(), 2 * 3);
  EXPECT_EQ(local->sample_cluster.size(), 6u);
}

TEST(FedScTest, ExactClusteringWithSscServer) {
  Federation f = MakeFederation(6, 60, 12, 2, 17);
  FedScOptions options;
  options.central_method = ScMethod::kSsc;
  auto result = RunFedSc(f.fed, 6, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(ClusteringAccuracy(f.data.labels, result->global_labels), 99.0);
  EXPECT_GE(NormalizedMutualInformation(f.data.labels,
                                        result->global_labels),
            99.0);
}

TEST(FedScTest, ExactClusteringWithTscServer) {
  // TSC needs more devices per subspace (Theorem 2); give it plenty.
  Federation f = MakeFederation(4, 120, 24, 2, 19);
  FedScOptions options;
  options.central_method = ScMethod::kTsc;
  auto result = RunFedSc(f.fed, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(ClusteringAccuracy(f.data.labels, result->global_labels), 97.0);
}

TEST(FedScTest, CommunicationAccountingMatchesSectionIVE) {
  Federation f = MakeFederation(4, 40, 8, 2, 23);
  FedScOptions options;
  auto result = RunFedSc(f.fed, 4, options);
  ASSERT_TRUE(result.ok());
  // Uplink values = n * sum_z r^(z) (with s samples per cluster, s = 1);
  // uplink bits are the true serialized size of each device's wire message
  // (Section IV-E's n * q * r^(z) payload plus the format's framing).
  int64_t total_r = 0;
  int64_t wire_bytes = 0;
  const CodecOptions& codec = options.channel.codec;
  for (int64_t r : result->local_cluster_counts) {
    total_r += r;
    wire_bytes += EncodedWireBytes(24, r, codec);
  }
  EXPECT_EQ(result->total_samples, total_r);
  EXPECT_EQ(result->comm.uplink_values, 24 * total_r);
  EXPECT_EQ(result->comm.uplink_wire_bytes, wire_bytes);
  EXPECT_EQ(result->comm.uplink_bits, 8 * wire_bytes);
  EXPECT_EQ(wire_bytes,
            60 * static_cast<int64_t>(result->local_cluster_counts.size()) +
                8 * 24 * total_r);
  // Downlink: one assignment per sample, log2(L) bits each.
  EXPECT_EQ(result->comm.downlink_values, total_r);
  EXPECT_DOUBLE_EQ(result->comm.downlink_bits,
                   static_cast<double>(total_r) * 2.0);  // log2(4)
  EXPECT_EQ(result->comm.rounds, 1);  // one-shot
  // Timing decomposition T = sum T^(z) + T_c.
  EXPECT_NEAR(result->seconds,
              result->local_seconds + result->central_seconds, 1e-12);
}

TEST(FedScTest, RobustToModerateChannelNoise) {
  Federation f = MakeFederation(4, 60, 10, 2, 29);
  FedScOptions options;
  options.channel.noise_delta = 0.1;
  auto result = RunFedSc(f.fed, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(f.data.labels, result->global_labels), 95.0);
}

TEST(FedScTest, HandlesDevicesSmallerThanSubspaceDim) {
  // More devices than points per cluster: some devices get 1-2 points.
  Federation f = MakeFederation(3, 12, 18, 1, 31);
  auto result = RunFedSc(f.fed, 3, FedScOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->global_labels.size(), f.data.labels.size());
  for (int64_t l : result->global_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
}

TEST(FedScTest, RejectsInvalidOptions) {
  Federation f = MakeFederation(2, 10, 2, 2, 37);
  FedScOptions bad_method;
  bad_method.central_method = ScMethod::kNsn;
  EXPECT_FALSE(RunFedSc(f.fed, 2, bad_method).ok());
  FedScOptions bad_samples;
  bad_samples.samples_per_cluster = 0;
  EXPECT_FALSE(RunFedSc(f.fed, 2, bad_samples).ok());
  EXPECT_FALSE(RunFedSc(f.fed, 0, FedScOptions{}).ok());
  FederatedDataset empty;
  EXPECT_FALSE(RunFedSc(empty, 2, FedScOptions{}).ok());
}

TEST(FedScTest, DeterministicUnderSeed) {
  Federation f = MakeFederation(4, 40, 8, 2, 41);
  FedScOptions options;
  options.seed = 777;
  auto a = RunFedSc(f.fed, 4, options);
  auto b = RunFedSc(f.fed, 4, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->global_labels, b->global_labels);
  EXPECT_TRUE(AllClose(a->samples, b->samples, 0.0));
}

TEST(FedScTest, InducedConnectivityPositiveForHealthyRun) {
  Federation f = MakeFederation(4, 60, 10, 2, 43);
  auto result = RunFedSc(f.fed, 4, FedScOptions{});
  ASSERT_TRUE(result.ok());
  auto conn = InducedConnectivity(f.fed, *result);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_EQ(conn->per_cluster.size(), 4u);
  EXPECT_GT(conn->mean_lambda2, 0.0);
}

// A forced-sketched round over a pool wider than its 16-atom sketch.
Result<FedScResult> SketchedRun(const Federation& f) {
  FedScOptions options;
  options.central = CentralPath::kSketched;
  options.central_sketch.dim = 16;
  return RunFedSc(f.fed, 4, options);
}

TEST(FedScTest, SketchedRunCarriesCoefficientsNotAnAffinity) {
  Federation f = MakeFederation(4, 60, 40, 2, 43);
  auto result = SketchedRun(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->total_samples, 16);
  // No N x N graph is built inside the round; the d x N coefficients the
  // labels came from are carried instead.
  EXPECT_EQ(result->central_affinity.rows(), 0);
  EXPECT_EQ(result->central_affinity.nnz(), 0);
  EXPECT_EQ(result->central_coefficients.rows(), 16);
  EXPECT_EQ(result->central_coefficients.cols(), result->total_samples);
  EXPECT_GT(result->central_coefficients.nnz(), 0);
  const SparseMatrix w = CentralAffinity(*result);
  EXPECT_EQ(w.rows(), result->total_samples);
  EXPECT_LE(w.nnz(), 2 * result->total_samples * kSketchTopQ);
}

TEST(FedScTest, SketchedInducedConnectivityReadsTheLandmarkAffinity) {
  Federation f = MakeFederation(4, 60, 40, 2, 43);
  auto result = SketchedRun(f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto conn = InducedConnectivity(f.fed, *result);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  // The same run carrying the eagerly built top-8 landmark affinity.
  FedScResult eager = *result;
  eager.central_affinity =
      AffinityFromLandmarkCoefficients(result->central_coefficients, 8);
  eager.central_coefficients = SparseMatrix();
  auto eager_conn = InducedConnectivity(f.fed, eager);
  ASSERT_TRUE(eager_conn.ok()) << eager_conn.status().ToString();
  EXPECT_EQ(conn->per_cluster, eager_conn->per_cluster);
  EXPECT_EQ(conn->min_lambda2, eager_conn->min_lambda2);
  EXPECT_EQ(conn->mean_lambda2, eager_conn->mean_lambda2);
  EXPECT_GT(conn->mean_lambda2, 0.0);
}

TEST(FedScTest, SampleBookkeepingIsConsistent) {
  Federation f = MakeFederation(3, 30, 6, 2, 47);
  auto result = RunFedSc(f.fed, 3, FedScOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->samples.cols(), result->total_samples);
  ASSERT_EQ(static_cast<int64_t>(result->sample_device.size()),
            result->total_samples);
  ASSERT_EQ(static_cast<int64_t>(result->sample_labels.size()),
            result->total_samples);
  // Every point maps to a sample on its own device.
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    for (int64_t s : result->point_sample[static_cast<size_t>(z)]) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, result->total_samples);
      EXPECT_EQ(result->sample_device[static_cast<size_t>(s)], z);
    }
  }
  // r^(z) totals match.
  int64_t total_r = 0;
  for (int64_t r : result->local_cluster_counts) total_r += r;
  EXPECT_EQ(total_r, result->total_samples);
}

TEST(FedScTest, HeterogeneityHelps) {
  // Same data, same devices; L' = 2 should do at least as well as IID.
  SyntheticOptions synth;
  synth.ambient_dim = 16;
  synth.subspace_dim = 3;
  synth.num_subspaces = 8;
  synth.points_per_subspace = 120;
  synth.seed = 53;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());

  auto run = [&](int64_t l_prime) {
    PartitionOptions partition;
    partition.num_devices = 16;
    partition.clusters_per_device = l_prime;
    partition.seed = 99;
    auto fed = PartitionAcrossDevices(*data, partition);
    EXPECT_TRUE(fed.ok());
    auto result = RunFedSc(*fed, 8, FedScOptions{});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ClusteringAccuracy(data->labels, result->global_labels);
  };
  const double acc_hetero = run(2);
  const double acc_iid = run(0);
  EXPECT_GE(acc_hetero + 1e-9, acc_iid - 5.0);  // allow small fluctuations
  EXPECT_GE(acc_hetero, 95.0);
}

TEST(FedScTest, ParallelExecutionMatchesSequential) {
  Federation f = MakeFederation(4, 40, 12, 2, 59);
  FedScOptions sequential;
  sequential.seed = 321;
  FedScOptions parallel = sequential;
  parallel.num_threads = 4;
  auto a = RunFedSc(f.fed, 4, sequential);
  auto b = RunFedSc(f.fed, 4, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->global_labels, b->global_labels);
  EXPECT_TRUE(AllClose(a->samples, b->samples, 0.0));
  EXPECT_EQ(a->comm.uplink_bits, b->comm.uplink_bits);
}

TEST(FedScTest, QuantizedUplinkStillClusters) {
  Federation f = MakeFederation(4, 60, 12, 2, 61);
  FedScOptions options;
  options.channel.codec.mode = CodecMode::kUniformQuant;
  options.channel.codec.quant_bits = 8;
  auto result = RunFedSc(f.fed, 4, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(f.data.labels, result->global_labels), 95.0);
}

TEST(FedScTest, OutlierTrimmingImprovesContaminatedClusters) {
  // Build a device whose cluster contains a few gross outliers; with
  // trimming, the uploaded sample stays inside the true subspace.
  Rng rng(67);
  const int64_t n = 16;
  const Matrix basis = RandomOrthonormalBasis(n, 2, &rng);
  const int64_t clean = 30;
  Matrix points(n, clean + 4);
  for (int64_t j = 0; j < clean; ++j) {
    const Vector coeff = rng.GaussianVector(2);
    Gemv(Trans::kNo, 1.0, basis, coeff.data(), 0.0, points.ColData(j));
  }
  for (int64_t j = clean; j < clean + 4; ++j) {
    const Vector junk = rng.UnitSphere(n);  // arbitrary directions
    points.SetCol(j, junk);
  }
  points.NormalizeColumns();

  FedScOptions options;
  options.use_eigengap = false;
  options.max_local_clusters = 1;  // single local cluster, contaminated
  options.sample_dim = 2;

  auto measure_leakage = [&](double trim) {
    options.trim_fraction = trim;
    auto local = LocalClusterAndSample(points, options, 5);
    EXPECT_TRUE(local.ok());
    // Component of the sample outside the true subspace.
    Vector coords = Gemv(Trans::kTrans, basis, local->samples.Col(0));
    Vector inside = Gemv(Trans::kNo, basis, coords);
    Axpy(-1.0, local->samples.ColData(0), inside.data(), n);
    return Norm2(inside.data(), n);
  };
  const double leak_untrimmed = measure_leakage(0.0);
  const double leak_trimmed = measure_leakage(0.2);
  EXPECT_LT(leak_trimmed, leak_untrimmed);
  EXPECT_LT(leak_trimmed, 1e-8);
}

TEST(FedScTest, OutOfSampleAssignmentAgreesWithTraining) {
  Federation f = MakeFederation(4, 70, 12, 2, 71);
  auto result = RunFedSc(f.fed, 4, FedScOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_GE(ClusteringAccuracy(f.data.labels, result->global_labels), 99.0);

  // Re-assigning the training points through the sample subspaces must
  // agree with the protocol's own labels.
  auto reassigned = AssignNewPoints(*result, 4, f.data.points);
  ASSERT_TRUE(reassigned.ok()) << reassigned.status().ToString();
  double agree = 0.0;
  for (size_t i = 0; i < reassigned->size(); ++i) {
    agree += (*reassigned)[i] == result->global_labels[i];
  }
  EXPECT_GE(100.0 * agree / static_cast<double>(reassigned->size()), 97.0);

  // Fresh points from the generating subspaces land in the right clusters.
  Rng rng(72);
  Matrix fresh(24, 40);
  std::vector<int64_t> fresh_truth;
  for (int64_t j = 0; j < 40; ++j) {
    const int64_t l = j % 4;
    const Vector coeff = rng.GaussianVector(3);
    Gemv(Trans::kNo, 1.0, f.data.bases[static_cast<size_t>(l)], coeff.data(),
         0.0, fresh.ColData(j));
    fresh_truth.push_back(l);
  }
  auto fresh_labels = AssignNewPoints(*result, 4, fresh);
  ASSERT_TRUE(fresh_labels.ok());
  EXPECT_GE(ClusteringAccuracy(fresh_truth, *fresh_labels), 95.0);

  // Validation.
  EXPECT_FALSE(AssignNewPoints(*result, 0, fresh).ok());
  EXPECT_FALSE(AssignNewPoints(*result, 4, Matrix(7, 2)).ok());
}

}  // namespace
}  // namespace fedsc
