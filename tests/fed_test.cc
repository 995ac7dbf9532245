#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fed/kfed.h"
#include "fed/network.h"
#include "fed/partition.h"
#include "fed/pca.h"
#include "fed/privacy.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

Dataset Blobs(int64_t k, int64_t per_blob, int64_t dim, double spread,
              uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_clusters = k;
  data.points = Matrix(dim, k * per_blob);
  for (int64_t c = 0; c < k; ++c) {
    Vector center(static_cast<size_t>(dim));
    for (auto& v : center) v = 20.0 * rng.Gaussian();
    for (int64_t p = 0; p < per_blob; ++p) {
      const int64_t col = c * per_blob + p;
      for (int64_t i = 0; i < dim; ++i) {
        data.points(i, col) =
            center[static_cast<size_t>(i)] + spread * rng.Gaussian();
      }
      data.labels.push_back(c);
    }
  }
  return data;
}

TEST(PartitionTest, IidCoversEveryDeviceWithAllClusters) {
  const Dataset data = Blobs(4, 50, 6, 0.5, 1);
  PartitionOptions options;
  options.num_devices = 8;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(fed->num_devices(), 8);
  EXPECT_EQ(fed->total_points, 200);
  for (int64_t count : fed->ClustersPerDevice()) EXPECT_EQ(count, 4);
  for (int64_t count : fed->DevicesPerCluster()) EXPECT_EQ(count, 8);
}

TEST(PartitionTest, NonIidRespectsClustersPerDevice) {
  const Dataset data = Blobs(10, 60, 6, 0.5, 2);
  PartitionOptions options;
  options.num_devices = 12;
  options.clusters_per_device = 2;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  for (int64_t count : fed->ClustersPerDevice()) EXPECT_LE(count, 2);
  // Every cluster is held by at least one device.
  for (int64_t count : fed->DevicesPerCluster()) EXPECT_GE(count, 1);
}

TEST(PartitionTest, GlobalIndexIsAPartition) {
  const Dataset data = Blobs(5, 30, 4, 0.5, 3);
  PartitionOptions options;
  options.num_devices = 7;
  options.clusters_per_device = 3;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  std::set<int64_t> seen;
  for (const auto& idx : fed->global_index) {
    for (int64_t i : idx) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate column " << i;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), data.points.cols());
}

TEST(PartitionTest, DevicePointsMatchOriginalColumns) {
  const Dataset data = Blobs(3, 20, 5, 0.5, 4);
  PartitionOptions options;
  options.num_devices = 4;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  for (int64_t z = 0; z < fed->num_devices(); ++z) {
    const auto& idx = fed->global_index[static_cast<size_t>(z)];
    for (size_t i = 0; i < idx.size(); ++i) {
      for (int64_t r = 0; r < 5; ++r) {
        EXPECT_EQ(fed->points[static_cast<size_t>(z)](r,
                                                      static_cast<int64_t>(i)),
                  data.points(r, idx[i]));
      }
      EXPECT_EQ(fed->labels[static_cast<size_t>(z)][i],
                data.labels[static_cast<size_t>(idx[i])]);
    }
  }
}

TEST(PartitionTest, ToGlobalOrderRoundTrips) {
  const Dataset data = Blobs(4, 25, 4, 0.5, 5);
  PartitionOptions options;
  options.num_devices = 6;
  options.clusters_per_device = 2;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(fed->GlobalTruth(), data.labels);
}

TEST(PartitionTest, HeterogeneityIdentity) {
  // sum_z L^(z) == sum_l Z_l (footnote 4 of the paper).
  const Dataset data = Blobs(8, 40, 4, 0.5, 6);
  PartitionOptions options;
  options.num_devices = 10;
  options.clusters_per_device = 3;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  int64_t sum_l = 0;
  for (int64_t v : fed->ClustersPerDevice()) sum_l += v;
  int64_t sum_z = 0;
  for (int64_t v : fed->DevicesPerCluster()) sum_z += v;
  EXPECT_EQ(sum_l, sum_z);
}

TEST(PartitionTest, Validation) {
  const Dataset data = Blobs(2, 5, 3, 0.5, 7);
  EXPECT_FALSE(PartitionAcrossDevices(data, {.num_devices = 0}).ok());
  Dataset empty;
  EXPECT_FALSE(PartitionAcrossDevices(empty, {.num_devices = 2}).ok());
}

TEST(ChannelTest, AccountingMatchesFormulas) {
  // The uplink is serialized for real, so the accounting charges the exact
  // wire size — header + section header + payload — not values * bits.
  ChannelOptions options;
  Channel channel(options);
  Matrix samples(10, 3);
  channel.Uplink(samples);
  channel.Uplink(Matrix(10, 2));
  channel.Downlink(5, 16);
  channel.FinishRound();
  const CodecOptions& codec = options.codec;
  const int64_t wire_bytes =
      EncodedWireBytes(10, 3, codec) + EncodedWireBytes(10, 2, codec);
  EXPECT_EQ(wire_bytes, 2 * (36 + 24) + 8 * 50);  // f64 payloads + framing
  EXPECT_EQ(channel.stats().uplink_values, 50);
  EXPECT_EQ(channel.stats().uplink_wire_bytes, wire_bytes);
  EXPECT_EQ(channel.stats().uplink_bits, 8 * wire_bytes);
  EXPECT_EQ(channel.stats().downlink_values, 5);
  EXPECT_DOUBLE_EQ(channel.stats().downlink_bits, 5 * 4.0);  // log2(16)
  EXPECT_EQ(channel.stats().rounds, 1);
}

TEST(ChannelTest, QuantizedAccountingChargesPackedBits) {
  ChannelOptions options;
  options.codec.mode = CodecMode::kUniformQuant;
  options.codec.quant_bits = 8;
  Channel channel(options);
  channel.Uplink(Matrix(10, 3));
  // 30 values at 8 bits pack into 30 payload bytes plus fixed framing.
  const int64_t wire_bytes = EncodedWireBytes(10, 3, options.codec);
  EXPECT_EQ(wire_bytes, 36 + 24 + 30);
  EXPECT_EQ(channel.stats().uplink_wire_bytes, wire_bytes);
  EXPECT_EQ(channel.stats().uplink_bits, 8 * wire_bytes);
}

TEST(ChannelTest, WireSinkSeesExactlyTheChargedBytes) {
  // Regression for the accounting fix: the bytes the sink observes ARE the
  // bytes the stats charge.
  ChannelOptions options;
  int64_t sink_bytes = 0;
  options.wire_sink = [&sink_bytes](int64_t, const std::vector<uint8_t>& w) {
    sink_bytes += static_cast<int64_t>(w.size());
  };
  Channel channel(options);
  channel.Uplink(Matrix(7, 4));
  channel.Uplink(Matrix(3, 1));
  EXPECT_GT(sink_bytes, 0);
  EXPECT_EQ(channel.stats().uplink_wire_bytes, sink_bytes);
  EXPECT_EQ(channel.stats().uplink_bits, 8 * sink_bytes);
}

TEST(ChannelTest, NoiselessUplinkIsIdentity) {
  Channel channel(ChannelOptions{});
  Matrix samples(4, 2);
  samples(0, 0) = 1.5;
  const Matrix received = channel.Uplink(samples);
  EXPECT_TRUE(AllClose(received, samples, 0.0));
}

TEST(ChannelTest, NoiseHasRequestedScale) {
  ChannelOptions options;
  options.noise_delta = 2.0;
  options.seed = 9;
  Channel channel(options);
  const int64_t r = 4;
  Matrix samples(2000, r);  // many rows for a tight variance estimate
  const Matrix received = channel.Uplink(samples);
  double sum2 = 0.0;
  for (int64_t j = 0; j < r; ++j) {
    for (int64_t i = 0; i < 2000; ++i) sum2 += received(i, j) * received(i, j);
  }
  const double expected_var = (2.0 / std::sqrt(4.0)) * (2.0 / std::sqrt(4.0));
  EXPECT_NEAR(sum2 / (2000.0 * r), expected_var, 0.05);
}

TEST(PcaTest, RecoversPrincipalDirections) {
  Rng rng(10);
  // Points spread along e1 with tiny noise elsewhere.
  Matrix x(5, 60);
  for (int64_t j = 0; j < 60; ++j) {
    x(0, j) = 10.0 * rng.Gaussian();
    for (int64_t i = 1; i < 5; ++i) x(i, j) = 0.01 * rng.Gaussian();
  }
  auto pca = Pca(x, 1);
  ASSERT_TRUE(pca.ok());
  EXPECT_EQ(pca->projected.rows(), 1);
  EXPECT_NEAR(std::fabs(pca->components(0, 0)), 1.0, 1e-3);
}

TEST(PcaTest, ProjectionPreservesVarianceOrder) {
  Rng rng(11);
  Matrix x(6, 40);
  for (int64_t j = 0; j < 40; ++j) {
    for (int64_t i = 0; i < 6; ++i) {
      x(i, j) = (6.0 - static_cast<double>(i)) * rng.Gaussian();
    }
  }
  auto pca = Pca(x, 3);
  ASSERT_TRUE(pca.ok());
  Vector row_var(3, 0.0);
  for (int64_t j = 0; j < 40; ++j) {
    for (int64_t i = 0; i < 3; ++i) {
      row_var[static_cast<size_t>(i)] +=
          pca->projected(i, j) * pca->projected(i, j);
    }
  }
  EXPECT_GE(row_var[0], row_var[1]);
  EXPECT_GE(row_var[1], row_var[2]);
  EXPECT_FALSE(Pca(Matrix(3, 0), 2).ok());
  EXPECT_FALSE(Pca(x, 0).ok());
}

// Test-only reference for Pca: a full Jacobi SVD of the centred data,
// keeping its first min(dim, r) left singular vectors, r = #{sigma_j >
// kGramSigmaFloor * sigma_1}. Returns the projected scores.
Matrix ReferencePcaScores(const Matrix& x, int64_t dim) {
  Matrix centered = x;
  for (int64_t i = 0; i < x.rows(); ++i) {
    double mean = 0.0;
    for (int64_t j = 0; j < x.cols(); ++j) mean += x(i, j);
    mean /= static_cast<double>(x.cols());
    for (int64_t j = 0; j < x.cols(); ++j) centered(i, j) -= mean;
  }
  auto svd = JacobiSvd(centered);
  EXPECT_TRUE(svd.ok());
  const int64_t r = NumericalRank(svd->s, kGramSigmaFloor);
  return MatMulTN(svd->u.ColRange(0, std::min(dim, r)), centered);
}

TEST(PcaTest, MatchesTheSvdReferenceUpToRowSigns) {
  Rng rng(12);
  // (rows, points, dim, faint): tall, wide, rank-deficient with fewer
  // points than rows and dim >= points, and one with a faint last
  // coordinate (scale 1e-6, below kGramSigmaFloor) that no row may keep.
  // Coordinate i otherwise has scale 1 / (i + 1), so the leading singular
  // values are well separated.
  const struct {
    int64_t rows, points, dim;
    bool faint;
    int64_t expected_rows;
  } cases[] = {{40, 15, 5, false, 5},
               {6, 50, 4, false, 4},
               {30, 8, 10, false, 7},
               {12, 12, 12, false, 11},
               {5, 30, 5, true, 4}};
  for (const auto& c : cases) {
    Matrix x(c.rows, c.points);
    for (int64_t j = 0; j < c.points; ++j) {
      for (int64_t i = 0; i < c.rows; ++i) {
        const double scale = c.faint && i == c.rows - 1
                                 ? 1e-6
                                 : 1.0 / static_cast<double>(i + 1);
        x(i, j) = scale * rng.Gaussian() + 3.0;
      }
    }
    auto pca = Pca(x, c.dim);
    ASSERT_TRUE(pca.ok()) << pca.status().ToString();
    const Matrix ref = ReferencePcaScores(x, c.dim);
    // Rows follow min(dim, #{sigma_j > kGramSigmaFloor * sigma_1}); centred
    // data has rank <= points - 1.
    ASSERT_EQ(pca->projected.rows(), c.expected_rows)
        << c.rows << "x" << c.points;
    ASSERT_EQ(ref.rows(), c.expected_rows);
    ASSERT_EQ(pca->components.cols(), c.expected_rows);
    EXPECT_TRUE(AllClose(Gram(pca->components),
                         Matrix::Identity(c.expected_rows), 1e-10));
    // Each row agrees with the reference up to its sign.
    const double tol = 1e-8 * ref.MaxAbs();
    for (int64_t i = 0; i < ref.rows(); ++i) {
      double dot = 0.0;
      for (int64_t j = 0; j < c.points; ++j) {
        dot += pca->projected(i, j) * ref(i, j);
      }
      const double sign = dot < 0.0 ? -1.0 : 1.0;
      for (int64_t j = 0; j < c.points; ++j) {
        EXPECT_NEAR(pca->projected(i, j), sign * ref(i, j), tol)
            << c.rows << "x" << c.points << " row " << i;
      }
    }
  }
}

TEST(PcaTest, IdenticalPointsHaveNoComponents) {
  Matrix x(4, 3);
  for (int64_t j = 0; j < 3; ++j) {
    for (int64_t i = 0; i < 4; ++i) x(i, j) = static_cast<double>(i);
  }
  auto pca = Pca(x, 2);
  ASSERT_TRUE(pca.ok()) << pca.status().ToString();
  EXPECT_EQ(pca->components.rows(), 4);
  EXPECT_EQ(pca->components.cols(), 0);
  EXPECT_EQ(pca->projected.rows(), 0);
  EXPECT_EQ(pca->projected.cols(), 3);
}

TEST(KFedTest, ClustersHeterogeneousBlobs) {
  const Dataset data = Blobs(8, 60, 8, 0.4, 12);
  PartitionOptions partition;
  partition.num_devices = 16;
  partition.clusters_per_device = 2;
  auto fed = PartitionAcrossDevices(data, partition);
  ASSERT_TRUE(fed.ok());
  KFedOptions options;
  options.local_k = 2;
  auto result = RunKFed(*fed, 8, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(ClusteringAccuracy(data.labels, result->global_labels), 95.0);
  EXPECT_EQ(result->comm.rounds, 1);
  // Uplink: one centroid matrix (dim x 2) per device.
  EXPECT_EQ(result->comm.uplink_values, 16 * 8 * 2);
  EXPECT_GT(result->seconds, 0.0);
}

TEST(KFedTest, LocalPcaDestroysAlignment) {
  // High-dimensional blobs; per-device PCA projects into incompatible
  // coordinate systems so accuracy collapses (the paper's Table III
  // k-FED + PCA rows).
  const Dataset data = Blobs(6, 80, 64, 0.5, 13);
  PartitionOptions partition;
  partition.num_devices = 12;
  partition.clusters_per_device = 2;
  auto fed = PartitionAcrossDevices(data, partition);
  ASSERT_TRUE(fed.ok());
  KFedOptions plain;
  plain.local_k = 2;
  KFedOptions pca;
  pca.local_k = 2;
  pca.pca_dim = 5;
  auto without = RunKFed(*fed, 6, plain);
  ResetMetrics();
  EnableMetrics(true);
  auto with = RunKFed(*fed, 6, pca);
  EnableMetrics(false);
  // Every device's PCA takes the Gram route: no Jacobi SVD runs.
  const MetricsSnapshot metrics = SnapshotMetrics();
  EXPECT_GT(metrics.counters.at("linalg.basis.gram"), 0);
  EXPECT_EQ(metrics.counters.at("linalg.basis.looped"), 0);
  EXPECT_EQ(metrics.counters.at("linalg.svd.calls"), 0);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_GT(ClusteringAccuracy(data.labels, without->global_labels),
            ClusteringAccuracy(data.labels, with->global_labels) + 10.0);
}

TEST(KFedTest, Validation) {
  FederatedDataset empty;
  EXPECT_FALSE(RunKFed(empty, 3).ok());
}

TEST(PartitionTest, VariableClusterRangePerDevice) {
  const Dataset data = Blobs(10, 80, 6, 0.5, 21);
  PartitionOptions options;
  options.num_devices = 20;
  options.clusters_per_device = 2;
  options.clusters_per_device_max = 4;
  options.seed = 77;
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  const auto counts = fed->ClustersPerDevice();
  std::set<int64_t> distinct;
  for (int64_t count : counts) {
    EXPECT_GE(count, 1);   // swaps may only replace, never remove coverage
    EXPECT_LE(count, 4);
    distinct.insert(count);
  }
  // With 20 devices drawing from {2, 3, 4}, more than one count appears.
  EXPECT_GT(distinct.size(), 1u);
  for (int64_t holders : fed->DevicesPerCluster()) EXPECT_GE(holders, 1);
}

TEST(PartitionTest, MaxBelowMinActsAsFixed) {
  const Dataset data = Blobs(6, 30, 4, 0.5, 22);
  PartitionOptions options;
  options.num_devices = 8;
  options.clusters_per_device = 3;
  options.clusters_per_device_max = 1;  // ignored: below the minimum
  auto fed = PartitionAcrossDevices(data, options);
  ASSERT_TRUE(fed.ok());
  for (int64_t count : fed->ClustersPerDevice()) EXPECT_LE(count, 3);
}

TEST(ChannelTest, QuantizationRoundsToGrid) {
  ChannelOptions options;
  options.codec.mode = CodecMode::kUniformQuant;
  options.codec.quant_bits = 4;
  options.codec.quant_range = 1.0;
  Channel channel(options);
  Matrix samples(1, 4);
  samples(0, 0) = 0.1234;
  samples(0, 1) = -0.987;
  samples(0, 2) = 3.0;   // clamped to the range
  samples(0, 3) = -3.0;
  const Matrix received = channel.Uplink(samples);
  const double step = 2.0 / 15.0;  // 2^4 - 1 levels
  for (int64_t j = 0; j < 4; ++j) {
    // On-grid: (v + 1) / step is integral.
    const double ticks = (received(0, j) + 1.0) / step;
    EXPECT_NEAR(ticks, std::round(ticks), 1e-9);
    // Within half a step of the clamped input.
    const double clamped = std::clamp(samples(0, j), -1.0, 1.0);
    EXPECT_LE(std::fabs(received(0, j) - clamped), step / 2.0 + 1e-12);
  }
}

TEST(ChannelTest, CreateRejectsInvalidOptions) {
  // Channel::Create (and every Run* entry point, via
  // ValidateChannelOptions) rejects misconfigured channels up front instead
  // of silently passing values through unquantized.
  ChannelOptions options;
  options.codec.mode = CodecMode::kUniformQuant;
  options.codec.quant_bits = 64;  // outside the quantizable range [2, 32]
  auto rejected = Channel::Create(options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  options.codec.quant_bits = 1;  // too coarse to quantize
  EXPECT_FALSE(Channel::Create(options).ok());
  options.codec.quant_bits = 8;
  options.codec.quant_range = 0.0;
  EXPECT_FALSE(Channel::Create(options).ok());
  options.codec.quant_range = 1.5;
  ASSERT_TRUE(Channel::Create(options).ok());

  ChannelOptions noisy;
  noisy.noise_delta = -0.5;
  EXPECT_FALSE(Channel::Create(noisy).ok());
  EXPECT_TRUE(Channel::Create(ChannelOptions{}).ok());
}

TEST(ChannelTest, RunEntryPointsValidateChannelOptions) {
  const Dataset data = Blobs(3, 20, 6, 0.5, 23);
  PartitionOptions partition;
  partition.num_devices = 4;
  auto fed = PartitionAcrossDevices(data, partition);
  ASSERT_TRUE(fed.ok());
  KFedOptions options;
  options.channel.noise_delta = -1.0;
  auto result = RunKFed(*fed, 3, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrivacyTest, ClippingIsExactAtTheBoundary) {
  DpOptions options;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  options.sensitivity = 2.0;
  const double clip = options.sensitivity / 2.0;
  const double sigma = *GaussianMechanismSigma(options);

  Matrix samples(5, 2);
  samples(0, 0) = clip;        // exactly at the boundary: not rescaled
  samples(1, 1) = 4.0 * clip;  // over: rescaled onto the boundary
  const uint64_t seed = 123;
  Rng rng(seed);
  auto released = PrivatizeSamples(samples, options, &rng);
  ASSERT_TRUE(released.ok());

  // Replay the mechanism by hand with an identically seeded stream: the
  // boundary column must be passed through un-clipped, the oversized one
  // scaled to exactly clip, bit for bit.
  Rng replay(seed);
  Matrix expected(5, 2);
  expected(0, 0) = clip;
  expected(1, 1) = clip;
  for (int64_t j = 0; j < 2; ++j) {
    for (int64_t i = 0; i < 5; ++i) {
      expected(i, j) += sigma * replay.Gaussian();
    }
  }
  EXPECT_TRUE(AllClose(*released, expected, 0.0));
}

TEST(PrivacyTest, ZeroNormSamplesAreReleasedAsPureNoise) {
  // A device with a degenerate (all-zero) sample must not divide by zero;
  // the release is pure mechanism noise.
  DpOptions options;
  options.epsilon = 0.5;
  options.delta = 1e-4;
  Rng rng(31);
  auto released = PrivatizeSamples(Matrix(6, 1), options, &rng);
  ASSERT_TRUE(released.ok());
  double sum2 = 0.0;
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(std::isfinite((*released)(i, 0)));
    sum2 += (*released)(i, 0) * (*released)(i, 0);
  }
  EXPECT_GT(sum2, 0.0);  // noise was actually added
}

TEST(PrivacyTest, DegenerateDpOptionsAreRejected) {
  Rng rng(32);
  const Matrix samples(4, 2);
  DpOptions options;
  options.delta = 1.0;  // delta must lie strictly inside (0, 1)
  EXPECT_FALSE(PrivatizeSamples(samples, options, &rng).ok());
  options.delta = 1e-5;
  options.epsilon = -1.0;
  EXPECT_FALSE(PrivatizeSamples(samples, options, &rng).ok());
  options.epsilon = 1.0;
  options.sensitivity = 0.0;
  EXPECT_FALSE(PrivatizeSamples(samples, options, &rng).ok());
}

}  // namespace
}  // namespace fedsc
