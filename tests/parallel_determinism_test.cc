// Bit-exactness of every threaded kernel: for num_threads in {1, 2, 8} the
// outputs must be *identical at the bit level* to the serial pass, not just
// close. This is the determinism contract from DESIGN.md — threaded kernels
// partition their output index space into fixed contiguous ranges and run
// the same serial subkernel per range, so no floating-point operation is
// reordered and no tolerance is needed here.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/spectral.h"
#include "common/rng.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "linalg/blas.h"
#include "linalg/eig.h"
#include "sc/affinity.h"
#include "sc/sketch.h"
#include "sc/ssc_admm.h"
#include "sc/ssc_omp.h"

namespace fedsc {
namespace {

const int kThreadCounts[] = {2, 8};

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t j = 0; j < a.cols(); ++j) {
    for (int64_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmDeterminismTest, AllTransposeCombosMatchSerialBitForBit) {
  // 48^3 is above the thread-throttle floor, so the blocked packed engine
  // runs with workers engaged.
  constexpr int64_t n = 48;
  Rng rng(11);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  const Matrix c0 = RandomMatrix(n, n, &rng);  // exercises beta != 0

  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  for (Trans ta : kinds) {
    for (Trans tb : kinds) {
      Matrix serial = c0;
      Gemm(ta, tb, 1.25, a, b, 0.5, &serial, 1);
      for (int threads : kThreadCounts) {
        Matrix threaded = c0;
        Gemm(ta, tb, 1.25, a, b, 0.5, &threaded, threads);
        ExpectBitIdentical(serial, threaded, "Gemm");
      }
    }
  }
}

TEST(GemmDeterminismTest, BlockedEngineOddShapesMatchSerialBitForBit) {
  // Shapes chosen so every blocking loop runs a full block plus a ragged
  // tail: k = 257 spans two kc blocks, m = 130 spans mc blocks with a
  // partial micro-row, n = 100 leaves a partial NR micro-column. The jr
  // micro-blocks are the parallel axis; their results must be independent
  // of how ParallelForRanges partitions them.
  constexpr int64_t m = 130, k = 257, n = 100;
  Rng rng(15);
  const Matrix c0 = RandomMatrix(m, n, &rng);

  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  for (Trans ta : kinds) {
    for (Trans tb : kinds) {
      const Matrix a = ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                        : RandomMatrix(k, m, &rng);
      const Matrix b = tb == Trans::kNo ? RandomMatrix(k, n, &rng)
                                        : RandomMatrix(n, k, &rng);
      Matrix serial = c0;
      Gemm(ta, tb, 1.25, a, b, 0.5, &serial, 1);
      for (int threads : kThreadCounts) {
        Matrix threaded = c0;
        Gemm(ta, tb, 1.25, a, b, 0.5, &threaded, threads);
        ExpectBitIdentical(serial, threaded, "blocked Gemm");
      }
    }
  }
}

TEST(SyrkDeterminismTest, BothOrientationsAndKernelsMatchSerialBitForBit) {
  // 80 x 150 input: both orientations clear the blocked cutoff, so the
  // threaded blocked Syrk runs, followed by the threaded mirror. The mirror
  // is part of the output, so bit-identity covers it too.
  Rng rng(17);
  const Matrix x = RandomMatrix(80, 150, &rng);

  for (Trans trans : {Trans::kTrans, Trans::kNo}) {
    const int64_t nn = trans == Trans::kTrans ? x.cols() : x.rows();
    const Matrix r = RandomMatrix(nn, nn, &rng);
    Matrix c0(nn, nn);
    for (int64_t j = 0; j < nn; ++j) {
      for (int64_t i = 0; i < nn; ++i) c0(i, j) = r(i, j) + r(j, i);
    }
    Matrix serial = c0;
    Syrk(trans, 1.25, x, 0.5, &serial, 1);
    for (int threads : kThreadCounts) {
      Matrix threaded = c0;
      Syrk(trans, 1.25, x, 0.5, &threaded, threads);
      ExpectBitIdentical(serial, threaded, "Syrk");
    }
  }
}

TEST(GemvDeterminismTest, BothOrientationsMatchSerialBitForBit) {
  constexpr int64_t n = 200;  // 200*200 engages the threaded path
  Rng rng(12);
  const Matrix a = RandomMatrix(n, n, &rng);
  Vector x(static_cast<size_t>(n));
  Vector y0(static_cast<size_t>(n));
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y0) v = rng.Gaussian();

  for (Trans trans : {Trans::kNo, Trans::kTrans}) {
    Vector serial = y0;
    Gemv(trans, 0.75, a, x.data(), 1.5, serial.data(), 1);
    for (int threads : kThreadCounts) {
      Vector threaded = y0;
      Gemv(trans, 0.75, a, x.data(), 1.5, threaded.data(), threads);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(serial[static_cast<size_t>(i)],
                  threaded[static_cast<size_t>(i)])
            << "Gemv differs at " << i << " with " << threads << " threads";
      }
    }
  }
}

TEST(EigDeterminismTest, BlockedEngineMatchesSerialBitForBit) {
  // 150 >= kBlockedEigCutoff: kAuto runs the blocked tridiagonalization
  // with threaded trailing matvecs, rank-2b GEMM updates, and compact-WY
  // Q accumulation.
  constexpr int64_t n = 150;
  Rng rng(20);
  Matrix a = RandomMatrix(n, n, &rng);
  a += a.Transposed();

  EigOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = SymmetricEigen(a, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : kThreadCounts) {
    EigOptions options;
    options.num_threads = threads;
    auto threaded = SymmetricEigen(a, options);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ASSERT_EQ(serial->values, threaded->values) << threads << " threads";
    ExpectBitIdentical(serial->vectors, threaded->vectors, "eig vectors");

    auto values_only = SymmetricEigenvalues(a, options);
    ASSERT_TRUE(values_only.ok());
    ASSERT_EQ(serial->values, *values_only) << threads << " threads";
  }
}

TEST(EigengapSpectralDeterminismTest, FusedLocalStepMatchesSerialExactly) {
  // A device-sized affinity (120 points on two subspaces, the noniid2_z160
  // shape) is above kBlockedEigCutoff, so the one eigensolve behind r and
  // the embedding runs the threaded blocked reduction.
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 2;
  synth.points_per_subspace = 60;
  synth.seed = 23;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix x = data->points;
  x.NormalizeColumns();
  auto coefficients = SscSelfExpression(x, SscAdmmOptions{});
  ASSERT_TRUE(coefficients.ok()) << coefficients.status().ToString();
  const Matrix affinity = AffinityFromCoefficients(*coefficients).ToDense();
  ASSERT_GE(affinity.rows(), kBlockedEigCutoff);

  auto run = [&](int threads) {
    SpectralOptions options;
    options.num_threads = threads;
    Rng rng(5);
    return EigengapSpectralCluster(affinity, EigengapOptions{}, options, &rng);
  };
  auto serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->num_clusters, 2);
  for (int threads : kThreadCounts) {
    auto threaded = run(threads);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    EXPECT_EQ(serial->num_clusters, threaded->num_clusters)
        << threads << " threads";
    EXPECT_EQ(serial->labels, threaded->labels) << threads << " threads";
  }
}

TEST(SscOmpDeterminismTest, CoefficientMatrixMatchesSerialExactly) {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 40;
  synth.seed = 21;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix x = data->points;
  x.NormalizeColumns();

  SscOmpOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = SscOmpSelfExpression(x, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : kThreadCounts) {
    SscOmpOptions options;
    options.num_threads = threads;
    auto threaded = SscOmpSelfExpression(x, options);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    // The CSR arrays — structure AND values — must match exactly: the
    // threaded builder concatenates per-chunk triplet lists in chunk order
    // to reproduce the serial triplet stream.
    ASSERT_EQ(serial->row_ptr(), threaded->row_ptr()) << threads;
    ASSERT_EQ(serial->col_idx(), threaded->col_idx()) << threads;
    ASSERT_EQ(serial->values(), threaded->values()) << threads;
  }
}

TEST(SscAdmmDeterminismTest, BothOperatorBranchesMatchSerialExactly) {
  // The exact and sketched solvers share one Z-update operator whose
  // factored (rows < atoms) and direct branches thread differently; both
  // must reproduce the serial CSR arrays bit for bit, and so must the
  // stopping rule and the residual-balancing rho schedule: every input below
  // moves rho away from its initial alpha, so an operator re-form and a dual
  // rescale run inside each solve.
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 3;
  synth.points_per_subspace = 40;
  synth.seed = 23;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix x = data->points;
  x.NormalizeColumns();
  const auto expect_same = [](const SparseMatrix& a, const SscAdmmInfo& a_info,
                              const SparseMatrix& b, const SscAdmmInfo& b_info,
                              const std::string& what) {
    EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
    EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
    EXPECT_EQ(a.values(), b.values()) << what;
    EXPECT_EQ(a_info.iterations, b_info.iterations) << what;
    EXPECT_EQ(a_info.final_rho, b_info.final_rho) << what;
    EXPECT_EQ(a_info.rho_updates, b_info.rho_updates) << what;
    EXPECT_EQ(a_info.final_residual, b_info.final_residual) << what;
  };
  const int thread_counts[] = {1, 2, 8};

  // Exact: N = 120 > n is factored, the first 20 or 17 columns direct. At
  // N = 17 each column is two eight-row lane blocks and a one-row tail.
  for (const Matrix& points : {x, x.ColRange(0, 20), x.ColRange(0, 17)}) {
    for (bool affine : {false, true}) {
      const std::string name = "exact N=" + std::to_string(points.cols()) +
                               " affine=" + std::to_string(affine);
      SscAdmmOptions options;
      options.affine = affine;
      SscAdmmInfo serial_info;
      auto serial = SscSelfExpression(points, options, &serial_info);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_TRUE(serial_info.converged) << name;
      EXPECT_GT(serial_info.rho_updates, 0) << name;
      EXPECT_NE(serial_info.final_rho, options.alpha) << name;
      for (int threads : thread_counts) {
        options.num_threads = threads;
        SscAdmmInfo info;
        auto threaded = SscSelfExpression(points, options, &info);
        ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
        expect_same(*serial, serial_info, *threaded, info,
                    name + " nt=" + std::to_string(threads));
      }
    }
  }
  // Sketched: d = 48 > n is factored, d = 16 direct.
  for (int64_t dim : {48, 16}) {
    const std::string name = "sketched d=" + std::to_string(dim);
    SketchOptions sketch_options;
    sketch_options.dim = dim;
    sketch_options.kind = SketchKind::kUniformLandmarks;
    auto sketch = SketchDictionary(x, sketch_options);
    ASSERT_TRUE(sketch.ok());
    SscAdmmOptions options;
    SscAdmmInfo serial_info;
    auto serial = SscSketchedSelfExpression(x, *sketch, options, &serial_info);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_TRUE(serial_info.converged) << name;
    EXPECT_GT(serial_info.rho_updates, 0) << name;
    EXPECT_NE(serial_info.final_rho, options.alpha) << name;
    for (int threads : thread_counts) {
      options.num_threads = threads;
      SscAdmmInfo info;
      auto threaded = SscSketchedSelfExpression(x, *sketch, options, &info);
      ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
      expect_same(*serial, serial_info, *threaded, info,
                  name + " nt=" + std::to_string(threads));
    }
  }
}

TEST(FedScDeterminismTest, FullRunMatchesSerialForEveryThreadCount) {
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 30;
  synth.seed = 31;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 6;
  partition.clusters_per_device = 2;
  partition.seed = 31 ^ 0xABCDEF;
  auto fed = PartitionAcrossDevices(*data, partition);
  ASSERT_TRUE(fed.ok());

  FedScOptions serial_options;
  serial_options.num_threads = 1;
  auto serial = RunFedSc(*fed, synth.num_subspaces, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : kThreadCounts) {
    FedScOptions options;
    options.num_threads = threads;
    auto threaded = RunFedSc(*fed, synth.num_subspaces, options);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();

    EXPECT_EQ(serial->global_labels, threaded->global_labels) << threads;
    EXPECT_EQ(serial->device_labels, threaded->device_labels) << threads;
    EXPECT_EQ(serial->local_cluster_counts, threaded->local_cluster_counts)
        << threads;
    EXPECT_EQ(serial->total_samples, threaded->total_samples) << threads;
    EXPECT_EQ(serial->sample_labels, threaded->sample_labels) << threads;
    ExpectBitIdentical(serial->samples, threaded->samples, "pooled samples");
  }
}

}  // namespace
}  // namespace fedsc
