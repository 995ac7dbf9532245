// Tests for the sketched central-clustering path: dictionary construction
// (sc/sketch.h), sketched self-expression, the landmark-mediated affinity,
// Nystrom spectral extension, the CentralPath dispatch contract, and the
// end-to-end federated round over the sketched engine.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admm_reference.h"
#include "common/journal.h"
#include "common/rng.h"
#include "core/fedsc.h"
#include "data/synthetic.h"
#include "fed/partition.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "metrics/clustering_metrics.h"
#include "sc/affinity.h"
#include "sc/pipeline.h"
#include "sc/sketch.h"

namespace fedsc {
namespace {

Dataset EasySubspaces(int64_t num_subspaces, int64_t per_subspace,
                      uint64_t seed, int64_t ambient = 30, int64_t dim = 3) {
  SyntheticOptions options;
  options.ambient_dim = ambient;
  options.subspace_dim = dim;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// Two clusters with very skewed sizes: `large` points in one subspace,
// `small` in another, columns normalized. Column order: large then small.
Matrix SkewedClusters(int64_t large, int64_t small, uint64_t seed) {
  const int64_t ambient = 24;
  const int64_t dim = 3;
  Rng rng(seed);
  const Matrix u1 = RandomOrthonormalBasis(ambient, dim, &rng);
  const Matrix u2 = RandomOrthonormalBasis(ambient, dim, &rng);
  Matrix x(ambient, large + small);
  for (int64_t j = 0; j < large + small; ++j) {
    const Matrix& basis = j < large ? u1 : u2;
    const Vector alpha = rng.GaussianVector(dim);
    const Vector col = Gemv(Trans::kNo, basis, alpha);
    x.SetCol(j, col.data());
  }
  x.NormalizeColumns();
  return x;
}

bool SparseExactlyEqual(const SparseMatrix& a, const SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values() == b.values();
}

TEST(SketchTest, KindNames) {
  EXPECT_STREQ(SketchKindName(SketchKind::kUniformLandmarks), "uniform");
  EXPECT_STREQ(SketchKindName(SketchKind::kLeverageLandmarks), "leverage");
}

TEST(SketchTest, DeterministicPerSeedAndBitIdenticalAcrossThreads) {
  const Dataset data = EasySubspaces(4, 50, 11);
  for (SketchKind kind :
       {SketchKind::kUniformLandmarks, SketchKind::kLeverageLandmarks}) {
    SketchOptions options;
    options.dim = 32;
    options.kind = kind;
    options.seed = 7;
    auto base = SketchDictionary(data.points, options);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base->dictionary.rows(), data.points.rows());
    EXPECT_EQ(base->dictionary.cols(), 32);
    // d distinct data columns, ascending.
    ASSERT_EQ(base->landmarks.size(), 32u);
    EXPECT_TRUE(
        std::is_sorted(base->landmarks.begin(), base->landmarks.end()));
    const std::set<int64_t> unique(base->landmarks.begin(),
                                   base->landmarks.end());
    EXPECT_EQ(unique.size(), base->landmarks.size());
    for (int threads : {2, 8}) {
      SketchOptions threaded = options;
      threaded.num_threads = threads;
      auto again = SketchDictionary(data.points, threaded);
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(AllClose(base->dictionary, again->dictionary, 0.0))
          << SketchKindName(kind) << " nt=" << threads;
      EXPECT_EQ(base->landmarks, again->landmarks)
          << SketchKindName(kind) << " nt=" << threads;
    }
    // A different seed draws a different sketch.
    SketchOptions reseeded = options;
    reseeded.seed = 8;
    auto other = SketchDictionary(data.points, reseeded);
    ASSERT_TRUE(other.ok());
    EXPECT_FALSE(AllClose(base->dictionary, other->dictionary, 0.0))
        << SketchKindName(kind);
  }
}

TEST(SketchTest, LeverageScoresFavorSmallClusters) {
  // 200 points share one 3-dim subspace, 12 points another: each small-
  // cluster column carries far more of its subspace's identity, so its
  // ridge leverage must be higher on average.
  const int64_t large = 200;
  const int64_t small = 12;
  const Matrix x = SkewedClusters(large, small, 5);
  auto scores = RidgeLeverageScores(x, 1e-6);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(scores->size()), large + small);
  double mean_large = 0.0;
  double mean_small = 0.0;
  for (int64_t j = 0; j < large; ++j) mean_large += (*scores)[j];
  for (int64_t j = large; j < large + small; ++j) mean_small += (*scores)[j];
  mean_large /= static_cast<double>(large);
  mean_small /= static_cast<double>(small);
  EXPECT_GT(mean_small, 2.0 * mean_large);

  // Thread counts do not change the scores.
  auto threaded = RidgeLeverageScores(x, 1e-6, 8);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(*scores, *threaded);
}

TEST(SketchTest, LeverageSamplingRepresentsSmallClusters) {
  const int64_t large = 200;
  const int64_t small = 12;
  const Matrix x = SkewedClusters(large, small, 9);
  SketchOptions options;
  options.dim = 16;
  options.kind = SketchKind::kLeverageLandmarks;
  options.seed = 13;
  auto sketch = SketchDictionary(x, options);
  ASSERT_TRUE(sketch.ok());
  int64_t small_landmarks = 0;
  for (int64_t landmark : sketch->landmarks) {
    if (landmark >= large) ++small_landmarks;
  }
  // Proportional sampling would expect 16 * 12/212 < 1 small-cluster
  // landmark; leverage sampling must keep the small subspace represented.
  EXPECT_GE(small_landmarks, 2);
}

TEST(SketchTest, RejectsDegenerateShapes) {
  const Matrix x = SkewedClusters(10, 5, 1);
  SketchOptions options;
  options.dim = 15;  // dim >= N has nothing to compress
  auto wide = SketchDictionary(x, options);
  EXPECT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  options.dim = 0;
  EXPECT_FALSE(SketchDictionary(x, options).ok());
  EXPECT_FALSE(SketchDictionary(Matrix(8, 0), options).ok());
  // A landmark that is not a column of x is rejected by every solve.
  SketchResult outside;
  outside.dictionary = x.ColRange(0, 2);
  outside.landmarks = {0, x.cols()};
  EXPECT_EQ(SscSketchedSelfExpression(x, outside).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SscOmpSketchedSelfExpression(x, outside).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TscLandmarkCoefficients(x, outside, TscOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CentralPathTest, ResolutionContract) {
  ScPipelineOptions options;
  // Explicit exact always wins.
  options.central = CentralPath::kExact;
  EXPECT_EQ(ResolveCentralPath(options, 100000, 8), CentralPath::kExact);
  // Explicit sketch falls back to exact only when the sketch cannot be
  // narrower than the data.
  options.central = CentralPath::kSketched;
  options.sketch.dim = 50;
  EXPECT_EQ(ResolveCentralPath(options, 30, 4), CentralPath::kExact);
  EXPECT_EQ(ResolveCentralPath(options, 500, 4), CentralPath::kSketched);
  // Auto switches at the documented pure-shape cutoff.
  options.central = CentralPath::kAuto;
  options.sketch.dim = 0;
  EXPECT_EQ(ResolveCentralPath(options, kSketchedCutoffN - 1, 8),
            CentralPath::kExact);
  EXPECT_EQ(ResolveCentralPath(options, kSketchedCutoffN, 8),
            CentralPath::kSketched);
  // Auto never picks a path that cannot host num_clusters centroids.
  options.sketch.dim = 16;
  EXPECT_EQ(ResolveCentralPath(options, kSketchedCutoffN, 17),
            CentralPath::kExact);
  // Methods without a sketched solver stay exact under auto.
  options.sketch.dim = 0;
  options.method = ScMethod::kNsn;
  EXPECT_EQ(ResolveCentralPath(options, kSketchedCutoffN, 8),
            CentralPath::kExact);

  // The shape rule: N/16 clamped to [128, 1024], always below N.
  EXPECT_EQ(SketchDimForShape(100000, 0), 1024);
  EXPECT_EQ(SketchDimForShape(4096, 0), 256);
  EXPECT_EQ(SketchDimForShape(1000, 0), 128);
  EXPECT_EQ(SketchDimForShape(50, 0), 49);
  EXPECT_EQ(SketchDimForShape(500, 64), 64);
}

TEST(CentralPathTest, ExactPathPinsAutoBitsBelowCutoff) {
  // Below the cutoff, kAuto must be byte-for-byte the kExact engine — the
  // "today's bits" contract for every existing caller.
  const Dataset data = EasySubspaces(3, 40, 17);
  ScPipelineOptions exact;
  exact.central = CentralPath::kExact;
  auto pinned = RunSubspaceClustering(data.points, 3, exact);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  auto automatic = RunSubspaceClustering(data.points, 3, {});
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(pinned->labels, automatic->labels);
  EXPECT_TRUE(SparseExactlyEqual(pinned->affinity, automatic->affinity));
  EXPECT_EQ(ClusteringAccuracy(data.labels, pinned->labels), 100.0);
}

TEST(CentralPathTest, SketchedNeedsClustersWithinSketchDim) {
  const Dataset data = EasySubspaces(4, 20, 23);
  ScPipelineOptions options;
  options.central = CentralPath::kSketched;
  options.sketch.dim = 3;
  auto result = RunSubspaceClustering(data.points, 4, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CentralPathTest, SketchedRejectsUnsupportedMethods) {
  const Dataset data = EasySubspaces(3, 30, 29);
  ScPipelineOptions options;
  options.method = ScMethod::kNsn;
  options.central = CentralPath::kSketched;
  options.sketch.dim = 16;
  auto result = RunSubspaceClustering(data.points, 3, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SketchedRunTest, RecoversClustersForEveryMethod) {
  const Dataset data = EasySubspaces(4, 80, 31);
  for (ScMethod method :
       {ScMethod::kSsc, ScMethod::kSscOmp, ScMethod::kTsc}) {
    ScPipelineOptions options;
    options.method = method;
    options.central = CentralPath::kSketched;
    options.sketch.dim = 64;
    options.sketch.seed = 2;
    auto result = RunSubspaceClustering(data.points, 4, options);
    ASSERT_TRUE(result.ok())
        << ScMethodName(method) << ": " << result.status().ToString();
    EXPECT_GE(ClusteringAccuracy(data.labels, result->labels), 95.0)
        << ScMethodName(method);
  }
}

TEST(SketchedRunTest, BitIdenticalAcrossThreadCounts) {
  const Dataset data = EasySubspaces(4, 80, 37);
  for (ScMethod method :
       {ScMethod::kSsc, ScMethod::kSscOmp, ScMethod::kTsc}) {
    auto run = [&](int threads) {
      ScPipelineOptions options;
      options.method = method;
      options.central = CentralPath::kSketched;
      options.sketch.dim = 48;
      options.sketch.seed = 4;
      options.num_threads = threads;
      return RunSubspaceClustering(data.points, 4, options);
    };
    auto serial = run(1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : {2, 8}) {
      auto threaded = run(threads);
      ASSERT_TRUE(threaded.ok());
      EXPECT_EQ(serial->labels, threaded->labels)
          << ScMethodName(method) << " nt=" << threads;
      EXPECT_TRUE(SparseExactlyEqual(serial->landmark_coefficients,
                                     threaded->landmark_coefficients))
          << ScMethodName(method) << " nt=" << threads;
      EXPECT_TRUE(SparseExactlyEqual(
          LandmarkAffinity(serial->landmark_coefficients),
          LandmarkAffinity(threaded->landmark_coefficients, threads)))
          << ScMethodName(method) << " nt=" << threads;
    }
  }
}

TEST(SketchedRunTest, LandmarkAffinityRespectsTopQMemoryBound) {
  // The sparsified landmark affinity may hold at most 2 N q entries (each
  // point emits q one-directional picks, symmetrized) — the O(N q) memory
  // contract that replaces the dense N x N graph.
  const Dataset data = EasySubspaces(4, 60, 41);
  const int64_t n = data.points.cols();
  ScPipelineOptions options;
  options.method = ScMethod::kSscOmp;
  options.central = CentralPath::kSketched;
  options.sketch.dim = 48;
  const int64_t q = kSketchTopQ;
  auto result = RunSubspaceClustering(data.points, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The run carries the coefficients, and the graph is built from them.
  EXPECT_EQ(result->affinity.nnz(), 0);
  const SparseMatrix affinity = RunAffinity(*result);
  EXPECT_LE(affinity.nnz(), 2 * n * q);
  EXPECT_GT(affinity.nnz(), 0);
  // The affinity-only entry point still builds that graph itself.
  Matrix normalized = data.points;
  normalized.NormalizeColumns();
  auto built = BuildAffinity(normalized, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(SparseExactlyEqual(*built, affinity));
}

// The landmark affinity as it was first written: sort each point's whole
// touched list by index, then select its top q (score descending, index
// ascending) and sort the kept ones by index again.
SparseMatrix SortFirstLandmarkAffinity(const SparseMatrix& c, int64_t top_q) {
  const int64_t n = c.cols();
  const SparseMatrix ct = c.Transposed();
  std::vector<Triplet> triplets;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> scores(static_cast<size_t>(n), 0.0);
    std::vector<int64_t> touched;
    for (int64_t k = ct.row_ptr()[i]; k < ct.row_ptr()[i + 1]; ++k) {
      const int64_t a = ct.col_idx()[k];
      const double v_ia = std::fabs(ct.values()[k]);
      if (v_ia == 0.0) continue;
      for (int64_t m = c.row_ptr()[a]; m < c.row_ptr()[a + 1]; ++m) {
        const int64_t j = c.col_idx()[m];
        const double v_aj = std::fabs(c.values()[m]);
        if (j == i || v_aj == 0.0) continue;
        if (scores[j] == 0.0) touched.push_back(j);
        scores[j] += v_ia * v_aj;
      }
    }
    std::sort(touched.begin(), touched.end());
    if (top_q > 0 && top_q < static_cast<int64_t>(touched.size())) {
      std::nth_element(touched.begin(), touched.begin() + (top_q - 1),
                       touched.end(), [&](int64_t a, int64_t b) {
                         if (scores[a] != scores[b]) {
                           return scores[a] > scores[b];
                         }
                         return a < b;
                       });
      touched.resize(static_cast<size_t>(top_q));
      std::sort(touched.begin(), touched.end());
    }
    for (int64_t j : touched) {
      triplets.push_back({i, j, scores[j]});
      triplets.push_back({j, i, scores[j]});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

// Coefficients of magnitude 1 or 2 over 5 atoms make most neighbor scores
// equal, so the top-q cut falls inside long runs of tied scores, where only
// the index tie-break decides. Selecting first and sorting only the kept q
// must emit the sort-first triplets bit for bit, for every q (including
// q <= 0 and q past every touched list) and thread count.
TEST(SketchedRunTest, LandmarkAffinityTopQMatchesSortFirstUnderTies) {
  constexpr int64_t kAtoms = 5;
  constexpr int64_t kPoints = 150;
  Rng rng(43);
  std::vector<Triplet> entries;
  for (int64_t j = 0; j < kPoints; ++j) {
    for (int64_t a = 0; a < kAtoms; ++a) {
      if (rng.Uniform() < 0.4) continue;
      const double magnitude = rng.Uniform() < 0.8 ? 1.0 : 2.0;
      entries.push_back({a, j, rng.Uniform() < 0.5 ? -magnitude : magnitude});
    }
  }
  const SparseMatrix c =
      SparseMatrix::FromTriplets(kAtoms, kPoints, std::move(entries));
  for (int64_t q : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{10},
                    int64_t{60}, kPoints}) {
    const SparseMatrix expected = SortFirstLandmarkAffinity(c, q);
    for (int threads : {1, 2, 8}) {
      EXPECT_TRUE(SparseExactlyEqual(
          AffinityFromLandmarkCoefficients(c, q, threads), expected))
          << "q=" << q << " nt=" << threads;
    }
  }
}

TEST(SketchedRunTest, EndToEndFederatedRoundWithFaultsAndDefense) {
  // The full one-shot protocol over the sketched engine, under injected
  // faults with the Byzantine defense on: the round must complete, journal
  // the sketched dispatch, and still recover the clusters.
  SyntheticOptions synth;
  synth.ambient_dim = 24;
  synth.subspace_dim = 3;
  synth.num_subspaces = 4;
  synth.points_per_subspace = 60;
  synth.seed = 43;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = 16;
  partition.clusters_per_device = 2;
  partition.seed = 77;
  auto fed = PartitionAcrossDevices(*data, partition);
  ASSERT_TRUE(fed.ok());

  FedScOptions options;
  options.central = CentralPath::kSketched;
  options.central_sketch.dim = 20;
  options.num_threads = 2;
  options.faults.dropout_rate = 0.15;
  options.faults.transient_rate = 0.2;
  options.faults.seed = 0xFA17;
  options.retry.max_attempts = 3;
  options.quorum = 0.5;
  options.defense.enabled = true;

  EnableJournal(true);
  ResetJournal();
  auto result = RunFedSc(*fed, 4, options);
  const std::vector<JournalEvent> journal = SnapshotJournal();
  EnableJournal(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The dispatch decision is part of the run ledger.
  bool saw_central_start = false;
  for (const JournalEvent& event : journal) {
    if (event.type != "central_start") continue;
    saw_central_start = true;
    bool saw_path = false;
    for (const auto& field : event.fields) {
      if (field.first == "central_path") {
        saw_path = true;
        EXPECT_EQ(field.second, "\"sketched\"");
      }
    }
    EXPECT_TRUE(saw_path);
  }
  EXPECT_TRUE(saw_central_start);

  // Quality over the covered points (failed devices carry the sentinel).
  std::vector<int64_t> truth;
  std::vector<int64_t> predicted;
  for (size_t i = 0; i < result->global_labels.size(); ++i) {
    if (result->global_labels[i] == FedScResult::kFailedDeviceLabel) continue;
    truth.push_back(data->labels[i]);
    predicted.push_back(result->global_labels[i]);
  }
  ASSERT_FALSE(truth.empty());
  EXPECT_GE(ClusteringAccuracy(truth, predicted), 80.0);
}

// The sketched solve with the Z-update applied the plain way: the explicit
// inverse (lambda B^T B + rho I)^{-1} times lambda B^T X_blk + rho (C - U),
// over the solver's fixed 256-column blocks with block-local stopping and a
// block-local penalty schedule. Returns the dense d x N coefficients;
// *iterations gets the max over blocks and *rho_updates the sum.
Matrix ReferenceSketchedSsc(const Matrix& x, const SketchResult& sketch,
                            const SscAdmmOptions& options, int* iterations,
                            int* rho_updates) {
  constexpr int64_t kBlockCols = 256;
  const Matrix& b = sketch.dictionary;
  const int64_t num_atoms = b.cols();
  const int64_t num_points = x.cols();
  std::vector<int64_t> self_atom(static_cast<size_t>(num_points), -1);
  for (size_t a = 0; a < sketch.landmarks.size(); ++a) {
    self_atom[static_cast<size_t>(sketch.landmarks[a])] =
        static_cast<int64_t>(a);
  }
  const Matrix scores = MatMulTN(b, x);
  double mu = std::numeric_limits<double>::infinity();
  for (int64_t j = 0; j < num_points; ++j) {
    double max_abs = 0.0;
    for (int64_t a = 0; a < num_atoms; ++a) {
      if (a != self_atom[static_cast<size_t>(j)]) {
        max_abs = std::max(max_abs, std::fabs(scores(a, j)));
      }
    }
    mu = std::min(mu, max_abs);
  }
  const double lambda = options.alpha / mu;
  const double initial_rho = options.rho > 0.0 ? options.rho : options.alpha;
  Matrix lambda_gram = Gram(b);
  lambda_gram *= lambda;
  const auto inverse = [&](double rho) {
    Matrix h = lambda_gram;
    for (int64_t a = 0; a < num_atoms; ++a) h(a, a) += rho;
    return SpdInverse(h).value();
  };

  Matrix c_all(num_atoms, num_points);
  *iterations = 0;
  *rho_updates = 0;
  for (int64_t j0 = 0; j0 < num_points; j0 += kBlockCols) {
    const int64_t j1 = std::min(num_points, j0 + kBlockCols);
    Matrix lambda_bx = MatMulTN(b, x.ColRange(j0, j1));
    lambda_bx *= lambda;
    double rho = initial_rho;
    Matrix h_inverse = inverse(rho);
    Matrix c(num_atoms, j1 - j0);
    Matrix u(num_atoms, j1 - j0);
    std::vector<ReferenceColumnSums> sums(static_cast<size_t>(j1 - j0));
    int iteration = 0;
    bool converged = false;
    while (iteration < options.max_iterations && !converged) {
      Matrix rhs = c;
      rhs -= u;
      rhs *= rho;
      rhs += lambda_bx;
      const Matrix z = MatMul(h_inverse, rhs);
      for (int64_t jj = 0; jj < j1 - j0; ++jj) {
        ReferenceColumnSums& col = sums[static_cast<size_t>(jj)];
        col = {};
        for (int64_t a = 0; a < num_atoms; ++a) {
          const double v = z(a, jj) + u(a, jj);
          const double t = 1.0 / rho;
          const double next =
              a == self_atom[static_cast<size_t>(j0 + jj)]
                  ? 0.0
                  : (v > t ? v - t : (v < -t ? v + t : 0.0));
          col.primal += (z(a, jj) - next) * (z(a, jj) - next);
          col.dual += (next - c(a, jj)) * (next - c(a, jj));
          col.z += z(a, jj) * z(a, jj);
          col.c += next * next;
          c(a, jj) = next;
          u(a, jj) += z(a, jj) - next;
          col.u += u(a, jj) * u(a, jj);
        }
      }
      ++iteration;
      const ReferenceDecision decision =
          ReferenceStoppingRule(sums, num_atoms, rho, options.tol, iteration,
                                options.max_iterations);
      converged = decision.converged;
      if (decision.next_rho != rho) {
        u *= rho / decision.next_rho;
        rho = decision.next_rho;
        h_inverse = inverse(rho);
        ++*rho_updates;
      }
    }
    *iterations = std::max(*iterations, iteration);
    for (int64_t jj = 0; jj < j1 - j0; ++jj) {
      c_all.SetCol(j0 + jj, c.ColData(jj));
    }
  }
  return c_all;
}

TEST(SketchedSscDifferentialTest, OperatorMatchesTheExplicitInverse) {
  struct Case {
    std::string name;
    Matrix x;
    SketchKind kind;
    int64_t dim;
  };
  // Ambient dim 30: dim 31 is factored (D = d - 1), dim 30 direct (D = d).
  std::vector<Case> cases = {
      {"uniform d=D+1", EasySubspaces(4, 50, 53).points,
       SketchKind::kUniformLandmarks, 31},
      {"uniform d=D", EasySubspaces(4, 50, 54).points,
       SketchKind::kUniformLandmarks, 30},
      {"leverage factored", EasySubspaces(4, 50, 55).points,
       SketchKind::kLeverageLandmarks, 64},
      {"leverage direct", EasySubspaces(4, 50, 56).points,
       SketchKind::kLeverageLandmarks, 16},
      // Two blocks, the second one partial.
      {"uniform two blocks", EasySubspaces(4, 75, 57).points,
       SketchKind::kUniformLandmarks, 48},
      // d % 8 in {1, 7}: one or seven atom rows run in the C-update's
      // scalar tail after its eight-row lane blocks. Most of the 200
      // columns are not landmarks, so their pinned row is -1.
      {"uniform d=33", EasySubspaces(4, 50, 59).points,
       SketchKind::kUniformLandmarks, 33},
      {"leverage d=23", EasySubspaces(4, 50, 60).points,
       SketchKind::kLeverageLandmarks, 23},
      {"uniform d=9", EasySubspaces(4, 50, 61).points,
       SketchKind::kUniformLandmarks, 9},
      {"leverage d=17", EasySubspaces(4, 50, 62).points,
       SketchKind::kLeverageLandmarks, 17},
  };
  // Column scales spanning 1e-3 .. 1e3 before normalization.
  Matrix scaled = EasySubspaces(4, 40, 58).points;
  Rng rng(58);
  for (int64_t j = 0; j < scaled.cols(); ++j) {
    Scal(std::pow(10.0, rng.Uniform(-3.0, 3.0)), scaled.ColData(j),
         scaled.rows());
  }
  scaled.NormalizeColumns();
  cases.push_back({"scaled leverage", scaled, SketchKind::kLeverageLandmarks,
                   40});
  cases.push_back({"scaled uniform", scaled, SketchKind::kUniformLandmarks, 20});

  for (bool duplicate : {false, true}) {
    for (const Case& test : cases) {
      SketchOptions sketch_options;
      sketch_options.dim = test.dim;
      sketch_options.kind = test.kind;
      sketch_options.seed = 3;
      auto sketch = SketchDictionary(test.x, sketch_options);
      ASSERT_TRUE(sketch.ok()) << test.name;
      const std::string name = test.name + (duplicate ? " duplicate" : "");
      if (duplicate) {
        // A duplicated atom makes B^T B singular; H stays SPD through rho.
        sketch->dictionary.SetCol(5, sketch->dictionary.ColData(2));
      }
      SscAdmmOptions options;
      options.drop_tol = 0.0;
      int reference_iterations = 0;
      int reference_rho_updates = 0;
      const Matrix reference =
          ReferenceSketchedSsc(test.x, *sketch, options, &reference_iterations,
                               &reference_rho_updates);
      SscAdmmInfo info;
      auto c = SscSketchedSelfExpression(test.x, *sketch, options, &info);
      ASSERT_TRUE(c.ok()) << name << ": " << c.status().ToString();
      const double scale = reference.MaxAbs();
      ASSERT_GT(scale, 0.0) << name;
      EXPECT_LE((c->ToDense() - reference).MaxAbs(), 1e-8 * scale) << name;
      EXPECT_EQ(info.iterations, reference_iterations) << name;
      EXPECT_EQ(info.rho_updates, reference_rho_updates) << name;
    }
  }
}

}  // namespace
}  // namespace fedsc
