#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "admm_reference.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "metrics/clustering_metrics.h"
#include "sc/affinity.h"
#include "sc/pipeline.h"

namespace fedsc {
namespace {

// Fraction of affinity mass that crosses ground-truth clusters; 0 means the
// graph satisfies the self-expressiveness property (SEP).
double CrossClusterMass(const SparseMatrix& w,
                        const std::vector<int64_t>& truth) {
  double cross = 0.0;
  double total = 0.0;
  for (int64_t r = 0; r < w.rows(); ++r) {
    for (int64_t k = w.row_ptr()[static_cast<size_t>(r)];
         k < w.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = w.col_idx()[static_cast<size_t>(k)];
      const double v = std::fabs(w.values()[static_cast<size_t>(k)]);
      total += v;
      if (truth[static_cast<size_t>(r)] != truth[static_cast<size_t>(c)]) {
        cross += v;
      }
    }
  }
  return total > 0.0 ? cross / total : 0.0;
}

Dataset EasySubspaces(int64_t num_subspaces, int64_t per_subspace,
                      uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = 30;
  options.subspace_dim = 3;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(AffinityTest, FromCoefficientsSymmetrizesAbs) {
  const SparseMatrix c =
      SparseMatrix::FromTriplets(3, 3, {{0, 1, -2.0}, {2, 1, 1.0}});
  const Matrix w = AffinityFromCoefficients(c).ToDense();
  EXPECT_EQ(w(0, 1), 2.0);
  EXPECT_EQ(w(1, 0), 2.0);
  EXPECT_EQ(w(2, 1), 1.0);
  EXPECT_EQ(w(1, 2), 1.0);
  EXPECT_TRUE(AllClose(w, w.Transposed(), 0.0));
}

TEST(SscAdmmTest, SelfExpressionReconstructsPoints) {
  const Dataset data = EasySubspaces(3, 25, 42);
  auto c = SscSelfExpression(data.points);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  // X C ~ X column-wise.
  const Matrix dense_c = c->ToDense();
  const Matrix reconstruction = MatMul(data.points, dense_c);
  const Matrix diff = reconstruction - data.points;
  EXPECT_LT(diff.FrobeniusNorm() / data.points.FrobeniusNorm(), 0.05);
  // Diagonal is zero.
  for (int64_t i = 0; i < dense_c.rows(); ++i) {
    EXPECT_EQ(dense_c(i, i), 0.0);
  }
}

TEST(SscAdmmTest, SepOnWellSeparatedSubspaces) {
  const Dataset data = EasySubspaces(4, 30, 7);
  auto c = SscSelfExpression(data.points);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.02);
}

TEST(SscAdmmTest, LambdaRuleAndValidation) {
  const Dataset data = EasySubspaces(2, 10, 3);
  EXPECT_GT(SscLambda(data.points, 50.0), 0.0);
  SscAdmmOptions bad;
  bad.alpha = 0.5;
  EXPECT_FALSE(SscSelfExpression(data.points, bad).ok());
  EXPECT_FALSE(SscSelfExpression(Matrix(3, 1)).ok());
}

TEST(SscAdmmTest, LambdaFromPrecomputedGramMatchesAndIsThreadInvariant) {
  // Callers that already hold X^T X (the ADMM solver itself) must get the
  // exact same lambda without recomputing the Gram, for any thread count.
  const Dataset data = EasySubspaces(3, 40, 5);
  const double serial = SscLambda(data.points, 50.0);
  const Matrix gram = Gram(data.points);
  EXPECT_EQ(SscLambdaFromGram(gram, 50.0), serial);
  for (int threads : {2, 8}) {
    EXPECT_EQ(SscLambda(data.points, 50.0, threads), serial) << threads;
    EXPECT_EQ(SscLambdaFromGram(gram, 50.0, threads), serial) << threads;
  }
}

TEST(SscAdmmTest, OrthogonalPairIsDegenerate) {
  // Two exactly orthogonal points: mu = 0.
  const Matrix x = Matrix::FromColumns({{1, 0}, {0, 1}});
  EXPECT_EQ(SscSelfExpression(x).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SscOmpTest, SupportsStayWithinSubspace) {
  const Dataset data = EasySubspaces(4, 25, 11);
  SscOmpOptions options;
  options.max_support = 3;
  auto c = SscOmpSelfExpression(data.points, options);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.05);
  EXPECT_FALSE(SscOmpSelfExpression(Matrix(3, 1)).ok());
}

TEST(TscTest, NeighborsAreWithinSubspace) {
  const Dataset data = EasySubspaces(4, 30, 13);
  TscOptions options;
  options.q = 3;
  auto w = TscAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.05);
}

TEST(TscTest, WeightsAreSphericalDistances) {
  // Three points: x1 close to x0, x2 orthogonal-ish.
  Matrix x = Matrix::FromColumns({{1, 0}, {0.9, std::sqrt(1 - 0.81)}, {0, 1}});
  TscOptions options;
  options.q = 1;
  auto w = TscAffinity(x, options);
  ASSERT_TRUE(w.ok());
  const Matrix dense = w->ToDense();
  // Edge 0-1 carries weight >= exp(-2 acos(0.9)).
  EXPECT_GE(dense(0, 1), std::exp(-2.0 * std::acos(0.9)) - 1e-9);
  EXPECT_FALSE(TscAffinity(x, {.q = 0}).ok());
  EXPECT_FALSE(TscAffinity(x, {.q = 3}).ok());
}

TEST(NsnTest, NeighborsAreWithinSubspace) {
  const Dataset data = EasySubspaces(4, 30, 17);
  NsnOptions options;
  options.num_neighbors = 4;
  options.max_subspace_dim = 3;
  auto w = NsnAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.08);
  // 0/1 weights.
  for (double v : w->values()) EXPECT_EQ(v, 1.0);
}

TEST(NsnTest, RejectsBadNeighborCount) {
  EXPECT_FALSE(NsnAffinity(Matrix(3, 5), {.num_neighbors = 0}).ok());
  EXPECT_FALSE(NsnAffinity(Matrix(3, 5), {.num_neighbors = 5}).ok());
}

TEST(EnscTest, SelfExpressionHoldsSep) {
  const Dataset data = EasySubspaces(4, 25, 19);
  auto c = EnscSelfExpression(data.points);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.05);
}

TEST(EnscTest, MixValidation) {
  EXPECT_FALSE(EnscSelfExpression(Matrix(3, 5), {.mix = 0.0}).ok());
  EXPECT_FALSE(EnscSelfExpression(Matrix(3, 5), {.mix = 1.5}).ok());
}

class PipelineMethodTest : public ::testing::TestWithParam<ScMethod> {};

TEST_P(PipelineMethodTest, ClustersEasySubspacesAccurately) {
  const Dataset data = EasySubspaces(4, 30, 23);
  ScPipelineOptions options;
  options.method = GetParam();
  options.tsc.q = 5;
  options.nsn.num_neighbors = 5;
  options.ssc_omp.max_support = 3;
  auto result = RunSubspaceClustering(data.points, data.num_clusters, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(ClusteringAccuracy(data.labels, result->labels), 97.0)
      << ScMethodName(GetParam());
  EXPECT_GT(result->seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PipelineMethodTest,
                         ::testing::Values(ScMethod::kSsc, ScMethod::kSscOmp,
                                           ScMethod::kEnsc, ScMethod::kTsc,
                                           ScMethod::kNsn, ScMethod::kEsc),
                         [](const auto& info) {
                           return ScMethodName(info.param);
                         });

TEST(PipelineTest, NoisyDataStillClusters) {
  SyntheticOptions options;
  options.ambient_dim = 30;
  options.subspace_dim = 3;
  options.num_subspaces = 3;
  options.points_per_subspace = 40;
  options.noise_stddev = 0.03;
  options.seed = 29;
  auto data = GenerateUnionOfSubspaces(options);
  ASSERT_TRUE(data.ok());
  auto result = RunSubspaceClustering(data->points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(data->labels, result->labels), 95.0);
}

TEST(PipelineTest, InvalidClusterCount) {
  EXPECT_FALSE(RunSubspaceClustering(Matrix(3, 5), 0).ok());
  EXPECT_FALSE(RunSubspaceClustering(Matrix(3, 5), 6).ok());
}

TEST(PipelineTest, MethodNames) {
  EXPECT_STREQ(ScMethodName(ScMethod::kSsc), "SSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kSscOmp), "SSCOMP");
  EXPECT_STREQ(ScMethodName(ScMethod::kEnsc), "EnSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kTsc), "TSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kNsn), "NSN");
}

TEST(SscAdmmTest, DeadlineExceededSurfacesAsStatus) {
  const Dataset data = EasySubspaces(4, 60, 31);
  SscAdmmOptions options;
  options.deadline_seconds = 1e-9;  // impossible budget
  EXPECT_EQ(SscSelfExpression(data.points, options).status().code(),
            StatusCode::kDeadlineExceeded);
  options.deadline_seconds = 60.0;  // generous budget: solves normally
  EXPECT_TRUE(SscSelfExpression(data.points, options).ok());
  // The sketched solve's blocks run under the same budget.
  SketchResult identity;
  identity.dictionary = data.points;
  identity.landmarks = IdentitySelfAtoms(data.points.cols());
  options.deadline_seconds = 1e-9;
  EXPECT_EQ(SscSketchedSelfExpression(data.points, identity, options)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

// Union of affine subspaces: offset points need the 1^T c = 1 constraint.
Dataset AffineSubspaces(uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_clusters = 3;
  const int64_t n = 12;
  const int64_t per = 25;
  data.points = Matrix(n, 3 * per);
  for (int64_t l = 0; l < 3; ++l) {
    const Matrix basis = RandomOrthonormalBasis(n, 2, &rng);
    Vector offset(static_cast<size_t>(n));
    for (auto& v : offset) v = 2.0 * rng.Gaussian();
    for (int64_t p = 0; p < per; ++p) {
      double* col = data.points.ColData(l * per + p);
      const Vector coeff = rng.GaussianVector(2);
      Gemv(Trans::kNo, 1.0, basis, coeff.data(), 0.0, col);
      Axpy(1.0, offset.data(), col, n);
      data.labels.push_back(l);
    }
  }
  return data;
}

TEST(SscAdmmTest, AffineConstraintIsSatisfied) {
  const Dataset data = AffineSubspaces(71);
  SscAdmmOptions options;
  options.affine = true;
  options.drop_tol = 0.0;
  options.max_iterations = 400;
  SscAdmmInfo info;
  auto c = SscSelfExpression(data.points, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  // The constraint must survive the affine dual's rescale at a rho change.
  EXPECT_GT(info.rho_updates, 0);
  EXPECT_TRUE(info.converged);
  const Matrix dense = c->ToDense();
  for (int64_t j = 0; j < dense.cols(); ++j) {
    double colsum = 0.0;
    for (int64_t i = 0; i < dense.rows(); ++i) colsum += dense(i, j);
    EXPECT_NEAR(colsum, 1.0, 0.05) << "column " << j;
  }
}

TEST(SscAdmmTest, AffineModeClustersAffineData) {
  const Dataset data = AffineSubspaces(73);
  ScPipelineOptions options;
  options.method = ScMethod::kSsc;
  options.normalize_columns = false;  // normalization destroys offsets
  options.ssc.affine = true;
  auto affine = RunSubspaceClustering(data.points, 3, options);
  ASSERT_TRUE(affine.ok()) << affine.status().ToString();
  EXPECT_GE(ClusteringAccuracy(data.labels, affine->labels), 95.0);
}

TEST(EscTest, ExemplarsAreDistinctAndSpreadAcrossClusters) {
  const Dataset data = EasySubspaces(4, 30, 79);
  EscOptions options;
  options.num_exemplars = 12;
  auto exemplars = SelectExemplars(data.points, options);
  ASSERT_TRUE(exemplars.ok()) << exemplars.status().ToString();
  ASSERT_EQ(exemplars->size(), 12u);
  std::set<int64_t> unique(exemplars->begin(), exemplars->end());
  EXPECT_EQ(unique.size(), 12u);
  // Farthest-first in representation cost must touch every cluster.
  std::set<int64_t> covered;
  for (int64_t e : *exemplars) {
    covered.insert(data.labels[static_cast<size_t>(e)]);
  }
  EXPECT_EQ(covered.size(), 4u);
}

TEST(EscTest, AffinityHoldsSepAndClusters) {
  const Dataset data = EasySubspaces(4, 30, 83);
  EscOptions options;
  options.num_exemplars = 16;
  options.q_neighbors = 5;
  auto w = EscAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.10);

  ScPipelineOptions pipeline;
  pipeline.method = ScMethod::kEsc;
  pipeline.esc = options;
  auto result = RunSubspaceClustering(data.points, 4, pipeline);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(data.labels, result->labels), 95.0);
}

TEST(EscTest, Validation) {
  EXPECT_FALSE(EscAffinity(Matrix(3, 1), {}).ok());
  EXPECT_FALSE(EscAffinity(Matrix(3, 5), {.num_exemplars = 0}).ok());
  EXPECT_FALSE(
      EscAffinity(Matrix(3, 5), {.num_exemplars = 2, .q_neighbors = 5}).ok());
}

TEST(SscAdmmInfoTest, ConvergedSolveReportsIterationsBelowBudget) {
  const Dataset data = EasySubspaces(3, 30, 91);
  Matrix x = data.points;
  x.NormalizeColumns();

  SscAdmmOptions options;
  // The default tolerance, which this dataset reaches well inside the
  // budget; the point is that a converged solve reports iterations strictly
  // below it, with each residual within its own threshold.
  options.max_iterations = 500;
  SscAdmmInfo info;
  auto c = SscSelfExpression(x, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(info.converged);
  EXPECT_GT(info.iterations, 0);
  EXPECT_LT(info.iterations, options.max_iterations);
  EXPECT_GT(info.primal_threshold, 0.0);
  EXPECT_GT(info.dual_threshold, 0.0);
  EXPECT_LE(info.primal_residual, info.primal_threshold);
  EXPECT_LE(info.dual_residual, info.dual_threshold);
  EXPECT_LE(info.final_residual, 1.0);
  EXPECT_GE(info.final_residual, 0.0);
  EXPECT_GT(info.final_rho, 0.0);
}

TEST(SscAdmmInfoTest, LocalShapedSolveConvergesAtDefaultOptions) {
  // The shape of one device's local solve: D = 20, two 4-dim subspaces,
  // N = 120. The default rule must stop it for a stated reason inside the
  // default 200-iteration budget.
  SyntheticOptions synth;
  synth.ambient_dim = 20;
  synth.subspace_dim = 4;
  synth.num_subspaces = 2;
  synth.points_per_subspace = 60;
  synth.seed = 94;
  auto data = GenerateUnionOfSubspaces(synth);
  ASSERT_TRUE(data.ok());
  Matrix x = data->points;
  x.NormalizeColumns();

  const SscAdmmOptions options;
  SscAdmmInfo info;
  auto c = SscSelfExpression(x, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(info.converged);
  EXPECT_LT(info.iterations, 200);
  EXPECT_LE(info.final_residual, 1.0);
}

TEST(SscAdmmInfoTest, IterationStarvedSolveReportsNotConverged) {
  const Dataset data = EasySubspaces(3, 20, 92);
  Matrix x = data.points;
  x.NormalizeColumns();

  SscAdmmOptions options;
  options.max_iterations = 2;  // far too few to reach tol
  SscAdmmInfo info;
  auto c = SscSelfExpression(x, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(info.converged);
  EXPECT_EQ(info.iterations, options.max_iterations);
  EXPECT_GE(info.final_residual, options.tol);
}

// The exact solve with the Z-update applied the plain way: the explicit
// inverse (lambda X^T X + rho I)^{-1} times lambda X^T X + rho (C - U) (plus
// the affine terms), re-inverted whenever the penalty schedule moves rho.
// The solver's factored/direct operator must track it.
struct ReferenceSolve {
  Matrix c;
  int iterations = 0;
  double rho = 0.0;
  int rho_updates = 0;
};

// A dense starting iterate for the reference loop (non-affine only).
struct ReferenceStart {
  Matrix c;
  Matrix u;
  double rho = 0.0;
};

ReferenceSolve ReferenceSsc(const Matrix& x, const SscAdmmOptions& options,
                            const ReferenceStart* start = nullptr) {
  const int64_t num_points = x.cols();
  const Matrix gram = Gram(x);
  const double lambda = SscLambdaFromGram(gram, options.alpha);
  double rho = start != nullptr    ? start->rho
               : options.rho > 0.0 ? options.rho
                                   : options.alpha;
  Matrix lambda_gram = gram;
  lambda_gram *= lambda;

  Matrix h_inverse;
  Vector h_ones;
  double affine_scale = 0.0;
  const auto invert = [&] {
    Matrix h = lambda_gram;
    for (int64_t i = 0; i < num_points; ++i) h(i, i) += rho;
    h_inverse = SpdInverse(h).value();
    if (options.affine) {
      h_ones = Gemv(Trans::kNo, h_inverse,
                    Vector(static_cast<size_t>(num_points), 1.0));
      double dot_1h1 = 0.0;
      for (double v : h_ones) dot_1h1 += v;
      affine_scale = rho / (1.0 + rho * dot_1h1);
    }
  };
  invert();
  Vector u_affine(static_cast<size_t>(num_points), 0.0);

  Matrix c = start != nullptr ? start->c : Matrix(num_points, num_points);
  Matrix u = start != nullptr ? start->u : Matrix(num_points, num_points);
  std::vector<ReferenceColumnSums> sums(static_cast<size_t>(num_points));
  int iteration = 0;
  int rho_updates = 0;
  bool converged = false;
  while (iteration < options.max_iterations && !converged) {
    Matrix rhs = c;
    rhs -= u;
    rhs *= rho;
    rhs += lambda_gram;
    if (options.affine) {
      for (int64_t j = 0; j < num_points; ++j) {
        for (int64_t i = 0; i < num_points; ++i) {
          rhs(i, j) += rho * (1.0 - u_affine[static_cast<size_t>(j)]);
        }
      }
    }
    Matrix z = MatMul(h_inverse, rhs);
    for (int64_t j = 0; j < num_points; ++j) {
      ReferenceColumnSums& col = sums[static_cast<size_t>(j)];
      col = {};
      if (options.affine) {
        double colsum = 0.0;
        for (int64_t i = 0; i < num_points; ++i) colsum += z(i, j);
        Axpy(-affine_scale * colsum, h_ones.data(), z.ColData(j),
             num_points);
        colsum = 0.0;
        for (int64_t i = 0; i < num_points; ++i) colsum += z(i, j);
        u_affine[static_cast<size_t>(j)] += colsum - 1.0;
        col.primal = (colsum - 1.0) * (colsum - 1.0);
      }
      double primal = 0.0;
      for (int64_t i = 0; i < num_points; ++i) {
        const double v = z(i, j) + u(i, j);
        const double t = 1.0 / rho;
        const double next =
            i == j ? 0.0 : (v > t ? v - t : (v < -t ? v + t : 0.0));
        primal += (z(i, j) - next) * (z(i, j) - next);
        col.dual += (next - c(i, j)) * (next - c(i, j));
        col.z += z(i, j) * z(i, j);
        col.c += next * next;
        c(i, j) = next;
        u(i, j) += z(i, j) - next;
        col.u += u(i, j) * u(i, j);
      }
      col.primal += primal;
    }
    ++iteration;
    const ReferenceDecision decision = ReferenceStoppingRule(
        sums, num_points, rho, options.tol, iteration, options.max_iterations);
    converged = decision.converged;
    if (decision.next_rho != rho) {
      u *= rho / decision.next_rho;
      for (double& v : u_affine) v *= rho / decision.next_rho;
      rho = decision.next_rho;
      invert();
      ++rho_updates;
    }
  }
  return {std::move(c), iteration, rho, rho_updates};
}

Matrix GaussianColumns(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  return x;
}

// num_points unit points on `count` random subspaces of R^dim, each of
// dimension subspace_dim and holding num_points / count of them: rank
// count * subspace_dim when that is at most min(dim, num_points).
Matrix SubspacePoints(int64_t dim, int64_t num_points, int64_t count,
                      int64_t subspace_dim, uint64_t seed,
                      double noise_stddev = 0.0) {
  SyntheticOptions options;
  options.ambient_dim = dim;
  options.subspace_dim = subspace_dim;
  options.num_subspaces = count;
  options.points_per_subspace = num_points / count;
  options.noise_stddev = noise_stddev;
  options.seed = seed;
  return GenerateUnionOfSubspaces(options).value().points;
}

struct DifferentialCase {
  std::string name;
  Matrix x;
  bool affine = false;
  // When > 0, the rows of the dictionary the solve must run over.
  int64_t dictionary_rows = 0;
};

// The solver's C agrees with the reference to 1e-8 of its largest entry,
// after the same number of iterations and the same penalty schedule.
void ExpectMatchesReference(const DifferentialCase& test) {
  SscAdmmOptions options;
  options.affine = test.affine;
  options.drop_tol = 0.0;
  const ReferenceSolve reference = ReferenceSsc(test.x, options);
  SscAdmmInfo info;
  auto c = SscSelfExpression(test.x, options, &info);
  ASSERT_TRUE(c.ok()) << test.name << ": " << c.status().ToString();
  const double scale = reference.c.MaxAbs();
  ASSERT_GT(scale, 0.0) << test.name;
  EXPECT_LE((c->ToDense() - reference.c).MaxAbs(), 1e-8 * scale)
      << test.name;
  EXPECT_EQ(info.iterations, reference.iterations) << test.name;
  EXPECT_EQ(info.final_rho, reference.rho) << test.name;
  EXPECT_EQ(info.rho_updates, reference.rho_updates) << test.name;
  if (test.dictionary_rows > 0) {
    EXPECT_EQ(info.dictionary_rows, test.dictionary_rows) << test.name;
  }
}

TEST(SscAdmmDifferentialTest, OperatorMatchesTheExplicitInverse) {
  std::vector<DifferentialCase> cases;
  // Both sides of the factored (n < N) / direct (n >= N) rule, at the edge.
  cases.push_back({"n=N-1", GaussianColumns(11, 12, 1)});
  cases.push_back({"n=N", GaussianColumns(12, 12, 2)});
  cases.push_back({"subspaces factored", EasySubspaces(3, 20, 3).points});
  cases.push_back({"subspaces direct", EasySubspaces(2, 12, 4).points});
  // Above the sketched solve's 256-column block: the exact solve still
  // stops on one rule over all N columns, as the reference does.
  cases.push_back({"subspaces factored N=264", EasySubspaces(4, 66, 6).points});
  // A duplicated column makes X^T X singular; H stays SPD through rho.
  for (const auto& [rows, cols] : {std::pair<int64_t, int64_t>{10, 25},
                                   std::pair<int64_t, int64_t>{30, 20}}) {
    Matrix x = GaussianColumns(rows, cols, 5 + rows);
    x.SetCol(7, x.ColData(3));
    cases.push_back({"duplicate " + std::to_string(rows), std::move(x)});
  }
  // Column scales spanning 1e-3 .. 1e3 before normalization.
  for (const auto& [rows, cols] : {std::pair<int64_t, int64_t>{8, 30},
                                   std::pair<int64_t, int64_t>{30, 24}}) {
    Matrix x = GaussianColumns(rows, cols, 9 + rows);
    Rng rng(rows);
    for (int64_t j = 0; j < cols; ++j) {
      Scal(std::pow(10.0, rng.Uniform(-3.0, 3.0)), x.ColData(j), rows);
    }
    cases.push_back({"scaled " + std::to_string(rows), std::move(x)});
  }
  for (DifferentialCase& test : cases) test.x.NormalizeColumns();
  // Affine mode, unnormalized affine data, on both sides of the rule.
  cases.push_back({"affine factored", AffineSubspaces(71).points, true});
  cases.push_back(
      {"affine direct", AffineSubspaces(72).points.ColRange(0, 10), true});
  // Rank-deficient data, where the solve runs over the k x N Cholesky
  // factor R of X^T X whenever that is cheaper than X (k < N / 2 at D >= N,
  // k < D at D < N): k = 1, a device's L' d = 2 x 4, and min(D, N) - 1.
  // D = 60 >= N = 40 takes R for k <= 19, D = 20 < N = 50 for k <= 19.
  cases.push_back({"tall k=1", SubspacePoints(60, 40, 1, 1, 201), false, 1});
  cases.push_back({"tall k=8", SubspacePoints(60, 40, 2, 4, 202), false, 8});
  cases.push_back(
      {"tall k=39", SubspacePoints(60, 40, 1, 39, 203), false, 60});
  cases.push_back({"wide k=1", SubspacePoints(20, 50, 1, 1, 204), false, 1});
  cases.push_back({"wide k=8", SubspacePoints(20, 50, 2, 4, 205), false, 8});
  cases.push_back(
      {"wide k=19", SubspacePoints(20, 50, 1, 19, 206), false, 19});
  // Three affine planes in R^12 span 9 dimensions, under D = 12 < N = 75.
  cases.push_back({"affine k=9", AffineSubspaces(74).points, true, 9});

  for (const DifferentialCase& test : cases) ExpectMatchesReference(test);
}

// A warm start: the solve over a changed pool (points dropped, points
// added, the order shuffled) started from the previous solve's iterate
// tracks the explicit-inverse reference started from the same C, U and rho,
// laid out densely by hand; and it needs fewer iterations than a cold solve.
TEST(SscAdmmWarmStartTest, MatchesTheReferenceFromTheMappedIterate) {
  for (const auto& [name, all] :
       {std::pair<std::string, Matrix>{"factored",
                                       EasySubspaces(3, 24, 81).points},
        std::pair<std::string, Matrix>{"reduced",
                                       SubspacePoints(60, 72, 3, 3, 82)},
        std::pair<std::string, Matrix>{"direct",
                                       EasySubspaces(2, 10, 83).points}}) {
    SCOPED_TRACE(name);
    Matrix x = all;
    x.NormalizeColumns();
    const int64_t total = x.cols();
    // The first pool: every column but the last sixth; the second drops
    // every fifth of those, adds the last sixth and reverses the order.
    const int64_t first = total - total / 6;
    std::vector<int64_t> first_cols;
    for (int64_t j = 0; j < first; ++j) first_cols.push_back(j);
    std::vector<int64_t> second_cols;
    std::vector<int64_t> source;
    for (int64_t j = total - 1; j >= 0; --j) {
      if (j < first && j % 5 == 0) continue;
      second_cols.push_back(j);
      source.push_back(j < first ? j : -1);
    }
    const Matrix x1 = x.GatherCols(first_cols);
    const Matrix x2 = x.GatherCols(second_cols);
    const auto n2 = static_cast<int64_t>(second_cols.size());

    SscAdmmOptions options;
    options.drop_tol = 0.0;
    SscAdmmIterate iterate;
    ASSERT_TRUE(SscSelfExpression(x1, options, nullptr, &iterate).ok());
    ASSERT_EQ(iterate.u.cols(), first);
    ASSERT_GT(iterate.rho, 0.0);
    EXPECT_TRUE(iterate.source.empty());

    ReferenceStart start;
    start.c = Matrix(n2, n2);
    start.u = Matrix(n2, n2);
    start.rho = iterate.rho;
    const Matrix stored_c = iterate.c.ToDense();
    int64_t carried = 0;
    for (int64_t j = 0; j < n2; ++j) {
      const int64_t sj = source[static_cast<size_t>(j)];
      if (sj < 0) continue;
      ++carried;
      for (int64_t i = 0; i < n2; ++i) {
        const int64_t si = source[static_cast<size_t>(i)];
        if (si < 0) continue;
        start.c(i, j) = stored_c(si, sj);
        start.u(i, j) = iterate.u(si, sj);
      }
    }
    const ReferenceSolve reference = ReferenceSsc(x2, options, &start);

    iterate.source = source;
    SscAdmmInfo warm;
    auto c = SscSelfExpression(x2, options, &warm, &iterate);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(warm.warm_columns, carried);
    const double scale = reference.c.MaxAbs();
    ASSERT_GT(scale, 0.0);
    EXPECT_LE((c->ToDense() - reference.c).MaxAbs(), 1e-8 * scale);
    EXPECT_EQ(warm.iterations, reference.iterations);
    EXPECT_EQ(warm.final_rho, reference.rho);
    EXPECT_EQ(warm.rho_updates, reference.rho_updates);
    // The final iterate replaces the stored one.
    EXPECT_TRUE(iterate.source.empty());
    EXPECT_EQ(iterate.u.cols(), n2);
    EXPECT_EQ(iterate.rho, warm.final_rho);

    SscAdmmInfo cold;
    ASSERT_TRUE(SscSelfExpression(x2, options, &cold).ok());
    EXPECT_EQ(cold.warm_columns, 0);
    EXPECT_LT(warm.iterations, cold.iterations);
  }
}

// A source map that does not fit is a typed error and leaves no iterate;
// affine mode never reads or returns one.
TEST(SscAdmmWarmStartTest, RejectsAMisfitSourceAndSkipsAffineMode) {
  Matrix x = EasySubspaces(2, 12, 84).points;
  x.NormalizeColumns();
  SscAdmmIterate stored;
  ASSERT_TRUE(SscSelfExpression(x, {}, nullptr, &stored).ok());
  const auto n = static_cast<int64_t>(x.cols());
  std::vector<std::vector<int64_t>> misfits;
  misfits.emplace_back(static_cast<size_t>(n - 1), -1);  // too short
  misfits.emplace_back(static_cast<size_t>(n), -1);
  misfits.back()[3] = n;  // past the stored iterate
  misfits.emplace_back(static_cast<size_t>(n), -1);
  misfits.back()[2] = misfits.back()[5] = 4;  // one stored column twice
  for (const std::vector<int64_t>& source : misfits) {
    SscAdmmIterate iterate = stored;
    iterate.source = source;
    auto c = SscSelfExpression(x, {}, nullptr, &iterate);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(iterate.u.empty());
    EXPECT_EQ(iterate.c.nnz(), 0);
  }

  SscAdmmOptions affine;
  affine.affine = true;
  SscAdmmIterate iterate = stored;
  iterate.source.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) iterate.source[static_cast<size_t>(j)] = j;
  SscAdmmInfo with_iterate;
  SscAdmmInfo without;
  auto c = SscSelfExpression(x, affine, &with_iterate, &iterate);
  auto reference = SscSelfExpression(x, affine, &without);
  ASSERT_TRUE(c.ok() && reference.ok());
  EXPECT_EQ(with_iterate.warm_columns, 0);
  EXPECT_EQ(with_iterate.iterations, without.iterations);
  EXPECT_EQ(c->values(), reference->values());
  EXPECT_TRUE(iterate.u.empty());
}

// The C-update runs eight rows at a time, then a scalar tail. N = 2..7 is
// all tail; from N = 8 on the pinned diagonal lands in a lane block for
// j < N / 8 * 8 and in the tail after it. 10-dimensional points put
// N <= 10 on the direct operator and N > 10 on the factored one.
TEST(SscAdmmDifferentialTest, LaneBoundaryMatchesTheExplicitInverse) {
  for (int64_t n = 2; n <= 17; ++n) {
    Matrix x = GaussianColumns(10, n, 100 + static_cast<uint64_t>(n));
    x.NormalizeColumns();
    ExpectMatchesReference({"N=" + std::to_string(n), std::move(x)});
  }
  // Affine mode adds a nonzero shift 1 - u_affine to every lane.
  const Matrix affine = AffineSubspaces(73).points;
  for (const int64_t n : {7, 8, 9, 15, 16, 17}) {
    ExpectMatchesReference(
        {"affine N=" + std::to_string(n), affine.ColRange(0, n), true});
  }
}

void ExpectSameCsr(const SparseMatrix& exact, const SparseMatrix& dictionary,
                   const std::string& name) {
  EXPECT_EQ(exact.rows(), dictionary.rows()) << name;
  EXPECT_EQ(exact.cols(), dictionary.cols()) << name;
  EXPECT_EQ(exact.row_ptr(), dictionary.row_ptr()) << name;
  EXPECT_EQ(exact.col_idx(), dictionary.col_idx()) << name;
  EXPECT_EQ(exact.values(), dictionary.values()) << name;
}

// mu by its definition: one Gemv per column, the largest |b_a^T x_j| over
// the atoms a != self_atom[j], minimized over j.
double GemvCoherenceFloor(const Matrix& b, const Matrix& x,
                          const std::vector<int64_t>& self_atom) {
  double mu = std::numeric_limits<double>::infinity();
  Vector scores(static_cast<size_t>(b.cols()));
  for (int64_t j = 0; j < x.cols(); ++j) {
    Gemv(Trans::kTrans, 1.0, b, x.ColData(j), 0.0, scores.data());
    double max_abs = 0.0;
    for (int64_t a = 0; a < b.cols(); ++a) {
      if (a != self_atom[static_cast<size_t>(j)]) {
        max_abs = std::max(max_abs, std::fabs(scores[static_cast<size_t>(a)]));
      }
    }
    mu = std::min(mu, max_abs);
  }
  return mu;
}

// The blocked-GEMM mu against the per-column definition, across the
// 256-column block seam, with landmark-pinned and free columns, on
// Gaussian data and on columns scaled over 1e-150..1e150.
TEST(DictionarySolveTest, CoherenceFloorMatchesPerColumnDefinition) {
  Rng rng(83);
  for (const bool scaled : {false, true}) {
    for (const int64_t num_points : {1, 255, 256, 257, 700}) {
      const int64_t num_atoms = 40;
      Matrix b = GaussianColumns(20, num_atoms, rng.Next());
      Matrix x = GaussianColumns(20, num_points, rng.Next());
      if (scaled) {
        for (Matrix* m : {&b, &x}) {
          for (int64_t j = 0; j < m->cols(); ++j) {
            Scal(std::pow(10.0, rng.Uniform(-150.0, 150.0)), m->ColData(j),
                 m->rows());
          }
        }
      }
      // Column j < num_atoms is atom j's landmark; the rest are free.
      std::vector<int64_t> self_atom(static_cast<size_t>(num_points), -1);
      for (int64_t j = 0; j < std::min(num_points, num_atoms); ++j) {
        self_atom[static_cast<size_t>(j)] = j;
      }
      const double reference = GemvCoherenceFloor(b, x, self_atom);
      ASSERT_GT(reference, 0.0);
      for (const int threads : {1, 3}) {
        EXPECT_NEAR(DictionaryCoherenceFloor(b, x, self_atom, threads),
                    reference, 1e-14 * reference)
            << "scaled=" << scaled << " N=" << num_points
            << " nt=" << threads;
      }
    }
  }
}

// Each exact solve is the dictionary solve with B = X and column j pinned
// off atom j: the sketched entry points given the identity sketch (B = X,
// landmarks 0..N-1) reproduce it. D = 120 puts N = 24 and 120 on the direct
// ADMM operator; the other shapes are factored.
TEST(DictionarySolveTest, ExactSolveIsTheIdentityDictionarySolve) {
  for (const int64_t dim : {20, 120}) {
    for (const int64_t num_points : {24, 120, 240}) {
      SyntheticOptions synthetic;
      synthetic.ambient_dim = dim;
      synthetic.subspace_dim = 4;
      synthetic.num_subspaces = 4;
      synthetic.points_per_subspace = num_points / 4;
      synthetic.noise_stddev = 0.05;
      synthetic.seed = static_cast<uint64_t>(dim * 1000 + num_points);
      auto data = GenerateUnionOfSubspaces(synthetic);
      ASSERT_TRUE(data.ok());
      const Matrix& x = data->points;
      SketchResult identity;
      identity.dictionary = x;
      identity.landmarks = IdentitySelfAtoms(num_points);
      for (const int threads : {1, 8}) {
        const std::string name = "D=" + std::to_string(dim) +
                                 " N=" + std::to_string(num_points) +
                                 " nt=" + std::to_string(threads);
        SscOmpOptions omp;
        omp.num_threads = threads;
        auto omp_exact = SscOmpSelfExpression(x, omp);
        auto omp_dictionary = SscOmpSketchedSelfExpression(x, identity, omp);
        ASSERT_TRUE(omp_exact.ok() && omp_dictionary.ok()) << name;
        ExpectSameCsr(*omp_exact, *omp_dictionary, "OMP " + name);

        TscOptions tsc;
        tsc.q = 5;
        tsc.num_threads = threads;
        auto tsc_exact = TscAffinity(x, tsc);
        auto tsc_dictionary = TscLandmarkCoefficients(x, identity, tsc);
        ASSERT_TRUE(tsc_exact.ok() && tsc_dictionary.ok()) << name;
        ExpectSameCsr(*tsc_exact,
                      AffinityFromCoefficients(*tsc_dictionary, threads),
                      "TSC " + name);

        SscAdmmOptions ssc;
        ssc.drop_tol = 0.0;
        ssc.num_threads = threads;
        // Both solves run at the same lambda: the dictionary scores B^T X
        // are the Gram's bits.
        EXPECT_EQ(SscLambdaFromGram(Gram(x, threads), ssc.alpha, threads),
                  ssc.alpha / DictionaryCoherenceFloor(
                                  x, x, identity.landmarks, threads))
            << name;
        SscAdmmInfo exact_info;
        SscAdmmInfo dictionary_info;
        auto ssc_exact = SscSelfExpression(x, ssc, &exact_info);
        auto ssc_dictionary =
            SscSketchedSelfExpression(x, identity, ssc, &dictionary_info);
        ASSERT_TRUE(ssc_exact.ok() && ssc_dictionary.ok()) << name;
        const Matrix exact_c = ssc_exact->ToDense();
        const double scale = exact_c.MaxAbs();
        ASSERT_GT(scale, 0.0) << name;
        EXPECT_LE((exact_c - ssc_dictionary->ToDense()).MaxAbs(),
                  1e-10 * scale)
            << name;
        EXPECT_EQ(exact_info.iterations, dictionary_info.iterations) << name;
        EXPECT_EQ(exact_info.rho_updates, dictionary_info.rho_updates)
            << name;
        EXPECT_EQ(exact_info.final_rho, dictionary_info.final_rho) << name;
      }
    }
  }
}

// The solve runs over R just below the break-even rank and over X at it, and
// a device whose Gram R cannot shrink enough (fleet_z2500's 50 x 12 rank-10
// panels, or noisy full-rank data) stays on X's operator. The rank is cut
// at rounding level, so rank-8 data under 1e-6 noise counts as full rank.
TEST(SscAdmmRouteTest, ReducedDictionaryOnlyBelowBreakEven) {
  struct RouteCase {
    std::string name;
    Matrix x;
    int64_t dictionary_rows;  // k when R is taken, else D
  };
  Matrix noisy = GaussianColumns(120, 60, 211);
  noisy.NormalizeColumns();
  std::vector<RouteCase> cases;
  // D = 60 >= N = 40: the direct operator costs 2 N^3, R's 4 k N^2.
  cases.push_back({"tall k=19", SubspacePoints(60, 40, 1, 19, 207), 19});
  cases.push_back({"tall k=20", SubspacePoints(60, 40, 2, 10, 208), 60});
  // D = 20 < N = 50: X's factored operator costs 4 D N^2.
  cases.push_back({"wide k=19", SubspacePoints(20, 50, 1, 19, 209), 19});
  cases.push_back({"wide k=20", SubspacePoints(20, 50, 2, 10, 210), 20});
  cases.push_back(
      {"fleet 50x12 k=10", SubspacePoints(50, 12, 2, 5, 212), 50});
  cases.push_back({"noisy full rank", std::move(noisy), 120});
  cases.push_back(
      {"rank 8 + 1e-6 noise", SubspacePoints(60, 40, 2, 4, 214, 1e-6), 60});
  for (const RouteCase& test : cases) {
    const bool reduced = test.dictionary_rows < test.x.rows();
    ResetMetrics();
    EnableMetrics(true);
    SscAdmmInfo info;
    auto c = SscSelfExpression(test.x, {}, &info);
    EnableMetrics(false);
    ASSERT_TRUE(c.ok()) << test.name << ": " << c.status().ToString();
    EXPECT_EQ(info.dictionary_rows, test.dictionary_rows) << test.name;
    const MetricsSnapshot metrics = SnapshotMetrics();
    EXPECT_EQ(metrics.counters.at("sc.ssc_admm.reduced_solves"),
              reduced ? 1 : 0)
        << test.name;
    EXPECT_EQ(metrics.histograms.at("sc.ssc_admm.dictionary_rows").max,
              test.dictionary_rows)
        << test.name;
  }
}

}  // namespace
}  // namespace fedsc
