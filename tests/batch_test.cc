// Batched tall-skinny factorizations (linalg/batch.h): fixed-rank requests
// and auto-rank requests with rel_tol >= kGramSigmaFloor take the Gram route
// on every panel shape and must span PrincipalSubspace's subspace with the
// same column count and orthonormal columns — falling back to the looped
// bits where the Gram route would lose orthonormality; auto-rank requests
// below the floor reproduce the per-panel PrincipalSubspace bits exactly
// (the looped route IS the per-panel call, fanned out); a panel's route and
// bits must not depend on its batch-mates, and every result must be
// bit-identical across thread counts.

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "linalg/batch.h"
#include "linalg/blas.h"
#include "linalg/qr.h"
#include "linalg/svd.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

// rows x cols panel whose columns live in a `rank`-dimensional subspace.
Matrix RankDeficientPanel(int64_t rows, int64_t cols, int64_t rank,
                          Rng* rng) {
  const Matrix u = RandomMatrix(rows, rank, rng);
  const Matrix c = RandomMatrix(rank, cols, rng);
  Matrix panel(rows, cols);
  Gemm(Trans::kNo, Trans::kNo, 1.0, u, c, 0.0, &panel);
  return panel;
}

// The ragged batch every test here starts from: full-rank and
// rank-deficient panels at n_i in {1, 3, 17, 50}, all D = 40 rows.
std::vector<Matrix> RaggedBatch(Rng* rng) {
  std::vector<Matrix> panels;
  panels.push_back(RandomMatrix(40, 1, rng));
  panels.push_back(RandomMatrix(40, 3, rng));
  panels.push_back(RankDeficientPanel(40, 17, 4, rng));
  panels.push_back(RandomMatrix(40, 17, rng));
  panels.push_back(RankDeficientPanel(40, 50, 2, rng));
  panels.push_back(RandomMatrix(40, 50, rng));
  return panels;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t j = 0; j < a.cols(); ++j) {
    for (int64_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << ", " << j << ")";
    }
  }
}

// Largest entry of U_a U_a^T - U_b U_b^T: zero iff the two orthonormal
// bases span the same subspace, and small iff the principal angles are.
double ProjectorDistance(const Matrix& a, const Matrix& b) {
  Matrix pa(a.rows(), a.rows());
  Matrix pb(b.rows(), b.rows());
  Gemm(Trans::kNo, Trans::kTrans, 1.0, a, a, 0.0, &pa);
  Gemm(Trans::kNo, Trans::kTrans, 1.0, b, b, 0.0, &pb);
  double worst = 0.0;
  for (int64_t j = 0; j < pa.cols(); ++j) {
    for (int64_t i = 0; i < pa.rows(); ++i) {
      worst = std::max(worst, std::abs(pa(i, j) - pb(i, j)));
    }
  }
  return worst;
}

double OrthonormalityError(const Matrix& u) {
  Matrix gram(u.cols(), u.cols());
  Gemm(Trans::kTrans, Trans::kNo, 1.0, u, u, 0.0, &gram);
  double worst = 0.0;
  for (int64_t j = 0; j < gram.cols(); ++j) {
    for (int64_t i = 0; i < gram.rows(); ++i) {
      const double want = i == j ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(gram(i, j) - want));
    }
  }
  return worst;
}

struct RouteCounts {
  int64_t gram = 0;
  int64_t looped = 0;
};

// Runs BatchedPrincipalSubspace with metrics on and counts the panels that
// took the Gram route and the looped route.
std::vector<Result<Matrix>> CountedBatch(const std::vector<Matrix>& panels,
                                         const BatchedSubspaceOptions& options,
                                         RouteCounts* counts) {
  ResetMetrics();
  EnableMetrics(true);
  std::vector<Result<Matrix>> out = BatchedPrincipalSubspace(panels, options);
  EnableMetrics(false);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  counts->gram = snapshot.counters.at("linalg.basis.gram");
  counts->looped = snapshot.counters.at("linalg.basis.looped");
  return out;
}

// Tall, wide and square panels, full-rank and rank-deficient: the shapes
// the auto-rank tests below sweep.
std::vector<Matrix> ShapeSweep(Rng* rng) {
  std::vector<Matrix> panels;
  panels.push_back(RandomMatrix(200, 12, rng));            // tall
  panels.push_back(RankDeficientPanel(40, 17, 4, rng));    // tall, rank 4
  panels.push_back(RandomMatrix(20, 60, rng));             // wide
  panels.push_back(RankDeficientPanel(6, 40, 3, rng));     // wide, rank 3
  panels.push_back(RandomMatrix(30, 30, rng));             // square
  panels.push_back(RankDeficientPanel(17, 17, 5, rng));    // square, rank 5
  panels.push_back(RandomMatrix(20, 16, rng));             // squat
  return panels;
}

// Below kGramSigmaFloor an auto-rank request cannot take the Gram route, so
// every panel of every shape returns PrincipalSubspace's bits.
TEST(BatchedSubspaceTest, LoopedEngineMatchesPrincipalSubspaceExactly) {
  Rng rng(311);
  std::vector<Matrix> panels = RaggedBatch(&rng);
  for (Matrix& panel : ShapeSweep(&rng)) panels.push_back(std::move(panel));
  for (double rel_tol : {1e-10, 1e-8, 0.5 * kGramSigmaFloor}) {
    BatchedSubspaceOptions options;
    options.rel_tol = rel_tol;
    RouteCounts counts;
    const std::vector<Result<Matrix>> batched =
        CountedBatch(panels, options, &counts);
    ASSERT_EQ(batched.size(), panels.size());
    EXPECT_EQ(counts.gram, 0) << "rel_tol " << rel_tol;
    EXPECT_EQ(counts.looped, static_cast<int64_t>(panels.size()));
    for (size_t i = 0; i < panels.size(); ++i) {
      const auto direct = PrincipalSubspace(panels[i], 0, rel_tol);
      ASSERT_EQ(batched[i].ok(), direct.ok()) << "panel " << i;
      if (direct.ok()) {
        ExpectBitEqual(*batched[i], *direct, "looped basis");
      }
    }
  }
}

TEST(BatchedSubspaceTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(313);
  std::vector<Matrix> panels = RaggedBatch(&rng);
  for (Matrix& panel : ShapeSweep(&rng)) panels.push_back(std::move(panel));
  // Looped auto rank, Gram fixed rank and Gram auto rank.
  const std::pair<int64_t, double> requests[] = {
      {0, 1e-8}, {3, 1e-8}, {0, 0.1}};
  for (const auto& [rank, rel_tol] : requests) {
    BatchedSubspaceOptions options;
    options.rank = rank;
    options.rel_tol = rel_tol;
    options.num_threads = 1;
    const std::vector<Result<Matrix>> serial =
        BatchedPrincipalSubspace(panels, options);
    for (int nt : {2, 8}) {
      options.num_threads = nt;
      const std::vector<Result<Matrix>> threaded =
          BatchedPrincipalSubspace(panels, options);
      ASSERT_EQ(threaded.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].ok(), threaded[i].ok()) << "panel " << i;
        if (serial[i].ok()) {
          ExpectBitEqual(*serial[i], *threaded[i], "thread invariance");
        }
      }
    }
  }
}

// The Gram route against its reference: the same column count as
// PrincipalSubspace, the same span to 1e-6 and orthonormal columns to
// 1e-10. The Gram route squares the condition number, so agreement is to
// ~sqrt(eps), not ulps — that is the documented contract.
void ExpectGramMatchesLooped(const std::vector<Matrix>& panels,
                             const BatchedSubspaceOptions& options) {
  RouteCounts counts;
  const auto batched = CountedBatch(panels, options, &counts);
  EXPECT_EQ(counts.gram, static_cast<int64_t>(panels.size()))
      << "rank " << options.rank << " rel_tol " << options.rel_tol;
  EXPECT_EQ(counts.looped, 0);
  for (size_t i = 0; i < panels.size(); ++i) {
    const auto looped =
        PrincipalSubspace(panels[i], options.rank, options.rel_tol);
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    ASSERT_TRUE(looped.ok());
    ASSERT_EQ(batched[i]->cols(), looped->cols())
        << "panel " << i << " rank " << options.rank << " rel_tol "
        << options.rel_tol;
    EXPECT_LT(ProjectorDistance(*batched[i], *looped), 1e-6)
        << "panel " << i << " rel_tol " << options.rel_tol;
    EXPECT_LT(OrthonormalityError(*batched[i]), 1e-10)
        << "panel " << i << " rel_tol " << options.rel_tol;
  }
}

TEST(BatchedSubspaceTest, GramEngineSpansTheSameSubspaceWithTheSameRank) {
  Rng rng(317);
  // Fixed rank on the ragged batch, the 1-column panel clamped to rank 1.
  // The rank-2 panel is left out: its third direction is rounding, so it
  // falls back to the looped route.
  std::vector<Matrix> ragged = RaggedBatch(&rng);
  ragged.erase(ragged.begin() + 4);
  BatchedSubspaceOptions fixed;
  fixed.rank = 3;
  ExpectGramMatchesLooped(ragged, fixed);

  // Auto rank on tall, wide and square panels.
  const std::vector<Matrix> panels = ShapeSweep(&rng);
  for (double rel_tol : {0.1, 1e-2, 1e-3}) {
    BatchedSubspaceOptions options;
    options.rel_tol = rel_tol;
    ExpectGramMatchesLooped(panels, options);
  }
}

// Which route a panel takes depends on the request and the panel alone:
// a panel's bits are the same in any batch, the Gram route's bits differ
// from the looped SVD's, and a request below the floor stays looped.
TEST(BatchedSubspaceTest, AutoEngineIsAPureFunctionOfShapeAndRank) {
  Rng rng(331);
  const std::vector<Matrix> panels = ShapeSweep(&rng);
  BatchedSubspaceOptions fixed;
  fixed.rank = 2;
  BatchedSubspaceOptions auto_rank;
  auto_rank.rel_tol = 0.1;
  for (const BatchedSubspaceOptions& options : {fixed, auto_rank}) {
    const auto picked = BatchedPrincipalSubspace(panels, options);
    for (size_t i = 0; i < panels.size(); ++i) {
      const auto alone = BatchedPrincipalSubspace({panels[i]}, options);
      ASSERT_TRUE(picked[i].ok() && alone[0].ok()) << "panel " << i;
      ExpectBitEqual(*picked[i], *alone[0], "batched vs alone");
      const auto looped =
          PrincipalSubspace(panels[i], options.rank, options.rel_tol);
      ASSERT_TRUE(looped.ok());
      ASSERT_EQ(picked[i]->cols(), looped->cols()) << "panel " << i;
      EXPECT_LT(ProjectorDistance(*picked[i], *looped), 1e-6);
      bool differs = false;
      for (int64_t j = 0; j < looped->cols(); ++j) {
        for (int64_t r = 0; r < looped->rows(); ++r) {
          differs |= (*picked[i])(r, j) != (*looped)(r, j);
        }
      }
      EXPECT_TRUE(differs) << "panel " << i << " should take the Gram route";
    }
  }

  // The same panels below the floor: every one returns the looped bits.
  BatchedSubspaceOptions below;
  below.rel_tol = 1e-5;
  const auto picked = BatchedPrincipalSubspace(panels, below);
  for (size_t i = 0; i < panels.size(); ++i) {
    ExpectBitEqual(*picked[i], *PrincipalSubspace(panels[i], 0, 1e-5),
                   "below-floor panels stay looped");
  }
}

TEST(BatchedSubspaceTest, ErrorsStayInTheirSlot) {
  Rng rng(337);
  std::vector<Matrix> panels;
  panels.push_back(RandomMatrix(12, 5, &rng));  // fine
  panels.push_back(Matrix(12, 0));              // empty: invalid argument
  panels.push_back(Matrix(12, 4));              // all-zero: rank 0
  panels.push_back(RandomMatrix(12, 3, &rng));  // fine
  // Auto rank below the floor (looped), auto rank above it and a fixed rank
  // (both on the Gram route).
  const std::pair<int64_t, double> requests[] = {
      {0, 1e-8}, {0, 0.1}, {2, 1e-8}};
  for (const auto& [rank, rel_tol] : requests) {
    BatchedSubspaceOptions options;
    options.rank = rank;
    options.rel_tol = rel_tol;
    const auto bases = BatchedPrincipalSubspace(panels, options);
    EXPECT_TRUE(bases[0].ok());
    EXPECT_EQ(bases[1].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bases[2].status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(bases[3].ok());
  }
}

// rows x cols panel U diag(s) V^T with orthonormal random U, V: its
// singular values are exactly `s` (up to rounding) and its rank s.size().
Matrix PanelWithSpectrum(int64_t rows, int64_t cols, const Vector& s,
                         Rng* rng) {
  const int64_t r = static_cast<int64_t>(s.size());
  auto u = HouseholderQr(RandomMatrix(rows, r, rng));
  auto v = HouseholderQr(RandomMatrix(cols, r, rng));
  Matrix us = u->q;
  for (int64_t j = 0; j < r; ++j) {
    Scal(s[static_cast<size_t>(j)], us.ColData(j), rows);
  }
  Matrix panel(rows, cols);
  Gemm(Trans::kNo, Trans::kTrans, 1.0, us, v->q, 0.0, &panel);
  return panel;
}

// Requesting more directions than a tall panel has squares the Gram route's
// conditioning past recovery (U = X V_r would have UᵀU off the identity by
// ~1); such panels must return the looped PrincipalSubspace bits instead:
// an orthonormal basis of exactly the panel's span, without the
// roundoff-level directions past its rank.
TEST(BatchedSubspaceTest, GramRouteFallsBackWhereItWouldLoseOrthonormality) {
  Rng rng(359);
  struct Case {
    int64_t rows, cols, true_rank, requested;
  };
  const Case cases[] = {{64, 8, 2, 4}, {256, 32, 2, 6}, {64, 12, 1, 5}};
  std::vector<Matrix> panels;
  for (const Case& c : cases) {
    panels.push_back(RankDeficientPanel(c.rows, c.cols, c.true_rank, &rng));
  }
  for (size_t i = 0; i < panels.size(); ++i) {
    BatchedSubspaceOptions options;
    options.rank = cases[i].requested;
    const auto batched = BatchedPrincipalSubspace({panels[i]}, options);
    const auto looped = PrincipalSubspace(panels[i], options.rank);
    ASSERT_TRUE(batched[0].ok() && looped.ok());
    ExpectBitEqual(*batched[0], *looped, "rank-deficient fallback");
    EXPECT_EQ(batched[0]->cols(), cases[i].true_rank) << "panel " << i;
    EXPECT_LE(OrthonormalityError(*batched[0]), 1e-6) << "panel " << i;
  }

  // The tolerance policy (DESIGN.md §5) on randomized tall shapes across
  // conditioning: whichever route a slot takes, its basis is orthonormal to
  // 1e-6 and spans the looped basis's subspace to 1e-6.
  for (double ratio : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8}) {
    std::vector<Matrix> sweep;
    std::vector<int64_t> ranks;
    for (int trial = 0; trial < 12; ++trial) {
      const int64_t cols = 2 + rng.UniformInt(47);
      const int64_t rows = 2 * cols + rng.UniformInt(200);
      const int64_t rank = 1 + rng.UniformInt(std::min<int64_t>(cols, 8));
      // sigma_1 = 1, sigma_rank = ratio, the rest log-uniform in between.
      Vector s(static_cast<size_t>(rank), 1.0);
      s.back() = rank > 1 ? ratio : 1.0;
      for (int64_t j = 1; j + 1 < rank; ++j) {
        s[static_cast<size_t>(j)] = std::pow(ratio, rng.Uniform());
      }
      std::sort(s.begin(), s.end(), std::greater<double>());
      sweep.push_back(PanelWithSpectrum(rows, cols, s, &rng));
      ranks.push_back(rank);
    }
    for (size_t i = 0; i < sweep.size(); ++i) {
      BatchedSubspaceOptions options;
      options.rank = ranks[i];
      const auto batched = BatchedPrincipalSubspace({sweep[i]}, options);
      const auto looped = PrincipalSubspace(sweep[i], ranks[i]);
      ASSERT_TRUE(batched[0].ok() && looped.ok());
      EXPECT_LE(OrthonormalityError(*batched[0]), 1e-6)
          << "ratio " << ratio << " slot " << i;
      EXPECT_LE(ProjectorDistance(*batched[0], *looped), 1e-6)
          << "ratio " << ratio << " slot " << i;
    }
  }
}

TEST(BatchedSubspaceTest, GatherOverloadMatchesExplicitPanels) {
  Rng rng(347);
  const Matrix parent = RandomMatrix(24, 30, &rng);
  std::vector<std::vector<int64_t>> groups = {
      {0, 5, 7}, {}, {1, 2, 3, 4, 8, 13, 21}, {29}};
  std::vector<Matrix> panels;
  for (const auto& group : groups) panels.push_back(parent.GatherCols(group));
  BatchedSubspaceOptions options;
  const auto via_groups = BatchedPrincipalSubspace(parent, groups, options);
  const auto via_panels = BatchedPrincipalSubspace(panels, options);
  ASSERT_EQ(via_groups.size(), via_panels.size());
  for (size_t i = 0; i < via_groups.size(); ++i) {
    ASSERT_EQ(via_groups[i].ok(), via_panels[i].ok()) << "group " << i;
    if (via_groups[i].ok()) {
      ExpectBitEqual(*via_groups[i], *via_panels[i], "gather overload");
    }
  }
}

}  // namespace
}  // namespace fedsc
