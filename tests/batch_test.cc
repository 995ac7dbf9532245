// Batched tall-skinny factorizations (linalg/batch.h): auto-rank requests
// and panels outside the tall-skinny regime must reproduce the per-panel
// PrincipalSubspace bits exactly (the looped route IS the per-panel call,
// fanned out), fixed-rank tall panels take the Gram route and must span the
// same subspace with orthonormal columns — falling back to the looped bits
// where the Gram route would lose orthonormality — the route must be a pure
// function of each panel's shape and rank, and every result must be
// bit-identical across thread counts.

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

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

// True when BatchedPrincipalSubspace may take the Gram route for `panel`.
bool InGramRegime(const Matrix& panel) {
  return panel.cols() >= 1 && panel.cols() <= kGramEngineMaxCols &&
         panel.rows() >= kGramEngineMinAspect * panel.cols();
}

TEST(BatchedSubspaceTest, LoopedEngineMatchesPrincipalSubspaceExactly) {
  Rng rng(311);
  const std::vector<Matrix> panels = RaggedBatch(&rng);
  // Auto-rank requests take the looped route on every panel; fixed-rank
  // requests do on panels outside the tall-skinny Gram regime.
  for (int64_t rank : {int64_t{0}, int64_t{3}}) {
    BatchedSubspaceOptions options;
    options.rank = rank;
    const std::vector<Result<Matrix>> batched =
        BatchedPrincipalSubspace(panels, options);
    ASSERT_EQ(batched.size(), panels.size());
    for (size_t i = 0; i < panels.size(); ++i) {
      if (rank > 0 && InGramRegime(panels[i])) continue;
      const auto direct = PrincipalSubspace(panels[i], rank, options.rel_tol);
      ASSERT_EQ(batched[i].ok(), direct.ok()) << "panel " << i;
      if (direct.ok()) {
        ExpectBitEqual(*batched[i], *direct, "looped basis");
      }
    }
  }
}

TEST(BatchedSubspaceTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(313);
  const std::vector<Matrix> panels = RaggedBatch(&rng);
  for (int64_t rank : {int64_t{0}, int64_t{3}}) {
    BatchedSubspaceOptions options;
    options.rank = rank;
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

TEST(BatchedSubspaceTest, GramEngineSpansTheSameSubspaceWithTheSameRank) {
  Rng rng(317);
  const std::vector<Matrix> panels = RaggedBatch(&rng);
  BatchedSubspaceOptions options;
  options.rank = 3;
  const auto batched = BatchedPrincipalSubspace(panels, options);
  for (size_t i = 0; i < panels.size(); ++i) {
    if (!InGramRegime(panels[i])) continue;
    const auto looped = PrincipalSubspace(panels[i], options.rank);
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    ASSERT_TRUE(looped.ok());
    // A fixed rank gives both routes the same column count.
    ASSERT_EQ(batched[i]->cols(), looped->cols()) << "panel " << i;
    // The Gram route squares the condition number, so agreement is to
    // ~sqrt(eps), not ulps — that is the documented contract.
    EXPECT_LT(ProjectorDistance(*batched[i], *looped), 1e-6) << "panel " << i;
    EXPECT_LT(OrthonormalityError(*batched[i]), 1e-10) << "panel " << i;
  }
}

TEST(BatchedSubspaceTest, AutoEngineIsAPureFunctionOfShapeAndRank) {
  Rng rng(331);
  // Tall-skinny: inside the Gram regime. Wide: outside it (cols > max),
  // and squat: outside it (rows < aspect * cols).
  const Matrix tall = RandomMatrix(64, 8, &rng);
  const Matrix wide = RandomMatrix(200, kGramEngineMaxCols + 1, &rng);
  const Matrix squat = RandomMatrix(20, 16, &rng);
  ASSERT_LT(squat.rows(), kGramEngineMinAspect * squat.cols());

  // Fixed rank: the tall panel takes the Gram route — its bits differ from
  // the looped SVD's and do not depend on its batch-mates — and the others
  // stay looped.
  {
    BatchedSubspaceOptions options;
    options.rank = 2;
    const auto picked = BatchedPrincipalSubspace({tall, wide, squat},
                                                 options);
    const auto alone = BatchedPrincipalSubspace({tall}, options);
    ExpectBitEqual(*picked[0], *alone[0], "tall panel, batched vs alone");
    const auto tall_looped = PrincipalSubspace(tall, 2);
    ASSERT_TRUE(tall_looped.ok());
    EXPECT_LT(ProjectorDistance(*picked[0], *tall_looped), 1e-6);
    bool differs = false;
    for (int64_t j = 0; j < 2; ++j) {
      for (int64_t i = 0; i < tall.rows(); ++i) {
        differs |= (*picked[0])(i, j) != (*tall_looped)(i, j);
      }
    }
    EXPECT_TRUE(differs) << "tall panel should take the Gram route";
    ExpectBitEqual(*picked[1], *PrincipalSubspace(wide, 2),
                   "wide panel stays looped");
    ExpectBitEqual(*picked[2], *PrincipalSubspace(squat, 2),
                   "squat panel stays looped");
  }

  // Auto rank: every panel stays looped regardless of shape.
  {
    const auto picked = BatchedPrincipalSubspace({tall, wide, squat});
    const Matrix* panels[] = {&tall, &wide, &squat};
    for (size_t i = 0; i < 3; ++i) {
      ExpectBitEqual(*picked[i], *PrincipalSubspace(*panels[i], 0),
                     "auto-rank panels stay looped");
    }
  }
}

TEST(BatchedSubspaceTest, ErrorsStayInTheirSlot) {
  Rng rng(337);
  std::vector<Matrix> panels;
  panels.push_back(RandomMatrix(12, 5, &rng));  // fine
  panels.push_back(Matrix(12, 0));              // empty: invalid argument
  panels.push_back(Matrix(12, 4));              // all-zero: rank 0
  panels.push_back(RandomMatrix(12, 3, &rng));  // fine
  // Auto rank (looped) and a fixed rank (Gram route on the tall panels).
  for (int64_t rank : {int64_t{0}, int64_t{2}}) {
    BatchedSubspaceOptions options;
    options.rank = rank;
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
    ASSERT_TRUE(InGramRegime(panels[i]));
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

TEST(BatchedThinQrTest, MatchesHouseholderQrExactlyOnRaggedBatches) {
  Rng rng(353);
  std::vector<Matrix> panels = RaggedBatch(&rng);
  panels.push_back(RandomMatrix(3, 17, &rng));  // wide panel, k = 3
  const QrOptions qr_options;
  for (int nt : {1, 2, 8}) {
    const auto batched = BatchedThinQr(panels, qr_options, nt);
    ASSERT_EQ(batched.size(), panels.size());
    for (size_t i = 0; i < panels.size(); ++i) {
      const auto direct = HouseholderQr(panels[i], qr_options);
      ASSERT_EQ(batched[i].ok(), direct.ok()) << "panel " << i;
      if (direct.ok()) {
        ExpectBitEqual(batched[i]->q, direct->q, "thin-QR Q");
        ExpectBitEqual(batched[i]->r, direct->r, "thin-QR R");
      }
    }
  }
}

}  // namespace
}  // namespace fedsc
