#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/isa.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"

namespace fedsc {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) m(i, j) = rng->Gaussian();
  }
  return m;
}

// Naive triple loop reference for C = alpha op(A) op(B) + beta C.
Matrix ReferenceGemm(Trans ta, Trans tb, double alpha, const Matrix& a,
                     const Matrix& b, double beta, const Matrix& c0) {
  const int64_t m = ta == Trans::kNo ? a.rows() : a.cols();
  const int64_t k = ta == Trans::kNo ? a.cols() : a.rows();
  const int64_t n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c = c0;
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double av = ta == Trans::kNo ? a(i, p) : a(p, i);
        const double bv = tb == Trans::kNo ? b(p, j) : b(j, p);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c0(i, j);
    }
  }
  return c;
}

TEST(BlasTest, DotBasics) {
  const Vector x{1, 2, 3, 4, 5};
  const Vector y{5, 4, 3, 2, 1};
  EXPECT_EQ(Dot(x, y), 35.0);
  EXPECT_NEAR(Norm2(x), std::sqrt(55.0), 1e-12);
}

TEST(BlasTest, AxpyAndScal) {
  Vector y{1, 1, 1};
  const Vector x{1, 2, 3};
  Axpy(2.0, x.data(), y.data(), 3);
  EXPECT_EQ(y, (Vector{3, 5, 7}));
  Scal(0.5, y.data(), 3);
  EXPECT_EQ(y, (Vector{1.5, 2.5, 3.5}));
}

struct GemmCase {
  Trans ta;
  Trans tb;
  double alpha;
  double beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

// Gemm on the process's tier, and the blocked engine on every tier the host
// supports, against the naive reference. Besides small odd shapes the list
// holds small products a round makes on its devices (k-means centers,
// Z-update and setup products, the small Grams and outer Grams written as
// m x k x n), the empty shapes and the 1-wide ones.
TEST_P(GemmParamTest, MatchesReference) {
  const GemmCase param = GetParam();
  const CpuIsa tiers[] = {CpuIsa::kGeneric, CpuIsa::kAvx2, CpuIsa::kAvx512};
  Rng rng(31);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{3, 4, 5},
                         {1, 7, 2},
                         {8, 1, 8},
                         {13, 11, 9},
                         {12, 12, 12},
                         {13, 13, 13},
                         {11, 11, 11},
                         {14, 14, 14},
                         {10, 10, 10},
                         {50, 6, 5},
                         {8, 23, 23},
                         {8, 25, 25},
                         {23, 8, 23},
                         {2, 30, 2},
                         {16, 32, 16},
                         {25, 32, 25},
                         {8, 8, 128},
                         {6, 50, 6},
                         {12, 50, 12},
                         {50, 6, 50},
                         {50, 12, 50},
                         {20, 48, 20},
                         {20, 69, 20},
                         {0, 5, 3},
                         {4, 5, 0},
                         {0, 5, 0},
                         {1, 1, 1},
                         {3, 5, 1},
                         {1, 5, 3}}) {
    const Matrix a = param.ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                            : RandomMatrix(k, m, &rng);
    const Matrix b = param.tb == Trans::kNo ? RandomMatrix(k, n, &rng)
                                            : RandomMatrix(n, k, &rng);
    const Matrix c0 = RandomMatrix(m, n, &rng);
    Matrix c = c0;
    Gemm(param.ta, param.tb, param.alpha, a, b, param.beta, &c);
    const Matrix expected =
        ReferenceGemm(param.ta, param.tb, param.alpha, a, b, param.beta, c0);
    EXPECT_TRUE(AllClose(c, expected, 1e-10))
        << "shape " << m << "x" << k << "x" << n;
    for (CpuIsa tier : tiers) {
      if (!CpuIsaSupported(tier)) continue;
      Matrix on_tier = c0;
      on_tier *= param.beta;  // beta first, as the Gemm dispatcher does
      BlockedGemm(param.ta, param.tb, param.alpha, a, b, &on_tier, 1, tier);
      EXPECT_TRUE(AllClose(on_tier, expected, 1e-10))
          << CpuIsaName(tier) << " shape " << m << "x" << k << "x" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmParamTest,
    ::testing::Values(GemmCase{Trans::kNo, Trans::kNo, 1.0, 0.0},
                      GemmCase{Trans::kTrans, Trans::kNo, 1.0, 0.0},
                      GemmCase{Trans::kNo, Trans::kTrans, 1.0, 0.0},
                      GemmCase{Trans::kTrans, Trans::kTrans, 1.0, 0.0},
                      GemmCase{Trans::kNo, Trans::kNo, -2.5, 1.0},
                      GemmCase{Trans::kTrans, Trans::kNo, 0.5, 3.0},
                      GemmCase{Trans::kNo, Trans::kTrans, 2.0, -1.0},
                      GemmCase{Trans::kTrans, Trans::kTrans, -1.0, 0.5}));

TEST(BlasTest, GemvMatchesGemm) {
  Rng rng(37);
  const Matrix a = RandomMatrix(6, 4, &rng);
  const Vector x{1, -2, 3, -4};
  const Vector y = Gemv(Trans::kNo, a, x);
  const Matrix via_gemm = MatMul(a, Matrix::FromColumn(x));
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(y[static_cast<size_t>(i)], via_gemm(i, 0), 1e-12);
  }
  const Vector yt = Gemv(Trans::kTrans, a, Vector{1, 2, 3, 4, 5, 6});
  const Matrix via_tn =
      MatMulTN(a, Matrix::FromColumn(Vector{1, 2, 3, 4, 5, 6}));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(yt[static_cast<size_t>(i)], via_tn(i, 0), 1e-12);
  }
}

TEST(BlasTest, GemvAccumulatesWithBeta) {
  const Matrix a = Matrix::Identity(3);
  Vector y{1, 1, 1};
  const Vector x{2, 3, 4};
  Gemv(Trans::kNo, 1.0, a, x.data(), 2.0, y.data());
  EXPECT_EQ(y, (Vector{4, 5, 6}));
}

TEST(BlasTest, GramIsSymmetricPsd) {
  Rng rng(41);
  const Matrix x = RandomMatrix(5, 8, &rng);
  const Matrix g = Gram(x);
  EXPECT_EQ(g.rows(), 8);
  EXPECT_TRUE(AllClose(g, g.Transposed(), 1e-12));
  for (int64_t i = 0; i < 8; ++i) EXPECT_GE(g(i, i), 0.0);
  const Matrix og = OuterGram(x);
  EXPECT_EQ(og.rows(), 5);
  EXPECT_TRUE(AllClose(og, og.Transposed(), 1e-12));
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t j = 0; j < a.cols(); ++j) {
    for (int64_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

// C = alpha op(A) op(B) + beta C through the blocked engine, applying beta
// first the way the Gemm dispatcher does.
Matrix ViaBlocked(Trans ta, Trans tb, double alpha, const Matrix& a,
                  const Matrix& b, double beta, const Matrix& c0) {
  Matrix c = c0;
  c *= beta;
  BlockedGemm(ta, tb, alpha, a, b, &c, 1, ResolveDefaultIsa().chosen);
  return c;
}

// The blocked packed engine and the naive reference accumulate in different
// orders, so they agree to rounding — not bit-for-bit. Sweep degenerate and
// awkward shapes (1-wide panels, non-multiples of the micro-tile, sizes
// straddling the kc blocking) under every transpose combo and the
// alpha/beta special cases the dispatcher short-circuits on.
TEST(BlockedGemmTest, AgreesWithPanelAcrossShapesAndScalars) {
  const int64_t dims[] = {1, 3, 17, 64, 257};
  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  const double scalars[][2] = {
      {1.0, 0.0}, {-0.5, 1.0}, {0.0, -0.5}, {1.0, -0.5}};

  Rng rng(101);
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        const Matrix a_n = RandomMatrix(m, k, &rng);
        const Matrix a_t = RandomMatrix(k, m, &rng);
        const Matrix b_n = RandomMatrix(k, n, &rng);
        const Matrix b_t = RandomMatrix(n, k, &rng);
        const Matrix c0 = RandomMatrix(m, n, &rng);
        for (Trans ta : kinds) {
          for (Trans tb : kinds) {
            const Matrix& a = ta == Trans::kNo ? a_n : a_t;
            const Matrix& b = tb == Trans::kNo ? b_n : b_t;
            // The naive product once per combo; each alpha/beta case is
            // alpha * product + beta * C0, ReferenceGemm's own formula.
            const Matrix product = ReferenceGemm(ta, tb, 1.0, a, b, 0.0, c0);
            for (const auto& ab : scalars) {
              const Matrix cb = ViaBlocked(ta, tb, ab[0], a, b, ab[1], c0);
              Matrix cr = product;
              cr *= ab[0];
              Matrix beta_c0 = c0;
              beta_c0 *= ab[1];
              cr += beta_c0;
              ASSERT_TRUE(AllClose(cb, cr, 1e-10))
                  << "shape " << m << "x" << k << "x" << n << " trans "
                  << (ta == Trans::kTrans) << (tb == Trans::kTrans)
                  << " alpha " << ab[0] << " beta " << ab[1];
            }
          }
        }
      }
    }
  }
}

TEST(BlockedGemmTest, AutoDispatchLargeMatchesReference) {
  // The default path on a shape past one micro-tile in every direction,
  // against the naive reference directly.
  Rng rng(113);
  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  for (Trans ta : kinds) {
    for (Trans tb : kinds) {
      const Matrix a = ta == Trans::kNo ? RandomMatrix(65, 40, &rng)
                                        : RandomMatrix(40, 65, &rng);
      const Matrix b = tb == Trans::kNo ? RandomMatrix(40, 50, &rng)
                                        : RandomMatrix(50, 40, &rng);
      const Matrix c0 = RandomMatrix(65, 50, &rng);
      Matrix c = c0;
      Gemm(ta, tb, -0.5, a, b, 1.0, &c);
      const Matrix expected = ReferenceGemm(ta, tb, -0.5, a, b, 1.0, c0);
      ASSERT_TRUE(AllClose(c, expected, 1e-10))
          << "trans " << (ta == Trans::kTrans) << (tb == Trans::kTrans);
    }
  }
}

TEST(SyrkTest, MatchesReferenceGemmAndIsBitwiseSymmetric) {
  // (kk, nn) pairs from empty and 1-wide through the small Grams a round
  // makes (kTrans: 50 x 6, 50 x 12, 6 x 50 and 12 x 50 X; kNo: 20 x 48 and
  // 20 x 69 X) to blocked shapes with edge micro-tiles in both directions.
  const int64_t shapes[][2] = {{5, 0},   {1, 1},   {7, 5},    {50, 6},
                               {50, 12}, {6, 50},  {12, 50},  {48, 20},
                               {69, 20}, {40, 30}, {20, 300}, {257, 64}};
  Rng rng(141);
  for (const auto& s : shapes) {
    const int64_t kk = s[0], nn = s[1];
    const Matrix r = RandomMatrix(nn, nn, &rng);
    Matrix c0(nn, nn);
    for (int64_t j = 0; j < nn; ++j) {
      for (int64_t i = 0; i < nn; ++i) c0(i, j) = r(i, j) + r(j, i);
    }
    for (Trans trans : {Trans::kTrans, Trans::kNo}) {
      // kTrans: X is kk x nn, C = a X^T X + b C. kNo: X is nn x kk.
      const Matrix x = trans == Trans::kTrans ? RandomMatrix(kk, nn, &rng)
                                              : RandomMatrix(nn, kk, &rng);
      Matrix c = c0;
      Syrk(trans, 0.7, x, 0.5, &c);
      const Trans tb = trans == Trans::kTrans ? Trans::kNo : Trans::kTrans;
      const Matrix expected = ReferenceGemm(trans, tb, 0.7, x, x, 0.5, c0);
      ASSERT_TRUE(AllClose(c, expected, 1e-10))
          << "kk " << kk << " nn " << nn;
      for (int64_t j = 0; j < nn; ++j) {
        for (int64_t i = 0; i < j; ++i) {
          ASSERT_EQ(c(i, j), c(j, i))
              << "mirror broke exact symmetry at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(SyrkTest, SubCutoffGramBitMatchesGemmBackedGram) {
  // Syrk runs the blocked engine with strictly-upper micro-tiles skipped, so
  // each lower-triangle element sees the op sequence of the full product
  // (and the mirror copies it exactly): the small Grams inside the OMP/ESC
  // solvers equal their MatMulTN/MatMulNT forms bit for bit.
  Rng rng(151);
  const Matrix x = RandomMatrix(12, 20, &rng);  // 20 x 20 and 12 x 12 out
  ExpectBitEqual(Gram(x), MatMulTN(x, x), "Gram vs MatMulTN");
  ExpectBitEqual(OuterGram(x), MatMulNT(x, x), "OuterGram vs MatMulNT");
}

TEST(SyrkDeathTest, ShapeMismatchDies) {
  Rng rng(161);
  const Matrix x = RandomMatrix(4, 6, &rng);
  Matrix c(4, 4);  // kTrans wants 6x6
  EXPECT_DEATH(Syrk(Trans::kTrans, 1.0, x, 0.0, &c), "syrk output");
}

TEST(BlasDeathTest, ShapeMismatchDies) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  Matrix c(2, 3);
  EXPECT_DEATH(Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c),
               "gemm inner dims");
}

// ---- Runtime ISA dispatch (common/isa.h) ----

TEST(GemmIsaTest, ResolutionIsPureAndNamesRoundTrip) {
  // The process-wide tier (cpuid, or FEDSC_FORCE_ISA) never changes within
  // a run, and it is the tier Gemm runs: Gemm is exactly BlockedGemm on that
  // tier.
  const CpuIsa first = ResolveDefaultIsa().chosen;
  EXPECT_EQ(first, ResolveDefaultIsa().chosen);
  EXPECT_TRUE(CpuIsaSupported(first));
  EXPECT_TRUE(CpuIsaSupported(CpuIsa::kGeneric));
  EXPECT_TRUE(CpuIsaSupported(BestSupportedIsa()));
  EXPECT_STREQ(CpuIsaName(CpuIsa::kGeneric), "generic");
  EXPECT_STREQ(CpuIsaName(CpuIsa::kAvx2), "avx2");
  EXPECT_STREQ(CpuIsaName(CpuIsa::kAvx512), "avx512");

  Rng rng(227);
  const Matrix a = RandomMatrix(50, 40, &rng);
  const Matrix b = RandomMatrix(40, 45, &rng);
  Matrix via_gemm(50, 45);
  Matrix via_engine(50, 45);
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &via_gemm);
  BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &via_engine, 1, first);
  ExpectBitEqual(via_gemm, via_engine, "Gemm vs BlockedGemm on the tier");
}

// Every tier the host supports must produce exactly the same bits for
// nt in {1, 2, 8} (the determinism contract), and the tiers must agree with
// the generic result to the documented ulp policy. The 61x70x90 shape
// leaves ragged micro-tile edges in every tier (61 % 24, 90 % 8, ...),
// which is where a packing bug would show as garbage, not ulps.
TEST(GemmIsaTest, TiersAreThreadInvariantAndAgreeToUlpPolicy) {
  constexpr int64_t m = 61, k = 70, n = 90;
  Rng rng(211);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix c0 = RandomMatrix(m, n, &rng);
  c0 *= -0.5;  // beta, applied up front as the dispatcher does

  Matrix reference = c0;
  BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &reference, 1,
              CpuIsa::kGeneric);

  const CpuIsa tiers[] = {CpuIsa::kGeneric, CpuIsa::kAvx2, CpuIsa::kAvx512};
  for (CpuIsa tier : tiers) {
    if (!CpuIsaSupported(tier)) continue;
    Matrix base = c0;
    BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &base, 1, tier);
    for (int nt : {2, 8}) {
      Matrix threaded = c0;
      BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &threaded, nt, tier);
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t i = 0; i < m; ++i) {
          ASSERT_EQ(base(i, j), threaded(i, j))
              << CpuIsaName(tier) << " nt=" << nt << " at (" << i << ", "
              << j << ")";
        }
      }
    }
    ASSERT_TRUE(AllClose(base, reference, 1e-12)) << CpuIsaName(tier);
  }
}

// A non-transposed B is packed k-step by k-step from NR column streams, with
// a zero-padded ragged last micro-panel. Per tier: n a multiple of its NR,
// one past, and one short; k past kKc so the second depth slice packs from
// pc > 0. Thread counts must agree bit for bit, and the naive reference to
// rounding.
TEST(GemmIsaTest, NonTransposedBPacksEveryPanelShape) {
  using internal_gemm::kKc;
  constexpr int64_t m = 50;
  constexpr int64_t k = kKc + 37;
  const std::pair<CpuIsa, int64_t> tiers[] = {
      {CpuIsa::kGeneric, internal_gemm::kGenericNr},
      {CpuIsa::kAvx2, internal_gemm::kAvx2Nr},
      {CpuIsa::kAvx512, internal_gemm::kAvx512Nr}};
  Rng rng(229);
  const Matrix a = RandomMatrix(m, k, &rng);
  for (const auto& [tier, nr] : tiers) {
    if (!CpuIsaSupported(tier)) continue;
    for (const int64_t n : {5 * nr, 5 * nr + 1, 6 * nr - 1}) {
      const Matrix b = RandomMatrix(k, n, &rng);
      const Matrix reference =
          ReferenceGemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, Matrix(m, n));
      Matrix base(m, n);
      BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &base, 1, tier);
      const std::string what =
          std::string(CpuIsaName(tier)) + " n=" + std::to_string(n);
      ASSERT_TRUE(AllClose(base, reference, 1e-10)) << what;
      for (int nt : {2, 8}) {
        Matrix threaded(m, n);
        BlockedGemm(Trans::kNo, Trans::kNo, 1.0, a, b, &threaded, nt, tier);
        ExpectBitEqual(base, threaded,
                       (what + " nt=" + std::to_string(nt)).c_str());
      }
    }
  }
}

TEST(GemmIsaTest, SyrkTiersAreThreadInvariantAndAgreeToUlpPolicy) {
  Rng rng(223);
  const Matrix x = RandomMatrix(70, 61, &rng);  // X^T X is 61x61, ragged
  Matrix reference(61, 61);
  BlockedSyrkLower(Trans::kTrans, 1.0, x, &reference, 1, CpuIsa::kGeneric);

  const CpuIsa tiers[] = {CpuIsa::kGeneric, CpuIsa::kAvx2, CpuIsa::kAvx512};
  for (CpuIsa tier : tiers) {
    if (!CpuIsaSupported(tier)) continue;
    Matrix base(61, 61);
    BlockedSyrkLower(Trans::kTrans, 1.0, x, &base, 1, tier);
    for (int nt : {2, 8}) {
      Matrix threaded(61, 61);
      BlockedSyrkLower(Trans::kTrans, 1.0, x, &threaded, nt, tier);
      for (int64_t j = 0; j < 61; ++j) {
        for (int64_t i = 0; i < 61; ++i) {
          ASSERT_EQ(base(i, j), threaded(i, j))
              << CpuIsaName(tier) << " nt=" << nt;
        }
      }
    }
    ASSERT_TRUE(AllClose(base, reference, 1e-12)) << CpuIsaName(tier);
  }
}

// ---- AVX-512 routes (linalg/gemm_kernel.h) ----

// The thin-output route (op(A) with at most 8 rows, B not transposed) must
// reproduce the packed AVX-512 loop nest with buffered commits bit for bit:
// every row count a zmm holds, depths on both sides of the kc boundary,
// full and ragged 8-column groups, both op(A) layouts, the alpha/beta
// cases, and thread counts that split the column groups differently.
TEST(GemmRouteTest, ThinRouteMatchesPackedBitForBit) {
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    GTEST_SKIP() << "this host cannot run the AVX-512 tier";
  }
  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  Rng rng(233);
  for (int64_t m = 1; m <= internal_gemm::kThinMaxRows; ++m) {
    for (int64_t k : {1, 7, 255, 256, 257, 600}) {
      for (int64_t n : {1, 7, 8, 9, 130}) {
        const Matrix b = RandomMatrix(k, n, &rng);
        const Matrix c0 = RandomMatrix(m, n, &rng);
        for (Trans ta : kinds) {
          const Matrix a = ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                            : RandomMatrix(k, m, &rng);
          for (double alpha : {1.0, -1.0, 0.75}) {
            for (double beta : {0.0, 0.5, 1.0}) {
              Matrix packed = c0;
              packed *= beta;
              const Matrix start = packed;
              internal_gemm::PackedGemm(ta, Trans::kNo, alpha, a, b, &packed,
                                        1, CpuIsa::kAvx512,
                                        /*register_commit=*/false);
              for (int nt : {1, 2, 8}) {
                Matrix thin = start;
                BlockedGemm(ta, Trans::kNo, alpha, a, b, &thin, nt,
                            CpuIsa::kAvx512);
                const std::string what =
                    "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                    " n=" + std::to_string(n) +
                    " trans_a=" + std::to_string(ta == Trans::kTrans) +
                    " alpha=" + std::to_string(alpha) +
                    " beta=" + std::to_string(beta) +
                    " nt=" + std::to_string(nt);
                ExpectBitEqual(thin, packed, what.c_str());
              }
            }
          }
        }
      }
    }
  }
}

// Full 24x8 tiles commit from registers; edge tiles (rows past a multiple
// of 24, columns past a multiple of 8, the kMc = 96 row-block seam) still
// go through the acc buffer. Either way the bits must equal the all-buffered
// loop nest, on every transpose combination and thread count.
TEST(GemmRouteTest, RegisterCommitMatchesBufferedCommit) {
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    GTEST_SKIP() << "this host cannot run the AVX-512 tier";
  }
  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  Rng rng(239);
  for (int64_t m : {24, 61, 120, 200}) {
    for (int64_t k : {8, 256, 300}) {
      for (int64_t n : {8, 21, 120}) {
        const Matrix c0 = RandomMatrix(m, n, &rng);
        for (Trans ta : kinds) {
          for (Trans tb : kinds) {
            const Matrix a = ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                              : RandomMatrix(k, m, &rng);
            const Matrix b = tb == Trans::kNo ? RandomMatrix(k, n, &rng)
                                              : RandomMatrix(n, k, &rng);
            for (double alpha : {1.0, -1.0, 0.75}) {
              Matrix buffered = c0;
              buffered *= 0.5;
              const Matrix start = buffered;
              internal_gemm::PackedGemm(ta, tb, alpha, a, b, &buffered, 1,
                                        CpuIsa::kAvx512,
                                        /*register_commit=*/false);
              const std::string what =
                  "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                  " n=" + std::to_string(n) + " trans=" +
                  std::to_string(ta == Trans::kTrans) +
                  std::to_string(tb == Trans::kTrans) +
                  " alpha=" + std::to_string(alpha);
              for (int nt : {1, 8}) {
                Matrix in_register = start;
                internal_gemm::PackedGemm(ta, tb, alpha, a, b, &in_register,
                                          nt, CpuIsa::kAvx512,
                                          /*register_commit=*/true);
                ExpectBitEqual(in_register, buffered,
                               (what + " nt=" + std::to_string(nt)).c_str());
                Matrix routed = start;
                BlockedGemm(ta, tb, alpha, a, b, &routed, nt,
                            CpuIsa::kAvx512);
                ExpectBitEqual(routed, buffered,
                               (what + " routed nt=" + std::to_string(nt))
                                   .c_str());
              }
            }
          }
        }
      }
    }
  }
}

// Syrk commits its full tiles below the diagonal from registers and the
// tiles the diagonal cuts through the buffer; its lower triangle must equal
// the buffered GEMM of the same operands bit for bit.
TEST(GemmRouteTest, SyrkRegisterCommitMatchesBufferedGemm) {
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    GTEST_SKIP() << "this host cannot run the AVX-512 tier";
  }
  Rng rng(241);
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{70, 61}, {300, 130}, {40, 200}}) {
    const Matrix x = RandomMatrix(rows, cols, &rng);
    for (Trans trans : {Trans::kTrans, Trans::kNo}) {
      const int64_t nn = trans == Trans::kTrans ? cols : rows;
      Matrix syrk(nn, nn);
      BlockedSyrkLower(trans, -0.75, x, &syrk, 2, CpuIsa::kAvx512);
      Matrix gemm(nn, nn);
      const Trans other = trans == Trans::kTrans ? Trans::kNo : Trans::kTrans;
      internal_gemm::PackedGemm(trans, other, -0.75, x, x, &gemm, 1,
                                CpuIsa::kAvx512, /*register_commit=*/false);
      for (int64_t j = 0; j < nn; ++j) {
        for (int64_t i = j; i < nn; ++i) {
          ASSERT_EQ(syrk(i, j), gemm(i, j))
              << rows << "x" << cols << " trans=" << (trans == Trans::kTrans)
              << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}


// ---- Remainder row tiles against an independent reference ----

// C's commit rule in the AVX-512 tier (gemm_kernel.cc CommitFma): one fused
// multiply-add where this build has FMA, a rounded product and an add
// otherwise.
double CommitRule(double alpha, double acc, double c) {
#if defined(__FMA__)
  return std::fma(alpha, acc, c);
#else
  return c + alpha * acc;
#endif
}

// Per element of op(A) op(B) (m x n), its partial sum over each kKc block
// of the depth, as one scalar std::fma chain from zero in ascending p:
// partial[blk](i, j). With `lower`, only the elements with i >= j.
std::vector<Matrix> BlockPartials(Trans ta, Trans tb, const Matrix& a,
                                  const Matrix& b, bool lower = false) {
  const int64_t m = ta == Trans::kNo ? a.rows() : a.cols();
  const int64_t k = ta == Trans::kNo ? a.cols() : a.rows();
  const int64_t n = tb == Trans::kNo ? b.cols() : b.rows();
  std::vector<Matrix> partial;
  for (int64_t pc = 0; pc < k; pc += internal_gemm::kKc) {
    const int64_t p_end = std::min(k, pc + internal_gemm::kKc);
    Matrix block(m, n);
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = lower ? j : 0; i < m; ++i) {
        double acc = 0.0;
        for (int64_t p = pc; p < p_end; ++p) {
          const double av = ta == Trans::kNo ? a(i, p) : a(p, i);
          const double bv = tb == Trans::kNo ? b(p, j) : b(j, p);
          acc = std::fma(av, bv, acc);
        }
        block(i, j) = acc;
      }
    }
    partial.push_back(std::move(block));
  }
  return partial;
}

// `start` plus alpha times the partials, committed in ascending block order.
Matrix CommitPartials(const std::vector<Matrix>& partial, double alpha,
                      Matrix start) {
  for (const Matrix& block : partial) {
    for (int64_t j = 0; j < start.cols(); ++j) {
      for (int64_t i = 0; i < start.rows(); ++i) {
        start(i, j) = CommitRule(alpha, block(i, j), start(i, j));
      }
    }
  }
  return start;
}

// Whether two matrices have the same shape and the same bytes.
bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

// Every row count 1..100 (each remainder mod the 24-row tile, so the 8-,
// 16- and 24-row remainder tiles, the thin route, and the kMc = 96 row-block
// seam) against the scalar reference, bit for bit: both layouts of op(A)
// and op(B), a depth past one kc block, ragged column groups, the
// alpha/beta cases and thread counts.
TEST(GemmRouteTest, RemainderTilesMatchScalarFmaReference) {
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    GTEST_SKIP() << "this host cannot run the AVX-512 tier";
  }
  const Trans kinds[] = {Trans::kNo, Trans::kTrans};
  constexpr int64_t k = 260;
  constexpr int64_t n = 10;
  Rng rng(251);
  for (int64_t m = 1; m <= 100; ++m) {
    const Matrix c0 = RandomMatrix(m, n, &rng);
    for (Trans ta : kinds) {
      for (Trans tb : kinds) {
        const Matrix a = ta == Trans::kNo ? RandomMatrix(m, k, &rng)
                                          : RandomMatrix(k, m, &rng);
        const Matrix b = tb == Trans::kNo ? RandomMatrix(k, n, &rng)
                                          : RandomMatrix(n, k, &rng);
        const std::vector<Matrix> partial = BlockPartials(ta, tb, a, b);
        for (double alpha : {1.0, -1.0, 0.75}) {
          for (double beta : {0.0, 0.5, 1.0}) {
            Matrix start = c0;
            start *= beta;
            const Matrix expected = CommitPartials(partial, alpha, start);
            for (int nt : {1, 2, 8}) {
              Matrix c = start;
              BlockedGemm(ta, tb, alpha, a, b, &c, nt, CpuIsa::kAvx512);
              ASSERT_TRUE(SameBytes(c, expected))
                  << "m=" << m << " trans_a=" << (ta == Trans::kTrans)
                  << " trans_b=" << (tb == Trans::kTrans) << " alpha=" << alpha
                  << " beta=" << beta << " nt=" << nt;
            }
          }
        }
      }
    }
  }
}

// The same reference for the lower triangle BlockedSyrkLower writes (the
// upper one stays as it was), for both Grams at every order 1..100.
TEST(GemmRouteTest, SyrkRemainderTilesMatchScalarFmaReference) {
  if (!CpuIsaSupported(CpuIsa::kAvx512)) {
    GTEST_SKIP() << "this host cannot run the AVX-512 tier";
  }
  constexpr int64_t k = 260;
  Rng rng(257);
  for (int64_t nn = 1; nn <= 100; ++nn) {
    const Matrix c0 = RandomMatrix(nn, nn, &rng);
    for (Trans trans : {Trans::kTrans, Trans::kNo}) {
      const bool gram = trans == Trans::kTrans;
      const Matrix x = gram ? RandomMatrix(k, nn, &rng)
                            : RandomMatrix(nn, k, &rng);
      const std::vector<Matrix> partial =
          gram ? BlockPartials(Trans::kTrans, Trans::kNo, x, x, true)
               : BlockPartials(Trans::kNo, Trans::kTrans, x, x, true);
      for (double alpha : {1.0, -1.0, 0.75}) {
        for (double beta : {0.0, 0.5, 1.0}) {
          Matrix start = c0;
          start *= beta;
          Matrix expected = CommitPartials(partial, alpha, start);
          for (int64_t j = 1; j < nn; ++j) {
            for (int64_t i = 0; i < j; ++i) expected(i, j) = start(i, j);
          }
          for (int nt : {1, 2, 8}) {
            Matrix c = start;
            BlockedSyrkLower(trans, alpha, x, &c, nt, CpuIsa::kAvx512);
            ASSERT_TRUE(SameBytes(c, expected))
                << "n=" << nn << " gram=" << gram << " alpha=" << alpha
                << " beta=" << beta << " nt=" << nt;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedsc
