#include "linalg/blas.h"

#include <cmath>

#include <algorithm>

#include "common/isa.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/gemm_kernel.h"

namespace fedsc {

double Dot(const double* x, const double* y, int64_t n) {
  // Four partial sums break the dependency chain so the loop vectorizes.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

double Norm2(const double* x, int64_t n) {
  return std::sqrt(Dot(x, x, n));
}

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scal(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

namespace {

// Copies the strictly-lower triangle into the strictly-upper one, column by
// column. Mirror writes touch only rows [0, j) of column j (strictly upper)
// and read only strictly-lower elements, which no mirror task writes — so
// the parallel ranges are race-free and the copy order cannot matter.
void MirrorLowerToUpper(Matrix* c, int num_threads) {
  const int64_t n = c->rows();
  const int threads =
      n * n < (1 << 16) ? 1 : std::min<int>(num_threads, 64);
  ParallelForRanges(0, n, threads,
                    [&](int64_t j0, int64_t j1, int /*chunk*/) {
                      for (int64_t j = j0; j < j1; ++j) {
                        double* cj = c->ColData(j);
                        for (int64_t i = 0; i < j; ++i) {
                          cj[i] = (*c)(j, i);
                        }
                      }
                    });
}

}  // namespace

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c, int num_threads) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int64_t kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const int64_t n = trans_b == Trans::kNo ? b.cols() : b.rows();
  FEDSC_CHECK(ka == kb) << "gemm inner dims " << ka << " vs " << kb;
  FEDSC_CHECK(c->rows() == m && c->cols() == n)
      << "gemm output is " << c->rows() << "x" << c->cols() << ", want " << m
      << "x" << n;
  FEDSC_CHECK(c != &a && c != &b) << "gemm output aliases an input";

  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    *c *= beta;
  }
  if (alpha == 0.0 || ka == 0) return;

  FEDSC_TRACE_SPAN("linalg/gemm");
  FEDSC_METRIC_COUNTER("linalg.gemm.calls").Increment();
  FEDSC_METRIC_COUNTER("linalg.gemm.flops").Add(2 * m * ka * n);
  // Matrix traffic for the roofline join: A and B read once, C read+written.
  FEDSC_METRIC_COUNTER("linalg.gemm.bytes")
      .Add(8 * (m * ka + ka * n + 2 * m * n));

  BlockedGemm(trans_a, trans_b, alpha, a, b, c, num_threads,
              ResolveDefaultIsa().chosen);
}

void Syrk(Trans trans, double alpha, const Matrix& x, double beta, Matrix* c,
          int num_threads) {
  const int64_t nn = trans == Trans::kNo ? x.rows() : x.cols();
  const int64_t kk = trans == Trans::kNo ? x.cols() : x.rows();
  FEDSC_CHECK(c->rows() == nn && c->cols() == nn)
      << "syrk output is " << c->rows() << "x" << c->cols() << ", want " << nn
      << "x" << nn;
  FEDSC_CHECK(c != &x) << "syrk output aliases the input";

  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    *c *= beta;
  }
  if (alpha == 0.0 || kk == 0) return;

  FEDSC_TRACE_SPAN("linalg/syrk");
  FEDSC_METRIC_COUNTER("linalg.syrk.calls").Increment();
  // Useful flops: 2*kk per element over the nn*(nn+1)/2 lower-triangle
  // entries — about half the 2*nn*kk*nn the equivalent Gemm would spend.
  FEDSC_METRIC_COUNTER("linalg.syrk.flops").Add(nn * (nn + 1) * kk);
  // Matrix traffic: X read once, the nn x nn output read+written.
  FEDSC_METRIC_COUNTER("linalg.syrk.bytes").Add(8 * (nn * kk + 2 * nn * nn));

  BlockedSyrkLower(trans, alpha, x, c, num_threads,
                   ResolveDefaultIsa().chosen);
  MirrorLowerToUpper(c, num_threads);
}

void Gemv(Trans trans_a, double alpha, const Matrix& a, const double* x,
          double beta, double* y, int num_threads) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t n = trans_a == Trans::kNo ? a.cols() : a.rows();
  if (beta == 0.0) {
    std::fill(y, y + m, 0.0);
  } else if (beta != 1.0) {
    Scal(beta, y, m);
  }
  if (alpha == 0.0) return;
  FEDSC_METRIC_COUNTER("linalg.gemv.calls").Increment();
  FEDSC_METRIC_COUNTER("linalg.gemv.flops").Add(2 * m * n);
  const int threads = m * n < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
  if (trans_a == Trans::kNo) {
    // Partition the rows of y; each task runs the same Axpy on its subrange
    // of every column, so element i of y sees the identical j-ascending
    // update sequence as the serial pass.
    ParallelForRanges(0, m, threads,
                      [&](int64_t r0, int64_t r1, int /*chunk*/) {
                        for (int64_t j = 0; j < n; ++j) {
                          const double w = alpha * x[j];
                          if (w != 0.0) {
                            Axpy(w, a.ColData(j) + r0, y + r0, r1 - r0);
                          }
                        }
                      });
  } else {
    // One independent dot per output element.
    ParallelForRanges(0, m, threads,
                      [&](int64_t r0, int64_t r1, int /*chunk*/) {
                        for (int64_t i = r0; i < r1; ++i) {
                          y[i] += alpha * Dot(a.ColData(i), x, n);
                        }
                      });
  }
}

Vector Gemv(Trans trans_a, const Matrix& a, const Vector& x) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t n = trans_a == Trans::kNo ? a.cols() : a.rows();
  FEDSC_CHECK(static_cast<int64_t>(x.size()) == n)
      << "gemv x has size " << x.size() << ", want " << n;
  Vector y(static_cast<size_t>(m), 0.0);
  Gemv(trans_a, 1.0, a, x.data(), 0.0, y.data());
  return y;
}

Matrix MatMul(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.rows(), b.cols());
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.cols(), b.cols());
  Gemm(Trans::kTrans, Trans::kNo, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.rows(), b.rows());
  Gemm(Trans::kNo, Trans::kTrans, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix Gram(const Matrix& x, int num_threads) {
  Matrix c(x.cols(), x.cols());
  Syrk(Trans::kTrans, 1.0, x, 0.0, &c, num_threads);
  return c;
}

Matrix OuterGram(const Matrix& x, int num_threads) {
  Matrix c(x.rows(), x.rows());
  Syrk(Trans::kNo, 1.0, x, 0.0, &c, num_threads);
  return c;
}

}  // namespace fedsc
