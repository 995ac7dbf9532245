// Hand-rolled BLAS-like kernels (no external BLAS is available in this
// environment). Loop orders are chosen for column-major storage so the hot
// inner loops stream contiguous memory and autovectorize. Gemm and Syrk run
// the cache-blocked packed engine in linalg/gemm_kernel.h at every shape.

#ifndef FEDSC_LINALG_BLAS_H_
#define FEDSC_LINALG_BLAS_H_

#include <cstdint>

#include "linalg/matrix.h"

namespace fedsc {

enum class Trans { kNo, kTrans };

// --- Vector kernels (raw pointers; callers own bounds) ---

double Dot(const double* x, const double* y, int64_t n);
double Norm2(const double* x, int64_t n);
// y += alpha * x
void Axpy(double alpha, const double* x, double* y, int64_t n);
// x *= alpha
void Scal(double alpha, double* x, int64_t n);

inline double Dot(const Vector& x, const Vector& y) {
  FEDSC_DCHECK(x.size() == y.size());
  return Dot(x.data(), y.data(), static_cast<int64_t>(x.size()));
}
inline double Norm2(const Vector& x) {
  return Norm2(x.data(), static_cast<int64_t>(x.size()));
}

// --- Matrix kernels ---
//
// The matrix kernels accept an optional num_threads and split the *output*
// into column blocks (GEMM/Syrk) or element ranges (GEMV), each produced by the
// identical serial subkernel — so results are bit-exact equal for every
// thread count (the determinism contract in DESIGN.md). Tiny problems and
// calls made from inside pool workers always run inline.

// Gemm and Syrk apply beta and then run the cache-blocked packed engine
// (linalg/gemm_kernel.h) at every shape. Its micro-kernel tier is
// ResolveDefaultIsa().chosen (cpuid, or FEDSC_FORCE_ISA). See "Blocked GEMM
// & packing" in DESIGN.md.

// C = alpha * op(A) * op(B) + beta * C. C must already have the result
// shape; aliasing C with A or B is not allowed.
void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c, int num_threads = 1);

// Symmetric rank-k update, the Gram-matrix hot path: C = alpha * X X^T +
// beta * C (trans = kNo) or C = alpha * X^T X + beta * C (trans = kTrans).
// Only the lower triangle is computed — half the flops of the equivalent
// Gemm — and mirrored into the upper triangle afterwards, so C holds the
// full, exactly symmetric result. Unlike BLAS xSYRK both triangles are
// written: the strictly-upper input triangle is overwritten by the mirror,
// so with beta != 0 the prior C should be symmetric for a meaningful result.
// Aliasing C with X is not allowed.
void Syrk(Trans trans, double alpha, const Matrix& x, double beta, Matrix* c,
          int num_threads = 1);

// y = alpha * op(A) * x + beta * y.
void Gemv(Trans trans_a, double alpha, const Matrix& a, const double* x,
          double beta, double* y, int num_threads = 1);
Vector Gemv(Trans trans_a, const Matrix& a, const Vector& x);

// Convenience products returning fresh matrices.
Matrix MatMul(const Matrix& a, const Matrix& b,
              int num_threads = 1);                      // A * B
Matrix MatMulTN(const Matrix& a, const Matrix& b,
                int num_threads = 1);                    // A^T * B
Matrix MatMulNT(const Matrix& a, const Matrix& b,
                int num_threads = 1);                    // A * B^T
// Gram matrices run on Syrk, not Gemm, since the output is symmetric.
Matrix Gram(const Matrix& x, int num_threads = 1);       // X^T X
Matrix OuterGram(const Matrix& x, int num_threads = 1);  // X X^T

}  // namespace fedsc

#endif  // FEDSC_LINALG_BLAS_H_
