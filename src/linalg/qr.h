// Householder QR decomposition and column orthonormalization. The one
// caller of HouseholderQr is the synthetic-data generator's
// RandomOrthonormalBasis; it runs at one thread, one reflector at a time.

#ifndef FEDSC_LINALG_QR_H_
#define FEDSC_LINALG_QR_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct QrResult {
  Matrix q;  // m x k with orthonormal columns, k = min(m, n)
  Matrix r;  // k x n upper triangular
};

// Thin QR of an m x n matrix via Householder reflections: the classic
// one-reflector-at-a-time dot/axpy sweep, then thin Q accumulated by
// applying the reflectors last to first.
Result<QrResult> HouseholderQr(const Matrix& a);

// Orthonormal basis for the column span of `a`: QR with column norms checked
// against `tol` * (largest original column norm); dependent columns are
// dropped. Returns an m x r matrix with r = numerical rank (possibly 0).
Matrix OrthonormalColumnBasis(const Matrix& a, double tol = 1e-10);

namespace internal_qr {

// Generates the Householder reflector eliminating rows (j, m) of `col`: on
// exit col[j] holds beta, col[j+1..m) the reflector tail (the unit leading
// entry stays implicit), and the returned tau scales H = I - tau v v^T.
// Shared by QR and the blocked tridiagonalization (linalg/eig.cc) so the
// per-reflector arithmetic is identical across both.
double GenerateReflector(double* col, int64_t j, int64_t m);

}  // namespace internal_qr

}  // namespace fedsc

#endif  // FEDSC_LINALG_QR_H_
