// Principal component analysis, used by the k-FED + PCA baselines of
// Table III/IV: each device projects its *local* data onto its own top
// principal components before clustering. (The projections of different
// devices live in incompatible coordinate systems — exactly why the paper
// finds PCA + k-FED performs near chance on high-dimensional data.)

#ifndef FEDSC_FED_PCA_H_
#define FEDSC_FED_PCA_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/matrix.h"

namespace fedsc {

struct PcaResult {
  Matrix projected;   // r x N scores, r <= dim (see Pca)
  Matrix components;  // n x r orthonormal principal directions
  Vector mean;        // n, the subtracted column mean
};

// Projects the columns of x onto their top principal components (centering
// first). The components are the centred data's left singular vectors from
// one Gram eigensolve (BatchedPrincipalSubspace's Gram route), and the rank
// rule is: at most `dim` directions, and only those with
// sigma_j > kGramSigmaFloor * sigma_1 (linalg/batch.h). Centred data has
// rank <= min(n, N - 1), so projected.rows() can fall below dim; it is 0
// when every point is the same. Each component's sign is arbitrary.
Result<PcaResult> Pca(const Matrix& x, int64_t dim);

}  // namespace fedsc

#endif  // FEDSC_FED_PCA_H_
