// Compressed-sparse-row matrix. Affinity graphs built by the subspace
// clustering algorithms are sparse (q-NN / thresholded self-expression), and
// spectral clustering of large graphs runs subspace iteration on top of
// this SpMV.

#ifndef FEDSC_LINALG_SPARSE_H_
#define FEDSC_LINALG_SPARSE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace fedsc {

struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Builds a CSR matrix; duplicate (row, col) entries are summed, explicit
  // zeros are dropped.
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>* mutable_values() { return &values_; }

  // y = A x.
  void Multiply(const double* x, double* y) const;
  Vector Multiply(const Vector& x) const;

  SparseMatrix Transposed() const;

  // A + A^T (entry-wise sum; used for W = |C| + |C|^T).
  SparseMatrix PlusTransposed() const;

  Vector RowSums() const;

  Matrix ToDense() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;  // size rows_ + 1
  std::vector<int64_t> col_idx_;
  std::vector<double> values_;
};

// CSR from a dense matrix, dropping entries with |v| <= threshold.
SparseMatrix SparsifyDense(const Matrix& dense, double threshold = 0.0);

}  // namespace fedsc

#endif  // FEDSC_LINALG_SPARSE_H_
