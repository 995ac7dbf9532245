// Sparse subspace clustering self-expression via ADMM (Elhamifar & Vidal,
// ref [9] of the paper; ADMM per Boyd et al., ref [50]).
//
// One solver, over a dictionary B (D x d, Traganitis & Giannakis): it solves
// the Lasso program (Eq. 2 of the paper)
//
//   min_C  ||C||_1 + lambda/2 ||X - B C||_F^2,   C in R^{d x N},
//
// with column j of C held off its self atom (sketch.h). Exact SSC is the
// case B = X with atom j pinned for column j, i.e. diag(C) = 0. lambda =
// alpha / mu with mu = min_j max_{a != self(j)} |b_a^T x_j| (Proposition 1
// of Elhamifar-Vidal; the paper uses alpha = 50). The Z-update runs through
// one operator over B: factored, Z = M + B^T (Y - K M) with
// K = lambda (rho I + lambda B B^T)^{-1} B, when D < d (two D x d x cols
// GEMMs per iteration), else direct with the d x d inverse (one
// d x d x cols GEMM).
//
// The exact program reads X only through its Gram X^T X, so it is the same
// program over any k x N R with R^T R = X^T X. The exact solve factors the
// Gram it builds for mu by a pivoted Cholesky cut at rounding level
// (k = the Gram's numerical rank, about L' d on a device) and runs the
// factored operator over R when that costs fewer flops per iteration than
// X's operator: k < N / 2 when D >= N, k < D when D < N. Otherwise the
// factorization quits at the bound and X is its own dictionary, never
// copied. SscAdmmInfo::dictionary_rows reports which (docs/ALGORITHMS.md).
//
// A solve stops on the primal/dual residual test of Boyd et al. Section 3.3
// and balances the two residuals by moving rho (Section 3.4.1); the operator
// keeps its min(rows, d)-order Gram, so a new rho re-forms K with one SPD
// inverse and no new Gram. The exact solve runs all N columns as one block
// under one stopping rule; the sketched solve runs blocks of 256 columns,
// each with its own.
//
// The exact solve can also start from an earlier solve's final iterate
// (SscAdmmIterate), the warm start Boyd et al. recommend for a sequence of
// related problems: a server that re-solves a pool grown by one wave of
// uploads continues from the C, U and rho it left, with zeros for the new
// columns and atoms. The stopping rule, the rho balancing and
// max_iterations are the cold solve's, so the result is the same Lasso
// solution to within the stopping tolerance.

#ifndef FEDSC_SC_SSC_ADMM_H_
#define FEDSC_SC_SSC_ADMM_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sc/sketch.h"

namespace fedsc {

struct SscAdmmOptions {
  // lambda = alpha / mu. Must be > 1 for the Lasso solution to be nonzero.
  double alpha = 50.0;
  // Adds the affine constraint 1^T c_i = 1, for data on a union of *affine*
  // subspaces (Elhamifar-Vidal Section 4.1; e.g. motion trajectories). The
  // constraint enters the ADMM as a penalty rho/2 ||1^T C - 1^T||^2 with its
  // own dual variable, and the augmented system is inverted with a
  // Sherman-Morrison rank-1 update on top of the usual operator.
  bool affine = false;
  // Initial ADMM penalty parameter; <= 0 picks rho = alpha (Elhamifar-Vidal's
  // reference implementation default). Residual balancing (Boyd et al.
  // Section 3.4.1) then doubles or halves it every 10th iteration while one
  // normalized residual exceeds the other tenfold, rescaling the scaled dual.
  double rho = -1.0;
  // A solve that has not met the stopping rule after this many iterations
  // stops there and reports converged = false.
  int max_iterations = 200;
  // Relative tolerance eps_rel of the primal/dual residual test (Boyd et al.
  // Section 3.3); the absolute tolerance is eps_abs = tol * 1e-3. A solve
  // stops once ||Z - C||_F <= eps_pri and rho ||C - C_prev||_F <= eps_dual,
  //   eps_pri  = sqrt(rows * cols) eps_abs + tol max(||Z||_F, ||C||_F),
  //   eps_dual = sqrt(rows * cols) eps_abs + tol rho ||U||_F,
  // over the whole N x N problem (exact) or one column block (sketched).
  double tol = 1e-2;
  // Each returned column keeps the entries whose |c_ij| exceeds drop_tol
  // times the column's largest |c_ij|.
  double drop_tol = 1e-6;
  // Wall-clock budget; > 0 aborts with DeadlineExceeded when the solve
  // overruns it (the paper's Table III enforces a 1-day cut-off on
  // centralized SSC the same way).
  double deadline_seconds = 0.0;
  // Workers: the exact solve's Gram/Z-update GEMMs and soft-threshold pass
  // partition their output column panels, and the sketched solve runs its
  // column blocks in parallel — bit-identical for every thread count.
  int num_threads = 1;
};

// How a solve went, for callers that want to report or assert on convergence
// (the iteration count, rho updates and residual also feed the sc.ssc_admm.*
// metrics). A sketched solve reports its worst block's residuals and rho,
// the longest block's iterations, and the rho updates of all blocks.
struct SscAdmmInfo {
  // Rows of the dictionary the ADMM ran over: k when the exact solve took
  // the rank-k R, else D.
  int64_t dictionary_rows = 0;
  int iterations = 0;            // ADMM iterations actually run
  double primal_residual = 0.0;  // ||Z - C||_F at exit
  double dual_residual = 0.0;    // rho ||C - C_prev||_F at exit
  double primal_threshold = 0.0;  // eps_pri at exit
  double dual_threshold = 0.0;    // eps_dual at exit
  // max(primal / eps_pri, dual / eps_dual): <= 1 exactly when converged.
  double final_residual = 0.0;
  double final_rho = 0.0;  // penalty in force at exit
  int rho_updates = 0;     // residual-balancing changes of rho
  bool converged = false;  // met the stopping rule within the budget
  // Columns that started from a stored iterate (0 for a cold start).
  int64_t warm_columns = 0;
};

// The exact solve's final ADMM iterate over N points, and on entry the map
// that carries it to the next solve's columns. C's rows and columns are both
// indexed by point (atom j is point j), so one map serves both.
struct SscAdmmIterate {
  // On entry, per column of x: the column (and atom) of this iterate it
  // continues, or -1 for a point that starts from zero. Empty on entry means
  // a cold start; cleared on exit.
  std::vector<int64_t> source;
  SparseMatrix c;     // C's nonzero entries, unrounded
  Matrix u;           // the scaled dual U, dense
  double rho = 0.0;   // the penalty in force at exit
};

// Sparse self-expression matrix C for the columns of x (which should be
// l2-normalized): the dictionary solve with B = X. Requires N >= 2. `info`,
// when non-null, receives the solve's convergence record.
//
// `iterate`, when non-null, is read and then replaced: a non-empty
// `source` starts the ADMM from the stored C, U and rho mapped through it
// (InvalidArgument when `source` does not fit x or the iterate), and on
// success *iterate receives this solve's final C, U and rho. It is left
// empty on failure and in affine mode, which always starts cold.
Result<SparseMatrix> SscSelfExpression(const Matrix& x,
                                       const SscAdmmOptions& options = {},
                                       SscAdmmInfo* info = nullptr,
                                       SscAdmmIterate* iterate = nullptr);

// Sketched variant (Traganitis-Giannakis): the dictionary solve with
// B = sketch.dictionary, so an iteration costs O(min(D, d) * d * N) instead
// of O(min(D, N) * N^2). Columns run in fixed blocks of 256 (a pure function
// of N, never of the thread count) with block-local stopping; results are
// bit-identical for every thread count. A landmark column's own atom is
// pinned to zero. The affine mode is not supported on this path. Returns the
// d x N coefficient matrix.
Result<SparseMatrix> SscSketchedSelfExpression(
    const Matrix& x, const SketchResult& sketch,
    const SscAdmmOptions& options = {}, SscAdmmInfo* info = nullptr);

// The lambda the solver would use for `x` (exposed for tests/diagnostics).
// Builds the Gram with `num_threads` workers via the Syrk hot path.
double SscLambda(const Matrix& x, double alpha, int num_threads = 1);

// Same, from a Gram the caller already has (e.g. the one SscSelfExpression
// builds anyway) so the X^T X product is never paid twice.
double SscLambdaFromGram(const Matrix& gram, double alpha,
                         int num_threads = 1);

// The dictionary solve's mutual coherence floor, SscSketchedSelfExpression's
// lambda = alpha / mu: mu = min_j max_a |b_a^T x_j| over the atoms column j
// may use (a != self_atom[j]). Scores come from B^T X in 256-column GEMM
// blocks, so with B = X and self_atom[j] = j every score is the bit of
// Gram(X) that SscLambdaFromGram reads, and the floors are equal.
// Bit-identical for every thread count.
double DictionaryCoherenceFloor(const Matrix& b, const Matrix& x,
                                const std::vector<int64_t>& self_atom,
                                int num_threads = 1);

}  // namespace fedsc

#endif  // FEDSC_SC_SSC_ADMM_H_
