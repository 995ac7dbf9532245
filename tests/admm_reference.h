// Test-only restatement of the SSC-ADMM stopping rule and penalty schedule
// (Boyd et al. Sections 3.3 and 3.4.1), shared by the explicit-inverse
// reference loops in sc_test.cc and sketch_test.cc. The constants are the
// solver's: eps_abs = tol * 1e-3, and every 10th iteration rho doubles or
// halves when one normalized residual exceeds the other tenfold.

#ifndef FEDSC_TESTS_ADMM_REFERENCE_H_
#define FEDSC_TESTS_ADMM_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fedsc {

// Squared-norm contributions of one column: ||z - c||^2 (plus the affine
// residual), ||c - c_prev||^2, ||z||^2, ||c||^2 and ||u||^2.
struct ReferenceColumnSums {
  double primal = 0.0;
  double dual = 0.0;
  double z = 0.0;
  double c = 0.0;
  double u = 0.0;
};

struct ReferenceDecision {
  bool converged = false;
  double next_rho = 0.0;  // rho for the next iteration
};

// The decision after `iteration` (1-based) iterations of a rows x
// cols.size() solve at penalty `rho`.
inline ReferenceDecision ReferenceStoppingRule(
    const std::vector<ReferenceColumnSums>& cols, int64_t rows, double rho,
    double tol, int iteration, int max_iterations) {
  ReferenceColumnSums total;
  for (const ReferenceColumnSums& col : cols) {
    total.primal += col.primal;
    total.dual += col.dual;
    total.z += col.z;
    total.c += col.c;
    total.u += col.u;
  }
  const double eps_abs = tol * 1e-3;
  const double scale =
      std::sqrt(static_cast<double>(rows) * static_cast<double>(cols.size()));
  const double primal_ratio =
      std::sqrt(total.primal) /
      (scale * eps_abs + tol * std::max(std::sqrt(total.z),
                                        std::sqrt(total.c)));
  const double dual_ratio = rho * std::sqrt(total.dual) /
                            (scale * eps_abs + tol * rho * std::sqrt(total.u));
  ReferenceDecision decision{primal_ratio <= 1.0 && dual_ratio <= 1.0, rho};
  if (decision.converged || iteration % 10 != 0 ||
      iteration == max_iterations) {
    return decision;
  }
  if (primal_ratio > 10.0 * dual_ratio) decision.next_rho = rho * 2.0;
  if (dual_ratio > 10.0 * primal_ratio) decision.next_rho = rho / 2.0;
  return decision;
}

}  // namespace fedsc

#endif  // FEDSC_TESTS_ADMM_REFERENCE_H_
