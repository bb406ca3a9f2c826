// Conjugate Gradient on a hermitian positive-definite operator.
//
// "A significant fraction of time-to-solution of LQCD applications is
//  spent in solving a linear set of equations, for which iterative solvers
//  like Conjugate Gradient are used" (paper Sec. II-A).  The Wilson matrix
//  M is not hermitian; CG runs on the normal equations M^dag M x = M^dag b
//  (WilsonNormalOp below).
#pragma once

#include <cmath>
#include <vector>

#include "lattice/lattice.h"
#include "qcd/wilson.h"
#include "solver/result.h"
#include "solver/workspace.h"
#include "support/assert.h"
#include "support/metrics.h"

namespace svelat::solver {

/// CG for A x = b with A hermitian positive definite.  `op(in, out)`
/// applies A.  `x` carries the initial guess and receives the solution.
/// Field is any lattice field type with grid()/norm2/innerProduct/axpy.
/// A caller-owned `workspace` makes repeated solves allocation-free
/// (slots kR/kP/kAp).  Returns the recursion verdict only: the caller that
/// knows the user's system computes the true residual (solve_wilson
/// below), and the facade the solution norm.
template <class Field, class LinearOp>
SolverResult conjugate_gradient(const LinearOp& op, const Field& b, Field& x,
                                double tolerance, int max_iterations,
                                SolverWorkspace<Field>* workspace = nullptr) {
  SolverResult stats;
  stats.algorithm = Algorithm::kCG;
  stats.target_residual = tolerance;

  const double b2 = norm2(b);
  stats.rhs_norm = std::sqrt(b2);
  SVELAT_ASSERT_MSG(b2 > 0.0, "CG needs a non-zero right-hand side");

  SolverWorkspace<Field> local;
  SolverWorkspace<Field>& pool = workspace ? *workspace : local;
  using WS = SolverWorkspace<Field>;
  Field& r = pool.get(WS::kR, b.grid());
  Field& p = pool.get(WS::kP, b.grid());
  Field& ap = pool.get(WS::kAp, b.grid());
  op(x, ap);            // ap = A x0
  sub(r, b, ap);        // r0
  p = r;
  double rr = norm2(r);
  const double stop = tolerance * tolerance * b2;

  for (int k = 0; k < max_iterations; ++k) {
    stats.residual_history.push_back(std::sqrt(rr / b2));
    if (rr <= stop) break;

    op(p, ap);
    {
      // The linalg tail; the operator application is timed at dhop
      // granularity.
      metrics::ScopedTimer mt("cg_linalg");
      const double pap = std::real(innerProduct(p, ap));
      SVELAT_ASSERT_MSG(pap > 0.0, "operator is not positive definite");
      const double alpha = rr / pap;

      axpy(x, alpha, p, x);  // x += alpha p
      // r -= alpha A p, fused with the norm (one field pass; the chunked
      // reduction keeps the residual history bitwise thread-count-invariant).
      const double rr_next = axpy_norm2(r, -alpha, ap, r);
      const double beta = rr_next / rr;
      axpy(p, beta, p, r);     // p = r + beta p
      rr = rr_next;
    }
    stats.iterations = k + 1;
  }

  stats.converged = rr <= stop;
  stats.final_residual = std::sqrt(rr / b2);
  return stats;
}

/// M^dag M wrapper for a Wilson-like operator (anything exposing
/// m/mdag/mdag_m over a matching field): the CG target.  Generic over the
/// operator and its precision (qcd::WilsonDirac in double or fp32).
template <class Op>
struct WilsonNormalOp {
  const Op& dirac;
  template <class Field>
  void operator()(const Field& in, Field& out) const {
    dirac.mdag_m(in, out);
  }
};

/// Solve M x = b through the normal equations; returns CG stats plus the
/// true Wilson residual |b - M x| / |b|.  Building block of the
/// solver::WilsonSolver facade (Algorithm::kCG, Preconditioner::kNone).
/// Operator-generic: any `Op` with m/mdag/mdag_m over `Field`.  The
/// optional workspace covers the wrapper fields (kRhs/kMx) as well as
/// the CG internals, so a warm facade solve allocates nothing.
template <class Op, class Field>
SolverResult solve_wilson(const Op& dirac, const Field& b, Field& x,
                          double tolerance, int max_iterations,
                          SolverWorkspace<Field>* workspace = nullptr) {
  SolverWorkspace<Field> local;
  SolverWorkspace<Field>& pool = workspace ? *workspace : local;
  using WS = SolverWorkspace<Field>;
  Field& mdag_b = pool.get(WS::kRhs, b.grid());
  dirac.mdag(b, mdag_b);
  SolverResult stats =
      conjugate_gradient(WilsonNormalOp<Op>{dirac}, mdag_b, x, tolerance,
                         max_iterations, &pool);
  // Replace the normal-equation |b| with the Wilson-system one.
  const double b2 = norm2(b);
  stats.rhs_norm = std::sqrt(b2);
  Field& mx = pool.get(WS::kMx, b.grid());
  Field& r = pool.get(WS::kR, b.grid());
  dirac.m(x, mx);
  sub(r, b, mx);
  stats.true_residual = std::sqrt(norm2(r) / b2);
  return stats;
}

}  // namespace svelat::solver
