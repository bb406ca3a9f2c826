// BiCGSTAB: solves the non-hermitian system M x = b directly, avoiding the
// condition-number squaring of the normal equations that CG needs.
// Standard alternative iterative solver in LQCD codes for Wilson fermions
// (the paper's Sec. II-A "iterative solvers like Conjugate Gradient").  The
// solver::WilsonSolver facade runs it on the Schur operator Mhat only
// (solver::supported): on the full-lattice operator it breaks down on every
// point source.
#pragma once

#include <cmath>

#include "solver/cg.h"

namespace svelat::solver {

/// BiCGSTAB for a general (non-hermitian) operator `op`.  `x` must hold
/// zeros on entry (the Schur driver zeroes it), so r0 = b costs no operator
/// application; it receives the solution.  A breakdown (<r0, v>, |t|, rho
/// or omega = 0; a point source on the full-lattice Wilson operator hits
/// <r0, v> = 0 exactly) ends the loop with StallReason::kBreakdown, never
/// an abort.  A caller-owned `workspace` makes repeated solves
/// allocation-free (slots kR/kR0/kP/kV/kS/kT).  Returns the recursion
/// verdict only: the caller that knows the user's system (the Schur
/// driver) computes the true residual, and the facade the solution norm.
template <class Field, class LinearOp>
SolverResult bicgstab(const LinearOp& op, const Field& b, Field& x, double tolerance,
                      int max_iterations, SolverWorkspace<Field>* workspace = nullptr) {
  using C = decltype(innerProduct(b, b));
  SolverResult stats;
  stats.algorithm = Algorithm::kBiCGSTAB;
  stats.target_residual = tolerance;

  const double b2 = norm2(b);
  SVELAT_ASSERT_MSG(b2 > 0.0, "BiCGSTAB needs a non-zero right-hand side");
  stats.rhs_norm = std::sqrt(b2);
  const double stop = tolerance * tolerance * b2;

  SolverWorkspace<Field> local;
  SolverWorkspace<Field>& pool = workspace ? *workspace : local;
  using WS = SolverWorkspace<Field>;
  Field& r = pool.get(WS::kR, b.grid());
  Field& r0 = pool.get(WS::kR0, b.grid());
  Field& p = pool.get(WS::kP, b.grid());
  Field& v = pool.get(WS::kV, b.grid());
  Field& s = pool.get(WS::kS, b.grid());
  Field& t = pool.get(WS::kT, b.grid());
  r = b;   // r0 = b - A 0
  r0 = r;  // shadow residual
  p = r;
  C rho = innerProduct(r0, r);
  double rr = norm2(r);

  // The linalg clusters between the operator applications (which are
  // timed at dhop granularity) are timed as "bicgstab_linalg".
  for (int k = 0; k < max_iterations && rr > stop; ++k) {
    stats.residual_history.push_back(std::sqrt(rr / b2));

    op(p, v);
    C alpha;
    double s2;
    {
      metrics::ScopedTimer mt("bicgstab_linalg");
      const C r0v = innerProduct(r0, v);
      if (std::abs(r0v) == 0.0) {
        stats.stall = StallReason::kBreakdown;
        break;
      }
      alpha = rho / r0v;
      s2 = axpy_norm2(s, -alpha, v, r);  // s = r - alpha v, |s|^2
    }
    if (s2 <= stop) {  // early half-step convergence
      metrics::ScopedTimer mt("bicgstab_linalg");
      axpy(x, alpha, p, x);
      rr = s2;
      stats.iterations = k + 1;
      break;
    }

    op(s, t);
    {
      metrics::ScopedTimer mt("bicgstab_linalg");
      const double t2 = norm2(t);
      if (t2 == 0.0) {
        stats.stall = StallReason::kBreakdown;
        break;
      }
      // t2 in C's own real type: an fp32 field's inner products are
      // std::complex<float> (a no-op cast in double).
      const C omega = innerProduct(t, s) / static_cast<typename C::value_type>(t2);

      // x += alpha p + omega s
      axpy(x, alpha, p, x);
      axpy(x, omega, s, x);
      // r = s - omega t, fused with the norm
      rr = axpy_norm2(r, -omega, t, s);
      stats.iterations = k + 1;

      const C rho_next = innerProduct(r0, r);
      if (std::abs(rho) == 0.0 || std::abs(omega) == 0.0) {
        stats.stall = StallReason::kBreakdown;
        break;
      }
      const C beta = (rho_next / rho) * (alpha / omega);
      // p = r + beta (p - omega v)
      axpy(p, -omega, v, p);
      axpy(p, beta, p, r);
      rho = rho_next;
    }
  }
  stats.residual_history.push_back(std::sqrt(rr / b2));

  stats.converged = rr <= stop;
  stats.final_residual = std::sqrt(rr / b2);
  return stats;
}

}  // namespace svelat::solver
