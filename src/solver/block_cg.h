// Block conjugate gradient: N simultaneous CG recurrences over one
// batched Schur operator -- the only Schur CG; a single right-hand side
// runs it at N = 1, on one rank or on a rank's slab (the operator's hop
// provider and its grids' reduction ring make the difference, not this
// loop).
//
// This is NOT a block-Krylov method -- each column runs the classical CG
// recurrence with its own alpha/beta/residual, so convergence behaviour
// per column is that of a single-column CG.  What is shared is the MEMORY
// TRAFFIC: every operator application streams the gauge links once for
// all N columns (qcd/block.h), and the linear algebra runs over
// site-contiguous block fields in fused passes:
//
//   - pAp comes for free from the operator's second hopping sweep
//     (BlockSchurEvenOddWilson::mhat_norm2: on the normal equations
//     <p, Mhat^dag Mhat p> = |Mhat p|^2), removing the separate two-pass
//     inner product;
//   - the residual update fuses with its norm (block_axpy_norm2);
//   - the x and p updates fuse into one pass over the pre-update p
//     (block_xp_update).
//
// Both passes are register-resident (lattice/block.h): under one PTRUE
// per site they load each vector they read once, store each vector they
// write once and fold |r|^2 in registers -- 9.53 and 11.19 instructions
// per vector at sve-fcmla/512, N = 12.
//
// Determinism contract: all per-column reductions run through the fixed
// chunked tree of support/parallel.h, so results are bitwise
// thread-count-invariant and column-independent: column j of an N-wide
// solve is bitwise the N = 1 solve of that column.
//
// Per-column convergence is tracked independently through a ColumnMask:
// a converged column freezes (its fields keep their bits, it stops paying
// linalg) while its siblings iterate on, and a column that reaches the
// iteration cap unconverged never perturbs the others.
#pragma once

#include <array>
#include <cmath>

#include "lattice/block.h"
#include "qcd/block.h"
#include "solver/result.h"
#include "solver/workspace.h"
#include "support/assert.h"
#include "support/metrics.h"

namespace svelat::solver {

/// CG on the normal equations Mhat^dag Mhat x_j = b_j for all N columns
/// at once.  `x` must hold zeros on entry (the Schur driver, the only
/// caller, zeroes it), so the Krylov start r = p = b costs no operator
/// application.  Returns each column's recursion verdict only, exactly as
/// N independent single-column CGs would report it: the Schur driver
/// (WilsonSolver's SchurEngine) computes the full-system true residual.
/// The work fields come from `pool` (slots kR/kP/kAp, and kV for Mhat p),
/// so repeated solves through one pool allocate nothing.
template <class S, int N, class Hops>
std::array<SolverResult, N> block_conjugate_gradient(
    const qcd::BlockSchurEvenOddWilson<S, N, Hops>& eo,
    SolverWorkspace<qcd::HalfBlockFermion<S, N>>& pool,
    const qcd::HalfBlockFermion<S, N>& b, qcd::HalfBlockFermion<S, N>& x,
    double tolerance, int max_iterations) {
  using vobj = qcd::SpinColourVector<S>;
  using GridT = lattice::GridRedBlackCartesian;
  using WS = SolverWorkspace<qcd::HalfBlockFermion<S, N>>;
  auto& r = pool.get(WS::kR, b.grid());
  auto& p = pool.get(WS::kP, b.grid());
  auto& ap = pool.get(WS::kAp, b.grid());
  auto& mp = pool.get(WS::kV, b.grid());

  std::array<SolverResult, N> stats;

  const std::array<double, N> b2 = lattice::block_norm2(b);
  std::array<double, N> stop, rr;
  for (int j = 0; j < N; ++j) {
    const auto u = static_cast<std::size_t>(j);
    SVELAT_ASSERT_MSG(b2[u] > 0.0, "CG needs a non-zero right-hand side");
    stop[u] = tolerance * tolerance * b2[u];
  }

  // r0 = b - A 0 = b.
  lattice::block_copy(r, b);
  lattice::block_copy(p, b);
  rr = b2;

  lattice::ColumnMask<N> active = lattice::all_columns<N>();

  std::array<double, N> alpha{}, nal{}, beta{};
  for (int k = 0; k < max_iterations; ++k) {
    bool any = false;
    for (int j = 0; j < N; ++j) {
      const auto u = static_cast<std::size_t>(j);
      if (!active[u]) continue;
      stats[u].residual_history.push_back(std::sqrt(rr[u] / b2[u]));
      if (rr[u] <= stop[u]) {
        active[u] = false;  // converged: freeze, siblings iterate on
        continue;
      }
      any = true;
    }
    if (!any) break;

    // mp = Mhat p and pap = |Mhat p|^2 fused into the operator's second
    // sweep; ap = Mhat^dag mp completes A p.
    const std::array<double, N> pap = eo.mhat_norm2(p, mp);
    eo.mhat_dag(mp, ap);
    {
      // The linalg tail; the operator sweeps are timed at dhop_*_block
      // granularity.
      metrics::ScopedTimer mt("block_cg_linalg");
      for (int j = 0; j < N; ++j) {
        const auto u = static_cast<std::size_t>(j);
        if (!active[u]) continue;
        SVELAT_ASSERT_MSG(pap[u] > 0.0, "operator is not positive definite");
        alpha[u] = rr[u] / pap[u];
        nal[u] = -alpha[u];
      }
      const std::array<double, N> rr_next =
          lattice::block_axpy_norm2<vobj, N, GridT>(r, nal, ap, r, active);
      for (int j = 0; j < N; ++j) {
        const auto u = static_cast<std::size_t>(j);
        if (!active[u]) continue;
        beta[u] = rr_next[u] / rr[u];
      }
      // x += alpha p_old; p = beta p_old + r_new, one fused pass.
      lattice::block_xp_update<vobj, N, GridT>(x, p, r, alpha, beta, active);
      for (int j = 0; j < N; ++j) {
        const auto u = static_cast<std::size_t>(j);
        if (!active[u]) continue;
        rr[u] = rr_next[u];
        stats[u].iterations = k + 1;
      }
    }
  }

  for (int j = 0; j < N; ++j) {
    const auto u = static_cast<std::size_t>(j);
    stats[u].converged = rr[u] <= stop[u];
    stats[u].final_residual = std::sqrt(rr[u] / b2[u]);
  }
  return stats;
}

}  // namespace svelat::solver
