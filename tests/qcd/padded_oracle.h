// Zero-padded even-odd Wilson oracle -- TEST-ONLY.
//
// The original reference formulation of the Schur solve: fields stay
// full-lattice-sized and the inactive parity is kept at zero.  Costs 2x
// memory and ~2x flops/bandwidth on solver temporaries (every
// dhop/axpy/norm sweeps dead sites; measured ~2x the dynamic instructions
// per CG iteration of the half-checkerboard path), but leaves every
// layout/permute code path identical to the unpreconditioned operator --
// which is exactly what makes it a good oracle: the production
// half-checkerboard kernels (qcd/even_odd.h, driven through
// solver::WilsonSolver) are checked bitwise site by site against it.
//
// Production code must not touch this path; it is deliberately parked
// under tests/, with the per-site parity table (Checkerboard) it masks by.
#pragma once

#include "qcd/even_odd.h"
#include "solver/cg.h"

namespace svelat::qcd {

/// Site parity bookkeeping for a grid whose virtual-node blocks are
/// parity-uniform (all lanes of an outer site share one parity).
class Checkerboard {
 public:
  explicit Checkerboard(const lattice::GridCartesian* grid) : grid_(grid) {
    lattice::assert_parity_uniform_layout(*grid);
    parity_.resize(static_cast<std::size_t>(grid->osites()));
    thread_for(grid->osites(), [&](std::int64_t o) {
      parity_[static_cast<std::size_t>(o)] =
          static_cast<std::uint8_t>(lattice::outer_site_parity(*grid, o));
    });
  }

  int parity(std::int64_t osite) const {
    return parity_[static_cast<std::size_t>(osite)];
  }
  const lattice::GridCartesian* grid() const { return grid_; }

  /// Zero all sites of the given parity.
  template <class vobj>
  void project_out(lattice::Lattice<vobj>& f, int parity_to_clear) const {
    thread_for(grid_->osites(), [&](std::int64_t o) {
      if (parity(o) == parity_to_clear) tensor::zeroit(f[o]);
    });
  }

 private:
  const lattice::GridCartesian* grid_;
  std::vector<std::uint8_t> parity_;
};

/// Even-odd decomposed Wilson operator on zero-padded full-lattice fields.
template <class S>
class EvenOddWilson {
 public:
  using Fermion = LatticeFermion<S>;
  static constexpr int kEven = 0;
  static constexpr int kOdd = 1;

  EvenOddWilson(const GaugeField<S>& gauge, double mass)
      : dirac_(gauge, mass), cb_(gauge.grid()), mass_(mass) {}

  const WilsonDirac<S>& full_operator() const { return dirac_; }
  const Checkerboard& checkerboard() const { return cb_; }
  double diag() const { return 4.0 + mass_; }

  /// Hopping term restricted to target parity: out_p = Dh in (sites of
  /// parity p written; the opposite parity of out is zeroed).
  void dhop_parity(const Fermion& in, Fermion& out, int parity) const {
    dirac_.dhop(in, out);
    cb_.project_out(out, 1 - parity);
  }

  /// Schur operator on the even sublattice:
  ///   Mhat x_e = (4+m) x_e - Dh_eo Dh_oe x_e / (4 (4+m)).
  void mhat(const Fermion& in, Fermion& out) const {
    Fermion tmp(cb_.grid());
    dhop_parity(in, tmp, kOdd);    // tmp_o = Dh_oe in_e
    dhop_parity(tmp, out, kEven);  // out_e = Dh_eo tmp_o
    const double d = diag();
    const S a(typename S::scalar_type(d, 0.0));
    const S b(typename S::scalar_type(-0.25 / d, 0.0));
    thread_for(cb_.grid()->osites(),
               [&](std::int64_t o) { out[o] = a * in[o] + b * out[o]; });
    cb_.project_out(out, kOdd);
  }

  /// Mhat^dag via gamma5-hermiticity (gamma5 commutes with parity).
  void mhat_dag(const Fermion& in, Fermion& out) const {
    Fermion tmp(cb_.grid());
    WilsonDirac<S>::apply_gamma5(in, tmp);
    mhat(tmp, out);
    WilsonDirac<S>::apply_gamma5(out, out);
  }

  void mhat_dag_mhat(const Fermion& in, Fermion& out) const {
    Fermion tmp(cb_.grid());
    mhat(in, tmp);
    mhat_dag(tmp, out);
  }

 private:
  WilsonDirac<S> dirac_;
  Checkerboard cb_;
  double mass_;
};

/// Schur-preconditioned solve of M x = b on zero-padded fields:
///   1.  b'_e = b_e - Meo Moo^{-1} b_o
///   2.  solve Mhat x_e = b'_e   (CG on Mhat^dag Mhat)
///   3.  x_o = Moo^{-1} (b_o - Moe x_e)
template <class S>
solver::SolverResult solve_wilson_schur(const EvenOddWilson<S>& eo,
                                        const LatticeFermion<S>& b, LatticeFermion<S>& x,
                                        double tolerance, int max_iterations) {
  using Fermion = LatticeFermion<S>;
  const Checkerboard& cb = eo.checkerboard();
  const lattice::GridCartesian* grid = cb.grid();
  const double d = eo.diag();

  // Split b by parity.
  Fermion b_e = b, b_o = b;
  cb.project_out(b_e, EvenOddWilson<S>::kOdd);
  cb.project_out(b_o, EvenOddWilson<S>::kEven);

  // 1. b'_e = b_e + (1/(2(4+m))) Dh_eo b_o     (Meo = -Dh_eo/2)
  Fermion tmp(grid), b_prime(grid);
  eo.dhop_parity(b_o, tmp, EvenOddWilson<S>::kEven);
  axpy(b_prime, 0.5 / d, tmp, b_e);
  cb.project_out(b_prime, EvenOddWilson<S>::kOdd);

  // 2. Normal-equation CG on the even sublattice.
  Fermion rhs(grid);
  eo.mhat_dag(b_prime, rhs);
  Fermion x_e(grid);
  x_e.set_zero();
  auto op = [&eo](const Fermion& in, Fermion& out) { eo.mhat_dag_mhat(in, out); };
  solver::SolverResult stats =
      solver::conjugate_gradient(op, rhs, x_e, tolerance, max_iterations);

  // 3. x_o = (b_o + (1/2) Dh_oe x_e) / (4+m).
  eo.dhop_parity(x_e, tmp, EvenOddWilson<S>::kOdd);
  Fermion x_o(grid);
  axpy(x_o, 0.5, tmp, b_o);
  x_o = (1.0 / d) * x_o;
  cb.project_out(x_o, EvenOddWilson<S>::kEven);

  x = x_e + x_o;

  // True residual of the *full* system.
  Fermion mx(grid), r(grid);
  eo.full_operator().m(x, mx);
  r = b - mx;
  stats.true_residual = std::sqrt(norm2(r) / norm2(b));
  return stats;
}

}  // namespace svelat::qcd
