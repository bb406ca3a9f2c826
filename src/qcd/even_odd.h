// Even-odd (red-black) preconditioning of the Wilson operator.
//
// Writing sites by parity p(x) = (x+y+z+t) mod 2, the Wilson matrix is
//
//        M = [ Mee  Meo ]     Mee = Moo = (4+m) * 1
//            [ Moe  Moo ]     Meo/Moe = -1/2 Dh restricted to e<-o / o<-e
//
// and the Schur complement on the even sublattice,
//
//        Mhat = Mee - Meo Moo^{-1} Moe
//             = (4+m) - Dh_eo Dh_oe / (4 (4+m)),
//
// halves the solve dimension and improves conditioning -- the standard
// production solver structure in Grid and every other LQCD code (the
// "iterative solvers" of paper Sec. II-A are e/o-preconditioned CG).
//
// SchurEvenOddWilson here holds the production data: the parity-split
// gauge field and the parity-restricted kernels dhop_eo/dhop_oe
// (qcd/wilson.h) on true half-checkerboard fields (lattice/red_black.h) --
// half the memory footprint and half the per-iteration traffic of a
// zero-padded formulation.  The operator over it, at any number of
// right-hand sides, and the Schur solve driver are in qcd/block.h; physics
// code drives them through the solver::WilsonSolver facade
// (solver/solver.h).  The historical zero-padded EvenOddWilson path
// survives only as a test oracle (tests/qcd/padded_oracle.h), against
// which the half kernels are bitwise checked site by site
// (test_even_odd DhopEoOeMatchZeroPaddedBitwise, HalfMhatMatchesZeroPaddedMhat).
#pragma once

#include "qcd/wilson.h"

namespace svelat::qcd {

/// The data of the Schur operator Mhat on the even half lattice: the
/// parity-split gauge field and parity-restricted stencils (WilsonDiracEO)
/// that the operator reads at every width.  The operator itself is
/// BlockSchurEvenOddWilson<S, N> (qcd/block.h), a view over this object;
/// a single right-hand side is N = 1.
template <class S>
class SchurEvenOddWilson {
 public:
  SchurEvenOddWilson(const GaugeField<S>& gauge, double mass) : kernels_(gauge, mass) {}

  const WilsonDiracEO<S>& kernels() const { return kernels_; }
  const lattice::GridRedBlackCartesian* even_grid() const {
    return kernels_.even_grid();
  }
  const lattice::GridRedBlackCartesian* odd_grid() const { return kernels_.odd_grid(); }
  double diag() const { return 4.0 + kernels_.mass(); }

 private:
  WilsonDiracEO<S> kernels_;
};

}  // namespace svelat::qcd
