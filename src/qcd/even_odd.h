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
// zero-padded formulation.  It is the single-rank hop provider of the
// Schur operator: its `sweep` runs one parity's hopping term over N
// columns.  The operator over it, at any number of right-hand sides, and
// the Schur solve driver are in qcd/block.h; physics code drives them
// through the solver::WilsonSolver facade (solver/solver.h).  The
// distributed hop provider is comms::DistributedWilsonDirac.  The
// historical zero-padded EvenOddWilson path survives only as a test oracle
// (tests/qcd/padded_oracle.h), against which the half kernels are bitwise
// checked site by site (test_even_odd DhopEoOeMatchZeroPaddedBitwise,
// HalfMhatMatchesZeroPaddedMhat).
#pragma once

#include "qcd/wilson.h"

namespace svelat::qcd {

/// Memory-traffic model of one batched dhop site in reals: the 8 link
/// reads are shared by all N columns, the 9 spinor accesses pay per
/// column.
inline constexpr double block_dhop_reals_per_site(int n) {
  return 9.0 * (Ns * Nc * 2) * n + 8.0 * (Nc * Nc * 2);
}

namespace detail {

/// One batched site of the hopping term.  The column loop is OUTER and
/// the direction loop inner: each column runs the register-resident site
/// kernel (qcd/dhop_kernel.h) with its accumulator live in registers,
/// while the 8 gauge links and stencil entries -- pulled from memory by
/// column 0 -- stay L1-resident for columns 1..N-1, so their cache/DRAM
/// traffic amortizes N-fold.  One PTRUE and zero register serve all
/// columns.
///
/// Two bitwise-exact fusion hooks eliminate separate field passes (each a
/// full read+write stream in the memory-bound regime):
///  - G5In: applies gamma5 to the neighbour spinor in registers, exactly
///    the values a prior `tmp = gamma5 in` pass would have produced
///    (gamma5 is a sign flip, and sign flips commute bitwise with the
///    lane permutation).
///  - `post(j, pg, z, a0, a1, a2, a3)` consumes column j's hopping sum
///    (one colour triplet per spin) while it is still in registers -- the
///    hook that stores it, or fuses the Wilson diagonal, an output gamma5
///    or a norm into the same sweep (StoreColumn / DiagColumn,
///    qcd/dhop_kernel.h).
template <bool G5In, class S, int N, class BlockT, class TableT, class UFieldT,
          class PostF>
inline void dhop_site_block(const BlockT& in, const TableT& st, const UFieldT* u_fwd,
                            const UFieldT* u_bwd, std::int64_t o, PostF&& post) {
  using R = HopRegs<S>;
  const typename R::pred pg = R::ptrue();
  const typename R::reg z = R::zero();
  for (int j = 0; j < N; ++j) {
    typename R::template tuple<Nc> a0, a1, a2, a3;
    hop_sum<G5In, S>(
        pg, z, u_fwd, u_bwd, o,
        [&](int dir) {
          return stencil_source<S>(
              st, o, dir, [&](std::int64_t s) -> const auto& { return in.at(s, j); });
        },
        a0, a1, a2, a3);
    post(j, pg, z, a0, a1, a2, a3);
  }
}

}  // namespace detail

/// The data of the Schur operator Mhat on the even half lattice: the
/// parity-split gauge field and parity-restricted stencils (WilsonDiracEO)
/// that the operator reads at every width.  The operator itself is
/// BlockSchurEvenOddWilson<S, N> (qcd/block.h), a view over this object;
/// a single right-hand side is N = 1.
template <class S>
class SchurEvenOddWilson {
 public:
  SchurEvenOddWilson(const GaugeField<S>& gauge, double mass) : kernels_(gauge, mass) {}

  const lattice::GridRedBlackCartesian* even_grid() const {
    return kernels_.even_grid();
  }
  const lattice::GridRedBlackCartesian* odd_grid() const { return kernels_.odd_grid(); }
  double diag() const { return 4.0 + kernels_.mass(); }

  /// The hop provider interface of BlockSchurEvenOddWilson: the hopping
  /// term into every site h of the target `parity`, read from the
  /// opposite-parity block `in` (N columns; gamma5 on the neighbour loads
  /// with G5In).  Site h's sums go to the post hook `hook(h)` while still
  /// in registers.  Recorded as "dhop_eo_block" (even target) or
  /// "dhop_oe_block" with the N-column traffic model.
  template <bool G5In, class Block, class HookF>
  void sweep(int parity, const Block& in, HookF&& hook) const {
    constexpr int N = Block::block_size;
    const bool even = parity == lattice::kParityEven;
    const WilsonDiracEO<S>& k = kernels_;
    const lattice::StencilRedBlack& st = even ? k.st_eo() : k.st_oe();
    const HalfLatticeColourMatrix<S>* u_fwd = even ? k.u_fwd_e() : k.u_fwd_o();
    const HalfLatticeColourMatrix<S>* u_bwd = even ? k.u_bwd_e() : k.u_bwd_o();
    const lattice::GridRedBlackCartesian* target = even ? even_grid() : odd_grid();
    const double sites = static_cast<double>(target->gsites());
    metrics::ScopedTimer mt(
        even ? "dhop_eo_block" : "dhop_oe_block",
        sites * block_dhop_reals_per_site(N) * sizeof(typename S::real_type),
        sites * kDhopFlopsPerSite * N);
    thread_for(target->osites(), [&](std::int64_t h) {
      detail::dhop_site_block<G5In, S, N>(in, st, u_fwd, u_bwd, h, hook(h));
    });
  }

 private:
  WilsonDiracEO<S> kernels_;
};

}  // namespace svelat::qcd
