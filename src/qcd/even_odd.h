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
// SchurEvenOddWilson here is the one half-checkerboard hop core: the
// red-black half grids of a lattice (or of one rank's slab), the two
// parity stencils, one double-stored full-grid link set read at
// full_osite(h), and one parity sweep over a list of target sites with a
// per-hop source hook.  Fields are true half-checkerboard fields
// (lattice/red_black.h): half the memory footprint and half the
// per-iteration traffic of a zero-padded formulation.  Its `sweep` --
// every target site, every neighbour from the parity stencil -- is the
// single-rank hop provider of the Schur operator; the distributed
// provider, comms::DistributedWilsonDirac, holds a core on its rank's slab
// and runs the same sweep over its interior and boundary sites, serving
// the off-rank hops from ghost faces through the source hook.  The
// operator over either provider, at any number of right-hand sides, and
// the Schur solve driver are in qcd/block.h; physics code drives them
// through the solver::WilsonSolver facade (solver/solver.h).  The
// historical zero-padded EvenOddWilson path survives only as a test oracle
// (tests/qcd/padded_oracle.h), against which the half sweeps are bitwise
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

/// Per-hop source hook of a site whose every neighbour is rank-local: each
/// hop reads the parity stencil's neighbour.
struct StencilHops {
  template <class Src>
  Src operator()(int, const Src& local) const {
    return local;
  }
};

}  // namespace detail

/// The data of the Schur operator Mhat and its parity sweeps: the half
/// grids, parity stencils and links that the operator reads at every
/// width.  The operator itself is BlockSchurEvenOddWilson<S, N>
/// (qcd/block.h), a view over this object; a single right-hand side is
/// N = 1.
template <class S>
class SchurEvenOddWilson {
 public:
  /// `ring`: the cross-rank reduction ring the half grids carry when
  /// `gauge` lives on one rank's sub-lattice (lattice/red_black.h); null
  /// on one process.
  SchurEvenOddWilson(const GaugeField<S>& gauge, double mass,
                     const ReduceRing* ring = nullptr)
      : mass_(mass),
        even_(gauge.grid(), lattice::kParityEven, ring),
        odd_(gauge.grid(), lattice::kParityOdd, ring),
        stencils_{lattice::StencilRedBlack(&even_, &odd_),
                  lattice::StencilRedBlack(&odd_, &even_)},
        u_fwd_{gauge.U[0], gauge.U[1], gauge.U[2], gauge.U[3]},
        u_bwd_{lattice::Cshift(gauge.U[0], 0, -1), lattice::Cshift(gauge.U[1], 1, -1),
               lattice::Cshift(gauge.U[2], 2, -1), lattice::Cshift(gauge.U[3], 3, -1)} {}

  // The stencils and every half field hold pointers to the member grids:
  // moving the core would dangle them.
  SchurEvenOddWilson(const SchurEvenOddWilson&) = delete;
  SchurEvenOddWilson& operator=(const SchurEvenOddWilson&) = delete;

  const lattice::GridRedBlackCartesian* even_grid() const { return &even_; }
  const lattice::GridRedBlackCartesian* odd_grid() const { return &odd_; }
  double mass() const { return mass_; }
  double diag() const { return 4.0 + mass_; }

  /// The double-stored links on the full grid: U_mu(x) and U_mu(x - mu^).
  /// A rank's operator completes the split dimension's backward edge slice
  /// from its neighbour's face (comms/distributed_wilson.h).
  const LatticeColourMatrix<S>& u_fwd(int mu) const { return u_fwd_[mu]; }
  LatticeColourMatrix<S>& u_bwd(int mu) { return u_bwd_[mu]; }

  /// The hop provider interface of BlockSchurEvenOddWilson: the hopping
  /// term into every site h of the target `parity`, read from the
  /// opposite-parity block `in` (N columns; gamma5 on the neighbour loads
  /// with G5In).  Site h's sums go to the post hook `hook(h)` while still
  /// in registers.  Recorded as "dhop_eo_block" (even target) or
  /// "dhop_oe_block" with the N-column traffic model.
  template <bool G5In, class Block, class HookF>
  void sweep(int parity, const Block& in, HookF&& hook) const {
    constexpr int N = Block::block_size;
    const lattice::GridRedBlackCartesian* target =
        parity == lattice::kParityEven ? &even_ : &odd_;
    const double sites = static_cast<double>(target->gsites());
    metrics::ScopedTimer mt(
        parity == lattice::kParityEven ? "dhop_eo_block" : "dhop_oe_block",
        sites * block_dhop_reals_per_site(N) * sizeof(typename S::real_type));
    sweep_sites<G5In>(
        parity, in, target->osites(), [](std::int64_t i) { return i; },
        [](std::int64_t) { return detail::StencilHops{}; }, hook);
  }

  /// The one parity sweep: the hopping term into the target sites
  /// h = site(i), i < n, of `parity`, read from the opposite-parity block
  /// `in`.  `source(h)` returns site h's per-hop source hook, called as
  /// src(dir, local) for each hop with `local` the parity stencil's
  /// neighbour in `in`; it returns the detail::HopSource the hop reads.
  /// `hook(h)` returns site h's post hook.
  ///
  /// The column loop is OUTER and the direction loop inner: each column
  /// runs the register-resident site kernel (qcd/dhop_kernel.h) with its
  /// accumulator live in registers, while the 8 gauge links and stencil
  /// entries -- pulled from memory by column 0 -- stay L1-resident for
  /// columns 1..N-1, so their cache/DRAM traffic amortizes N-fold.  One
  /// PTRUE and zero register serve all columns of a site.
  template <bool G5In, class Block, class SiteF, class SourceF, class HookF>
  void sweep_sites(int parity, const Block& in, std::int64_t n, SiteF&& site,
                   SourceF&& source, HookF&& hook) const {
    constexpr int N = Block::block_size;
    const bool even = parity == lattice::kParityEven;
    SVELAT_ASSERT_MSG(*in.grid() == (even ? odd_ : even_),
                      "a sweep reads the opposite parity of the operator's half grids");
    const lattice::GridRedBlackCartesian& target = even ? even_ : odd_;
    const lattice::StencilRedBlack& st = stencils_[even ? 0 : 1];
    using R = simd::RegsOf<S>;
    thread_for(n, [&](std::int64_t i) {
      const std::int64_t h = site(i);
      const std::int64_t o = target.full_osite(h);
      auto&& src = source(h);
      auto&& post = hook(h);
      const typename R::pred pg = R::ptrue();
      const typename R::reg z = R::zero();
      for (int j = 0; j < N; ++j) {
        typename R::template tuple<Nc> a0, a1, a2, a3;
        const auto column = [&](std::int64_t s) -> const auto& { return in.at(s, j); };
        detail::hop_sum<G5In, S>(
            pg, z, u_fwd_, u_bwd_, o,
            [&](int dir) {
              return src(dir, detail::stencil_source<S>(st, h, dir, column));
            },
            a0, a1, a2, a3);
        post(j, pg, z, a0, a1, a2, a3);
      }
    });
  }

 private:
  double mass_;
  lattice::GridRedBlackCartesian even_;
  lattice::GridRedBlackCartesian odd_;
  /// Indexed by target parity: even <- odd, odd <- even.
  lattice::StencilRedBlack stencils_[2];
  // Double-stored gauge like WilsonDirac: U_mu(x) for the forward hop and
  // U_mu(x - mu^) for the backward hop, indexed by full-grid site.
  LatticeColourMatrix<S> u_fwd_[lattice::Nd];
  LatticeColourMatrix<S> u_bwd_[lattice::Nd];
};

}  // namespace svelat::qcd
