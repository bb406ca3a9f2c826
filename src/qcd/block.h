// The batched multi-RHS Schur operator over BlockLattice fields.
//
// The propagator workload is many solves against ONE gauge configuration
// (12 spin-colour columns today, thousands of sources at scale), yet a
// sequential solve re-streams every gauge link per right-hand side.  The
// hop sweeps (SchurEvenOddWilson::sweep, qcd/even_odd.h) visit the stencil
// once per site and apply each loaded link to all N site-contiguous
// columns of a HalfBlockFermion, so the link traffic and neighbour
// indexing amortize N-fold:
//
//   per-site reals moved:  sequential  N * (216 spinor + 144 link)
//                          batched     N * 216 spinor + 144 link
//
// (216 = 9 spinor accesses x Ns*Nc complex, 144 = 8 link reads x Nc*Nc
// complex.)  The batched regions ("dhop_eo_block", "dhop_oe_block") carry
// this amortized byte model, so the saving is an observable GB/s /
// bytes-per-solve number in bench_cg --json.
//
// The Schur operator exists only here, and its solve driver only in the
// facade's SchurEngine (solver/solver.h): a single right-hand side is
// N = 1, so the facade's single solves and its 12-wide propagator batches
// run the same code -- and so does a distributed solve, at N = 1 over one
// rank's slab, with comms::DistributedWilsonDirac as the hop provider.
//
// Correctness contract: column j of every batched kernel performs the
// SAME floating-point operations in the SAME order at every width N --
// neighbour copy, boundary lane permutation, half-spinor projection,
// SU(3) multiply, reconstruction, in the same fwd/bwd-per-mu order -- and
// every per-column reduction runs the same chunked tree.  The fusion
// hooks are exact too: the in-register gamma5 on loads/stores reproduces
// what separate gamma5 field passes would store (a pure sign flip), and
// the fused diagonal update computes the identical a*in + b*acc values a
// separate sweep would.  Column j of an N-wide solve is therefore bitwise
// the N = 1 solve of that column (see docs/ARCHITECTURE.md "Multi-RHS
// block engine").
#pragma once

#include <array>
#include <utility>

#include "lattice/block.h"
#include "qcd/even_odd.h"
#include "qcd/wilson.h"

namespace svelat::qcd {

/// N right-hand-side spinor fields of one parity, site-contiguous (column
/// j of half-grid site h at data[h*N + j]).
template <class S, int N>
using HalfBlockFermion =
    lattice::BlockLattice<SpinColourVector<S>, N, lattice::GridRedBlackCartesian>;

/// The Schur operator Mhat over N columns of even half block fields -- the
/// only Schur operator; one right-hand side is N = 1.  It takes its hopping
/// terms from a hop provider: SchurEvenOddWilson (one process, any N) or
/// comms::DistributedWilsonDirac (one rank's slab, N = 1; its sweeps are
/// the same SchurEvenOddWilson sweep over site lists), each with
///
///   even_grid(), odd_grid(), diag()
///   sweep<G5In>(parity, in, hook)   hop into every site h of `parity`
///                                   from the opposite-parity block `in`,
///                                   site h's sums to the post hook hook(h)
///
/// The operator holds only scratch; every reduction runs over its grids'
/// ring (lattice/block.h), so the same code is bitwise the same solve on
/// one rank and on many.
template <class S, int N, class Hops = SchurEvenOddWilson<S>>
class BlockSchurEvenOddWilson {
 public:
  using HalfBlock = HalfBlockFermion<S, N>;

  explicit BlockSchurEvenOddWilson(const Hops& hops)
      : hops_(&hops),
        tmp_odd_(hops.odd_grid()),
        norms_(static_cast<std::size_t>(hops.even_grid()->osites())) {}

  const lattice::GridRedBlackCartesian* even_grid() const { return hops_->even_grid(); }
  const lattice::GridRedBlackCartesian* odd_grid() const { return hops_->odd_grid(); }
  double diag() const { return hops_->diag(); }

  /// out_o,j = Dh_oe in_e,j for all columns.
  void dhop_oe(const HalfBlock& in_even, HalfBlock& out_odd) const {
    store_sweep<false>(lattice::kParityOdd, in_even, out_odd);
  }

  /// out_e,j = Dh_eo in_o,j for all columns.
  void dhop_eo(const HalfBlock& in_odd, HalfBlock& out_even) const {
    store_sweep<false>(lattice::kParityEven, in_odd, out_even);
  }

  /// Mhat in_j = (4+m) in_j - Dh_eo Dh_oe in_j / (4 (4+m)), diagonal fused
  /// into the second hopping sweep.
  void mhat(const HalfBlock& in, HalfBlock& out) const {
    dhop_oe(in, tmp_odd_);
    mhat_second_sweep</*G5=*/false>(in, out);
  }

  /// Mhat^dag = gamma5 Mhat gamma5, both gamma5 applications fused into
  /// the two hopping sweeps (gamma5 on the neighbour loads of the first,
  /// gamma5 + diagonal on the store of the second) -- zero extra field
  /// passes, and the in-register sign flips reproduce the pass-by-pass
  /// values bit for bit.
  void mhat_dag(const HalfBlock& in, HalfBlock& out) const {
    store_sweep<true>(lattice::kParityOdd, in, tmp_odd_);
    mhat_second_sweep</*G5=*/true>(in, out);
  }

  /// Fused Mhat-and-norm: out_j = Mhat in_j with |out_j|^2 accumulated in
  /// the same sweep.  This is the block CG's pAp term on the normal
  /// equations -- <p, Mhat^dag Mhat p> = |Mhat p|^2 exactly -- computed
  /// for free while the result of the second hopping sweep is still in
  /// registers, saving a separate two-pass innerProduct(p, Ap).  The
  /// value equals that inner product in exact arithmetic but regroups the
  /// sum (per-site |v|^2 through the deterministic chunked tree); the tree
  /// keeps it thread-count-invariant and column-independent, so a
  /// column's CG is the same arithmetic at every width.  The sweep stores
  /// each site's norms and the tree sums them afterwards, in site order:
  /// a distributed sweep visits its interior sites before its boundary.
  std::array<double, N> mhat_norm2(const HalfBlock& in, HalfBlock& out) const {
    dhop_oe(in, tmp_odd_);
    const auto [a, b] = diag_coefficients();
    using Acc = lattice::ColumnArray<S, N>;
    Acc acc = Acc::filled(S::zero());
    hops_->template sweep<false>(lattice::kParityEven, tmp_odd_, [&](std::int64_t h) {
      return detail::DiagColumn<false, S>{in.site(h), out.site(h), a, b,
                                          norms_[static_cast<std::size_t>(h)].v};
    });
    acc = ring_reduce(
        lattice::reduce_ring(even_grid()), even_grid()->osites(), Acc::filled(S::zero()),
        [&](std::int64_t h) { return norms_[static_cast<std::size_t>(h)]; });
    std::array<double, N> out_n;
    for (int j = 0; j < N; ++j)
      out_n[static_cast<std::size_t>(j)] = std::real(reduce(acc.v[j]));
    return out_n;
  }

 private:
  /// out = Dh in into the sites of `parity`, stored as computed.
  template <bool G5In>
  void store_sweep(int parity, const HalfBlock& in, HalfBlock& out) const {
    SVELAT_ASSERT_MSG(
        *out.grid() == *(parity == lattice::kParityEven ? even_grid() : odd_grid()),
        "a hop writes the target parity of the operator's half grids");
    hops_->template sweep<G5In>(parity, in, [&](std::int64_t h) {
      return detail::StoreColumn<S>{out.site(h)};
    });
  }

  /// The diagonal update out = a in + b Dh_eo Dh_oe in of Mhat.
  std::pair<S, S> diag_coefficients() const {
    const double d = diag();
    return {S(typename S::scalar_type(d, 0.0)),
            S(typename S::scalar_type(-0.25 / d, 0.0))};
  }

  /// Shared second sweep of mhat/mhat_dag: out = Dh_eo tmp_odd_ with the
  /// diagonal fused into the store.  With G5 the store computes
  /// gamma5(a gamma5(in) + b acc) -- the fused form of mhat_dag's
  /// gamma5-in/gamma5-out passes (in must then be the PRE-gamma5 input,
  /// whose gamma5 twin already drove the first sweep).
  template <bool G5>
  void mhat_second_sweep(const HalfBlock& in, HalfBlock& out) const {
    const auto [a, b] = diag_coefficients();
    hops_->template sweep<false>(lattice::kParityEven, tmp_odd_, [&](std::int64_t h) {
      return detail::DiagColumn<G5, S>{in.site(h), out.site(h), a, b};
    });
  }

  const Hops* hops_;
  // Hot-loop scratch (not thread-safe across concurrent applications; the
  // solvers apply sequentially).
  mutable HalfBlock tmp_odd_;
  /// mhat_norm2's per-site column norms, summed after the sweep.
  mutable AlignedVector<lattice::ColumnArray<S, N>> norms_;
};

}  // namespace svelat::qcd
