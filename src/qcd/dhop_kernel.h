// The register-resident Wilson hopping kernel: one site of paper Eq. (1)
// with every intermediate in registers.
//
// Per hop the kernel loads the neighbour spinor (12 registers) and the link
// (9 registers) once; the spin projection, lane permute, SU(3) multiply
// and reconstruction then run on register values (Ops<P>::Regs,
// simd/ops.h), and the 12-register accumulator stays live across all 8
// hops.  Each +-i term of the projection and reconstruction is one fused
// add_times_i / add_times_minus_i (one FCADD on sve-fcmla); gamma5 on the
// neighbour is the projection's sign; the Fig. 1 lane permute runs on the
// 6 half-spinor registers; the first hop writes the accumulator.  A
// caller's `post` hook receives the accumulator still in registers and
// decides what reaches memory: a plain store, the Wilson diagonal, gamma5,
// a norm (StoreColumn, DiagColumn below).  One PTRUE and one zero register
// are hoisted per site.  Every backend (generic, sve-fcmla, sve-real) runs
// this one kernel through its register primitives, so on the SVE backends
// each operation is a counted sve:: intrinsic.
//
// Sizeless-type rule (sve/sve_types.h): register values are function
// locals only -- never members, arrays or statics.  Colour triplets are the
// ACLE tuple type (Regs::tuple<3>, sve::svregx on SVE); the four spins of a
// spinor are four named triplets.
//
// Bytewise contract: the results equal the tensor-level dhop_via_cshift's
// (spin_project, iMatrix * iVector / adj_mul, spin_reconstruct_accum over
// SimdComplex) byte for byte, signed zeros included, on every backend,
// precision and vector length (tests/qcd/test_dhop_variants.cpp compares
// with memcmp).  The kernel's forms are exact rewrites of the reference's:
//   - a - (-b) is a + b, so gamma5 folds into the projection's sign; the
//     lane permute moves whole complex numbers, so it commutes with the
//     projection.  Both are bitwise.
//   - The fused a +- i*x equals the reference's FADD or FSUB of a and
//     FCADD(0, x) in value; the two can differ only in the sign of an
//     exact zero of the half spinor.  The SU(3) multiply's FCMLA chain
//     starts from +0, and in round-to-nearest neither that chain nor an
//     accumulator built from +0 can ever hold -0 (x + y is -0 only for two
//     -0s, x - y only for -0 - +0).  So a zero factor's sign never reaches
//     the product, and the reconstruction's fused terms and the first
//     hop's write (+0 + g == g) leave every bit of the accumulator as the
//     reference's.
// The Wilson-diagonal hook (DiagColumn) stores what it computes, so a
// signed zero it moved would reach memory: it keeps the reference's forms.
#pragma once

#include <cstdint>

#include "qcd/types.h"
#include "tensor/regs.h"

namespace svelat::qcd::detail {

/// One hop's neighbour: the spinor in memory and the Fig. 1 lane
/// permutation it needs (in virtual nodes, 0 = none).  The kernel loads
/// it before asking for the next hop, so the pointee only has to live
/// that long.
template <class S>
struct HopSource {
  const SpinColourVector<S>* site;
  unsigned permute;
};

/// The source of stencil hop `dir` from outer site o: table entry e reads
/// `site(e.osite)`.
template <class S, class TableT, class SiteF>
inline HopSource<S> stencil_source(const TableT& st, std::int64_t o, int dir,
                                   SiteF&& site) {
  const auto& e = st.entry(o, dir);
  return {&site(e.osite), e.permute};
}

/// One hop, Mu and Sign fixed: a += R^{Sign}_Mu V P^{Sign}_Mu psi with V = U
/// (forward) or U^dag (backward).  G5In applies gamma5 to the neighbour
/// first, the fused form of a separate `gamma5 in` pass: it negates spins
/// 2-3, which the projection adds to or subtracts from spins 0-1, so it
/// flips the projection's sign.  First (the first hop of a site) writes
/// a0/a1 instead of adding to them; a2/a3 must hold zeros before it.
template <int Mu, int Sign, bool G5In, bool First, class S>
inline void hop(const typename simd::RegsOf<S>::pred& pg,
                const typename simd::RegsOf<S>::reg& z,
                const HopSource<S>& src, const ColourMatrix<S>& u,
                typename simd::RegsOf<S>::template tuple<Nc>& a0,
                typename simd::RegsOf<S>::template tuple<Nc>& a1,
                typename simd::RegsOf<S>::template tuple<Nc>& a2,
                typename simd::RegsOf<S>::template tuple<Nc>& a3) {
  using R = simd::RegsOf<S>;
  using reg = typename R::reg;
  using C3 = typename R::template tuple<Nc>;
  constexpr bool plus = Sign > 0;
  constexpr bool proj = plus != G5In;

  // x + y or x - y; x + i*y or x - i*y.
  const auto pm = [&](bool add, const reg& x, const reg& y) {
    return add ? R::add(pg, x, y) : R::sub(pg, x, y);
  };
  const auto pmi = [&](bool add, const reg& x, const reg& y) {
    return add ? R::add_times_i(pg, x, y) : R::add_times_minus_i(pg, x, y);
  };

  // Spin projection (gamma.h spin_project) of the neighbour, 12 loads:
  // two half-spinor triplets.
  const SpinColourVector<S>& v = *src.site;
  C3 h0, h1;
  for (int c = 0; c < Nc; ++c) {
    const reg p0 = R::load(pg, v(0)(c).raw());
    const reg p1 = R::load(pg, v(1)(c).raw());
    const reg p2 = R::load(pg, v(2)(c).raw());
    const reg p3 = R::load(pg, v(3)(c).raw());
    if constexpr (Mu == 0) {
      h0.reg[c] = pmi(proj, p0, p3);
      h1.reg[c] = pmi(proj, p1, p2);
    } else if constexpr (Mu == 1) {
      h0.reg[c] = pm(!proj, p0, p3);
      h1.reg[c] = pm(proj, p1, p2);
    } else if constexpr (Mu == 2) {
      h0.reg[c] = pmi(proj, p0, p2);
      h1.reg[c] = pmi(!proj, p1, p3);
    } else {
      h0.reg[c] = pm(proj, p0, p2);
      h1.reg[c] = pm(proj, p1, p3);
    }
  }
  // The Fig. 1 lane permute, on the half spinor.
  if (src.permute != 0)
    R::permute_xor(pg, 2 * static_cast<std::size_t>(src.permute), h0.reg[0], h0.reg[1],
                   h0.reg[2], h1.reg[0], h1.reg[1], h1.reg[2]);

  // SU(3) multiply of both half spinors, each link element loaded once:
  // row i of U forward, column i of U (conjugated) backward.
  C3 g0, g1;
  for (int i = 0; i < Nc; ++i) {
    const reg u0 = R::load(pg, (plus ? u(i, 0) : u(0, i)).raw());
    const reg u1 = R::load(pg, (plus ? u(i, 1) : u(1, i)).raw());
    const reg u2 = R::load(pg, (plus ? u(i, 2) : u(2, i)).raw());
    if constexpr (plus) {
      g0.reg[i] = R::mac(pg, R::mac(pg, R::mac(pg, z, u0, h0.reg[0]), u1, h0.reg[1]),
                         u2, h0.reg[2]);
      g1.reg[i] = R::mac(pg, R::mac(pg, R::mac(pg, z, u0, h1.reg[0]), u1, h1.reg[1]),
                         u2, h1.reg[2]);
    } else {
      g0.reg[i] = R::mac_conj(
          pg, R::mac_conj(pg, R::mac_conj(pg, z, u0, h0.reg[0]), u1, h0.reg[1]), u2,
          h0.reg[2]);
      g1.reg[i] = R::mac_conj(
          pg, R::mac_conj(pg, R::mac_conj(pg, z, u0, h1.reg[0]), u1, h1.reg[1]), u2,
          h1.reg[2]);
    }
  }

  // Reconstruction into the accumulator (gamma.h spin_reconstruct_accum).
  for (int c = 0; c < Nc; ++c) {
    if constexpr (First) {
      a0.reg[c] = g0.reg[c];
      a1.reg[c] = g1.reg[c];
    } else {
      a0.reg[c] = R::add(pg, a0.reg[c], g0.reg[c]);
      a1.reg[c] = R::add(pg, a1.reg[c], g1.reg[c]);
    }
    if constexpr (Mu == 0) {
      a2.reg[c] = pmi(!plus, a2.reg[c], g1.reg[c]);
      a3.reg[c] = pmi(!plus, a3.reg[c], g0.reg[c]);
    } else if constexpr (Mu == 1) {
      a2.reg[c] = pm(plus, a2.reg[c], g1.reg[c]);
      a3.reg[c] = pm(!plus, a3.reg[c], g0.reg[c]);
    } else if constexpr (Mu == 2) {
      a2.reg[c] = pmi(!plus, a2.reg[c], g0.reg[c]);
      a3.reg[c] = pmi(plus, a3.reg[c], g1.reg[c]);
    } else {
      a2.reg[c] = pm(plus, a2.reg[c], g0.reg[c]);
      a3.reg[c] = pm(plus, a3.reg[c], g1.reg[c]);
    }
  }
}

/// The hopping sum of outer site o into the accumulator a0..a3 (one triplet
/// per spin), in the fixed order forward mu, backward mu for mu = 0..3.
/// `source(dir)` returns the HopSource of direction dir (0..Nd-1 forward,
/// Nd..2Nd-1 backward); u_fwd[mu][o] and u_bwd[mu][o] are the links.
template <bool G5In, class S, class UFieldT, class SourceF>
inline void hop_sum(const typename simd::RegsOf<S>::pred& pg,
                    const typename simd::RegsOf<S>::reg& z, const UFieldT* u_fwd,
                    const UFieldT* u_bwd, std::int64_t o, SourceF&& source,
                    typename simd::RegsOf<S>::template tuple<Nc>& a0,
                    typename simd::RegsOf<S>::template tuple<Nc>& a1,
                    typename simd::RegsOf<S>::template tuple<Nc>& a2,
                    typename simd::RegsOf<S>::template tuple<Nc>& a3) {
  // The first hop writes a0/a1; a2/a3 start from zero.
  for (int c = 0; c < Nc; ++c) a2.reg[c] = a3.reg[c] = z;
  const auto both = [&]<int Mu>() {
    hop<Mu, +1, G5In, Mu == 0, S>(pg, z, source(Mu), u_fwd[Mu][o], a0, a1, a2, a3);
    hop<Mu, -1, G5In, false, S>(pg, z, source(lattice::Nd + Mu), u_bwd[Mu][o], a0, a1,
                                a2, a3);
  };
  both.template operator()<0>();
  both.template operator()<1>();
  both.template operator()<2>();
  both.template operator()<3>();
}

/// Store the accumulator (one colour triplet per spin) into a site object.
template <class S>
inline void store_site(const typename simd::RegsOf<S>::pred& pg,
                       const typename simd::RegsOf<S>::template tuple<Nc>& a0,
                       const typename simd::RegsOf<S>::template tuple<Nc>& a1,
                       const typename simd::RegsOf<S>::template tuple<Nc>& a2,
                       const typename simd::RegsOf<S>::template tuple<Nc>& a3,
                       SpinColourVector<S>& out) {
  using R = simd::RegsOf<S>;
  for (int c = 0; c < Nc; ++c) {
    R::store(pg, out(0)(c).raw(), a0.reg[c]);
    R::store(pg, out(1)(c).raw(), a1.reg[c]);
    R::store(pg, out(2)(c).raw(), a2.reg[c]);
    R::store(pg, out(3)(c).raw(), a3.reg[c]);
  }
}

// Post hooks: what a sweep does with a site's hopping sum while it is still
// in registers.  `post(j, pg, z, a0, a1, a2, a3)` receives column j's sum
// (one colour triplet per spin); a single-field sweep is column 0.

/// Post hook: store column j's hopping sum into out[j].
template <class S>
struct StoreColumn {
  SpinColourVector<S>* out;  ///< the output site's columns

  template <class P, class Z, class C3>
  void operator()(int j, const P& pg, const Z&, const C3& a0, const C3& a1,
                  const C3& a2, const C3& a3) const {
    store_site<S>(pg, a0, a1, a2, a3, out[j]);
  }
};

/// Post hook: the Wilson diagonal fused into the sweep, out_j = a in_j +
/// b acc_j per component.  With G5 it stores gamma5(a gamma5(in_j) +
/// b acc_j), the fused form of gamma5-in/gamma5-out passes.  With `norm`
/// set it also writes norm[j] = <out_j, out_j> (per lane), folded from
/// the registers just stored by tensor::fold_elements, the fold of
/// lattice/block.h's norms.  Same functors, operands and order as the
/// tensor expressions (`a * in + b * acc`, tensor::innerProduct), so
/// bitwise their values.
template <bool G5, class S>
struct DiagColumn {
  const SpinColourVector<S>* in;
  SpinColourVector<S>* out;
  S a, b;
  S* norm = nullptr;

  template <class P, class Z, class C3>
  void operator()(int j, const P& pg, const Z& z, const C3& a0, const C3& a1,
                  const C3& a2, const C3& a3) const {
    using R = simd::RegsOf<S>;
    const typename R::reg ar = R::load(pg, a.raw());
    const typename R::reg br = R::load(pg, b.raw());
    // Element k of a spinor is spin k / Nc, colour k % Nc.
    const auto value = [&](int k, const S& x_in, S& x_out) {
      const int s = k / Nc;
      const C3& acc = s == 0 ? a0 : s == 1 ? a1 : s == 2 ? a2 : a3;
      const bool flip = G5 && s >= 2;  // gamma5 = diag(1, 1, -1, -1)
      typename R::reg x = R::load(pg, x_in.raw());
      if (flip) x = R::neg(pg, x);
      typename R::reg v =
          R::add(pg, R::mult(pg, z, ar, x), R::mult(pg, z, br, acc.reg[k % Nc]));
      if (flip) v = R::neg(pg, v);
      R::store(pg, x_out.raw(), v);
      return v;
    };
    if (norm == nullptr) {
      tensor::for_each_element(value, in[j], out[j]);
      return;
    }
    const auto value_norm = [&](int k, const S& x_in, S& x_out) {
      const typename R::reg v = value(k, x_in, x_out);
      return R::mult_conj(pg, z, v, v);
    };
    R::store(pg, norm[j].raw(), tensor::fold_elements<R>(pg, value_norm, in[j], out[j]));
  }
};

/// Hopping term of outer site o into `out`, every neighbour from the stencil
/// table over `in` (WilsonDirac::dhop's full Stencil; `o` indexes the table,
/// the gauge fields and the output site).  The half-checkerboard sweeps of
/// the Schur operator are qcd::SchurEvenOddWilson's (qcd/even_odd.h).
template <class S, class FermT, class TableT, class UFieldT>
inline void dhop_site(const FermT& in, const TableT& st, const UFieldT* u_fwd,
                      const UFieldT* u_bwd, std::int64_t o, SpinColourVector<S>& out) {
  using R = simd::RegsOf<S>;
  const typename R::pred pg = R::ptrue();
  const typename R::reg z = R::zero();
  typename R::template tuple<Nc> a0, a1, a2, a3;
  hop_sum<false, S>(
      pg, z, u_fwd, u_bwd, o,
      [&](int dir) {
        return stencil_source<S>(st, o, dir,
                                 [&](std::int64_t s) -> const auto& { return in[s]; });
      },
      a0, a1, a2, a3);
  store_site<S>(pg, a0, a1, a2, a3, out);
}

}  // namespace svelat::qcd::detail
