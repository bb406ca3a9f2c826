// The Wilson Dirac operator: hopping term of paper Eq. (1) and the full
// Wilson matrix built on it.
//
//   (Dh psi)_x = sum_mu  U_{x,mu} (1 + gamma_mu) psi_{x+mu^}
//              + sum_mu  U^dag_{x-mu^,mu} (1 - gamma_mu) psi_{x-mu^}
//
//   M = (4 + m) - Dh / 2          (Wilson parameter r = 1)
//
// Implementations:
//   WilsonDirac::dhop       -- production path: stencil tables, Fig. 1
//                              boundary permutes, spin projection (half
//                              spinors), SU(3) mac, all in the
//                              register-resident site kernel of
//                              qcd/dhop_kernel.h.
//   dhop_via_cshift         -- the same arithmetic at tensor level over
//                              Cshift-ed whole fields; the kernel's
//                              bytewise oracle (and the stencil ablation).
//   dhop_reference          -- scalar per-site evaluation with explicit
//                              4x4 gamma matrices; the verification oracle
//                              (paper Sec. V-D).
//
// The parity-restricted hop on half-checkerboard fields, Dh_eo / Dh_oe, is
// the one hop core of the Schur operator: SchurEvenOddWilson
// (qcd/even_odd.h), driven through BlockSchurEvenOddWilson<S, N>::dhop_eo
// / dhop_oe (qcd/block.h).
//
// gamma_5 hermiticity (gamma5 M gamma5 = M^dag) supplies M^dag without a
// second operator implementation.
#pragma once

#include "lattice/cshift.h"
#include "qcd/dhop_kernel.h"
#include "qcd/gamma.h"
#include "qcd/su3.h"
#include "qcd/types.h"
#include "support/metrics.h"

namespace svelat::qcd {

/// Memory-traffic model of one dhop site, in reals: 8 neighbour spinor
/// reads + 1 spinor write (9 x Ns*Nc complex) plus 8 link reads
/// (Nc*Nc complex each).  Multiplied by sizeof(real) at the call site.
inline constexpr double kDhopRealsPerSite =
    9.0 * (Ns * Nc * 2) + 8.0 * (Nc * Nc * 2);

/// out = gamma5 in, site-wise, on full or half-checkerboard fermions.
template <class FieldT>
void apply_gamma5(const FieldT& in, FieldT& out) {
  thread_for(in.osites(), [&](std::int64_t o) { out[o] = gamma5(in[o]); });
}

template <class S>
class WilsonDirac {
 public:
  using Fermion = LatticeFermion<S>;

  WilsonDirac(const GaugeField<S>& gauge, double mass)
      : grid_(gauge.grid()),
        mass_(mass),
        stencil_(gauge.grid()),
        u_fwd_{gauge.U[0], gauge.U[1], gauge.U[2], gauge.U[3]},
        u_bwd_{lattice::Cshift(gauge.U[0], 0, -1), lattice::Cshift(gauge.U[1], 1, -1),
               lattice::Cshift(gauge.U[2], 2, -1), lattice::Cshift(gauge.U[3], 3, -1)},
        tmp_g5_(grid_),
        tmp_m_(grid_),
        dhop_bytes_(static_cast<double>(grid_->gsites()) * kDhopRealsPerSite *
                    sizeof(typename S::real_type)) {}

  const lattice::GridCartesian* grid() const { return grid_; }
  double mass() const { return mass_; }

  /// Hopping term, Eq. (1): out = Dh in.  Threaded over outer sites: each
  /// site reads neighbours from `in` (never written here) and writes only
  /// its own out[o].
  void dhop(const Fermion& in, Fermion& out) const {
    metrics::ScopedTimer mt("dhop", dhop_bytes_);
    thread_for(grid_->osites(), [&](std::int64_t o) {
      detail::dhop_site<S>(in, stencil_, u_fwd_, u_bwd_, o, out[o]);
    });
  }

  /// Full Wilson operator: out = (4 + m) in - (1/2) Dh in.
  void m(const Fermion& in, Fermion& out) const {
    SVELAT_ASSERT_MSG(&in != &out, "in-place application is not supported");
    dhop(in, out);
    const S diag(static_cast<typename S::real_type>(4.0 + mass_), 0);
    const S mhalf(static_cast<typename S::real_type>(-0.5), 0);
    thread_for(grid_->osites(),
               [&](std::int64_t o) { out[o] = diag * in[o] + mhalf * out[o]; });
  }

  /// M^dag via gamma_5 hermiticity: M^dag = gamma5 M gamma5.
  void mdag(const Fermion& in, Fermion& out) const {
    apply_gamma5(in, tmp_g5_);
    m(tmp_g5_, out);
    apply_gamma5(out, out);
  }

  /// Normal operator M^dag M (the CG target).
  void mdag_m(const Fermion& in, Fermion& out) const {
    m(in, tmp_m_);
    mdag(tmp_m_, out);
  }

  static void apply_gamma5(const Fermion& in, Fermion& out) {
    qcd::apply_gamma5(in, out);
  }

 private:
  const lattice::GridCartesian* grid_;
  double mass_;
  lattice::Stencil stencil_;
  // Double-stored gauge: U_mu(x) for the forward hop and U_mu(x - mu^) for
  // the backward hop (avoids a shift per application, like Grid).
  LatticeColourMatrix<S> u_fwd_[lattice::Nd];
  LatticeColourMatrix<S> u_bwd_[lattice::Nd];
  // mdag/mdag_m intermediates: these run once per CG iteration on the
  // unpreconditioned path, so member buffers keep warm solves free of
  // field allocations.  Distinct buffers because mdag_m's intermediate
  // stays live across the nested mdag.  Not thread-safe across concurrent
  // applications of one operator (the solvers apply it sequentially).
  mutable Fermion tmp_g5_;
  mutable Fermion tmp_m_;
  double dhop_bytes_;  ///< wall-clock metrics model of one application
};

// ---------------------------------------------------------------------------
// Shift-based implementation: materializes all eight shifted neighbour
// fields with lattice::Cshift, then does purely site-local work.  Same SIMD
// arithmetic as WilsonDirac::dhop but without stencil tables or fused
// neighbour fetch (extra field traffic + temporaries vs the stencil's table
// lookups): the single-rank ablation, and the oracle every production hop
// is compared against byte for byte.
// ---------------------------------------------------------------------------
template <class S>
void dhop_via_cshift(const GaugeField<S>& gauge, const LatticeFermion<S>& in,
                     LatticeFermion<S>& out) {
  using namespace lattice;
  const GridCartesian* g = gauge.grid();
  thread_for(g->osites(), [&](std::int64_t o) { tensor::zeroit(out[o]); });
  for (int mu = 0; mu < Nd; ++mu) {
    const LatticeFermion<S> psi_fwd = Cshift(in, mu, +1);
    const LatticeFermion<S> psi_bwd = Cshift(in, mu, -1);
    const LatticeColourMatrix<S> u_bwd = Cshift(gauge.U[mu], mu, -1);
    thread_for(g->osites(), [&](std::int64_t o) {
      {
        HalfSpinColourVector<S> h = spin_project(mu, +1, psi_fwd[o]);
        HalfSpinColourVector<S> uh;
        for (int s = 0; s < Nhs; ++s) uh(s) = gauge.U[mu][o] * h(s);
        spin_reconstruct_accum(mu, +1, uh, out[o]);
      }
      {
        HalfSpinColourVector<S> h = spin_project(mu, -1, psi_bwd[o]);
        HalfSpinColourVector<S> uh;
        for (int s = 0; s < Nhs; ++s) uh(s) = tensor::adj_mul(u_bwd[o], h(s));
        spin_reconstruct_accum(mu, -1, uh, out[o]);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Reference implementation: scalar, site-by-site, explicit gamma matrices.
// ---------------------------------------------------------------------------
/// out = Dh in, evaluated with no SIMD tricks whatsoever.
template <class S>
void dhop_reference(const GaugeField<S>& gauge, const LatticeFermion<S>& in,
                    LatticeFermion<S>& out) {
  using namespace lattice;
  using C = std::complex<double>;
  using SMat = tensor::iMatrix<C, Ns>;
  const GridCartesian* g = gauge.grid();
  using sobj = typename LatticeFermion<S>::scalar_object;
  using gobj = typename LatticeColourMatrix<S>::scalar_object;

  SMat proj_p[Nd], proj_m[Nd];
  for (int mu = 0; mu < Nd; ++mu) {
    proj_p[mu] = one_plus_gamma(mu, +1);
    proj_m[mu] = one_plus_gamma(mu, -1);
  }

  for (std::int64_t o = 0; o < g->osites(); ++o) {
    for (unsigned l = 0; l < g->isites(); ++l) {
      const Coordinate x = g->global_coor(o, l);
      sobj acc = tensor::Zero<sobj>();
      for (int mu = 0; mu < Nd; ++mu) {
        // Forward: U_{x,mu} (1 + gamma_mu) psi_{x+mu}.
        {
          const Coordinate xp = displace(x, mu, +1, g->fdimensions());
          const sobj psi = in.peek(xp);
          const gobj u = gauge.U[mu].peek(x);
          for (int si = 0; si < Ns; ++si)
            for (int sj = 0; sj < Ns; ++sj) {
              const C w = proj_p[mu](si, sj);
              if (w == C{}) continue;
              for (int ci = 0; ci < Nc; ++ci)
                for (int cj = 0; cj < Nc; ++cj) {
                  const C uc(u(ci, cj).real(), u(ci, cj).imag());
                  const C pc(psi(sj)(cj).real(), psi(sj)(cj).imag());
                  const C val = w * uc * pc;
                  acc(si)(ci) += std::complex<typename S::real_type>(
                      static_cast<typename S::real_type>(val.real()),
                      static_cast<typename S::real_type>(val.imag()));
                }
            }
        }
        // Backward: U^dag_{x-mu,mu} (1 - gamma_mu) psi_{x-mu}.
        {
          const Coordinate xm = displace(x, mu, -1, g->fdimensions());
          const sobj psi = in.peek(xm);
          const gobj u = gauge.U[mu].peek(xm);
          for (int si = 0; si < Ns; ++si)
            for (int sj = 0; sj < Ns; ++sj) {
              const C w = proj_m[mu](si, sj);
              if (w == C{}) continue;
              for (int ci = 0; ci < Nc; ++ci)
                for (int cj = 0; cj < Nc; ++cj) {
                  const C uc = std::conj(C(u(cj, ci).real(), u(cj, ci).imag()));
                  const C pc(psi(sj)(cj).real(), psi(sj)(cj).imag());
                  const C val = w * uc * pc;
                  acc(si)(ci) += std::complex<typename S::real_type>(
                      static_cast<typename S::real_type>(val.real()),
                      static_cast<typename S::real_type>(val.imag()));
                }
            }
        }
      }
      out.poke(x, acc);
    }
  }
}

}  // namespace svelat::qcd
