// Index structure of lattice QCD fields (paper Sec. II-A).
//
// A quark field psi_x^{ia} carries colour a = 1..3 and spin i = 1..4; the
// gauge links U_{x,mu} are SU(3) matrices in colour space.  Site objects
// nest tensor templates around a SIMD scalar S.
#pragma once

#include <array>

#include "lattice/lattice_all.h"
#include "simd/simd.h"
#include "tensor/tensor.h"

namespace svelat::qcd {

inline constexpr int Nc = 3;   ///< colours
inline constexpr int Ns = 4;   ///< spin components
inline constexpr int Nhs = 2;  ///< half-spinor components

template <class S>
using ColourMatrix = tensor::iMatrix<S, Nc>;
template <class S>
using ColourVector = tensor::iVector<S, Nc>;
template <class S>
using SpinColourVector = tensor::iVector<tensor::iVector<S, Nc>, Ns>;
template <class S>
using HalfSpinColourVector = tensor::iVector<tensor::iVector<S, Nc>, Nhs>;

template <class S>
using LatticeFermion = lattice::Lattice<SpinColourVector<S>>;
template <class S>
using LatticeColourMatrix = lattice::Lattice<ColourMatrix<S>>;

// Half-checkerboard (single-parity) fermions: half the outer sites of the
// full grid, same lane structure (lattice/red_black.h).
template <class S>
using HalfLatticeFermion =
    lattice::Lattice<SpinColourVector<S>, lattice::GridRedBlackCartesian>;

/// The four directional link fields U_mu(x).
template <class S>
struct GaugeField {
  explicit GaugeField(const lattice::GridCartesian* grid)
      : U{LatticeColourMatrix<S>(grid), LatticeColourMatrix<S>(grid),
          LatticeColourMatrix<S>(grid), LatticeColourMatrix<S>(grid)} {}

  const lattice::GridCartesian* grid() const { return U[0].grid(); }

  std::array<LatticeColourMatrix<S>, lattice::Nd> U;
};

/// Flop count of one Wilson hopping-term application per lattice site
/// (the standard figure used to quote Dslash performance).
inline constexpr double kDhopFlopsPerSite = 1320.0;

}  // namespace svelat::qcd
