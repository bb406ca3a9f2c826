// Precision conversion for mixed-precision solves.
//
// The paper lists "conversion of floating-point precision" among the
// machine-specific operations Grid needs from each architecture
// (Sec. II-C) -- because production solvers run the bulk of their
// iterations in single precision and correct the defect in double.  On
// SVE the payoff is architectural: fp32 doubles the lanes per vector,
// halving instructions per site (cf. bench_dslash 512f).
//
// kMixedCG's defect correction (the Schur engine of solver/solver.h)
// converts its residual and correction half pieces with convert_field, and
// the facade its fp32 copy of the gauge field.
#pragma once

#include "lattice/block.h"
#include "support/assert.h"

namespace svelat::solver {

/// Convert a field between scalar precisions through global coordinates,
/// so the two fields may have different SIMD layouts.  Both are lattice
/// fields, or both width-1 block fields of one parity (indexed alike).
/// Writes into a caller-owned destination and allocates nothing.
template <class Dst, class Src>
void convert_field(Dst& dst, const Src& src) {
  using DstC = typename Dst::simd_type;
  using SrcC = typename Src::simd_type;
  using DstR = typename DstC::scalar_type::value_type;
  constexpr std::size_t ncomp = sizeof(typename Src::vector_object) / sizeof(SrcC);
  static_assert(sizeof(typename Dst::vector_object) / sizeof(DstC) == ncomp,
                "fields must have the same tensor structure");

  const auto* sg = src.grid();
  const auto* dg = dst.grid();
  SVELAT_ASSERT_MSG(sg->fdimensions() == dg->fdimensions(),
                    "precision conversion requires identical lattice extents");
  // Threaded over *source* outer sites: every global coordinate maps to a
  // unique (site, lane) slot in dst, and lane writes touch disjoint bytes,
  // so cross-layout conversion is race-free.
  thread_for(sg->osites(), [&](std::int64_t o) {
    const SrcC* in = reinterpret_cast<const SrcC*>(&src[o]);
    for (unsigned l = 0; l < sg->isites(); ++l) {
      const lattice::Coordinate x = sg->global_coor(o, l);
      DstC* out = reinterpret_cast<DstC*>(&dst[dg->outer_index(x)]);
      const unsigned lane = dg->inner_index(x);
      for (std::size_t k = 0; k < ncomp; ++k) {
        const auto c = in[k].lane(l);
        out[k].set_lane(lane, {static_cast<DstR>(c.real()), static_cast<DstR>(c.imag())});
      }
    }
  });
}

}  // namespace svelat::solver
