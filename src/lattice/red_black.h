// GridRedBlackCartesian: a half-checkerboard view of a GridCartesian.
//
// Site parity p(x) = (x+y+z+t) mod 2 splits the lattice into red/black
// sublattices.  Because the virtual-node decomposition keeps all SIMD
// lanes of one outer site at the same parity (enforced below), a
// half-checkerboard grid is simply the ordered
// subset of *outer* sites with the chosen parity: the lane structure is
// untouched, storage and traffic halve.  This is the production solver
// layout of Grid's GridRedBlackCartesian; fields over it are
// Lattice<vobj, GridRedBlackCartesian>.
//
// The class satisfies the same indexing concept Lattice<> needs from
// GridCartesian (osites/isites/outer_index/inner_index/global_coor/
// global_index), so fills, peek/poke and the reduction kernels work on
// half fields unchanged.
//
// A half grid of one rank's sub-lattice carries that rank's ReduceRing
// (support/parallel.h): the block-field reductions of lattice/block.h, which
// every Schur solve goes through, then sum over all ranks' sites exactly as
// one process sums the global half grid.
#pragma once

#include <cstdint>
#include <vector>

#include "lattice/cartesian.h"
#include "lattice/lattice.h"
#include "support/parallel.h"

namespace svelat::lattice {

inline constexpr int kParityEven = 0;
inline constexpr int kParityOdd = 1;

/// Parity of a global coordinate.
inline int coordinate_parity(const Coordinate& x) {
  return (x[0] + x[1] + x[2] + x[3]) & 1;
}

/// Lanes of one outer site differ by multiples of the block extents;
/// parity is lane-uniform iff every decomposed block extent is even.
inline void assert_parity_uniform_layout(const GridCartesian& grid) {
  for (int mu = 0; mu < Nd; ++mu) {
    if (grid.simd_layout()[mu] > 1) {
      SVELAT_ASSERT_MSG(grid.rdimensions()[mu] % 2 == 0,
                        "even-odd needs parity-uniform virtual-node blocks "
                        "(even block extents in decomposed dimensions)");
    }
  }
}

/// Parity of an outer site (lane-uniform under the layout assertion).
inline int outer_site_parity(const GridCartesian& grid, std::int64_t osite) {
  return coordinate_parity(grid.global_coor(osite, 0));
}

class GridRedBlackCartesian {
 public:
  /// `ring`: the cross-rank reduction ring when `full` is one rank's
  /// sub-lattice (its rank slabs contiguous in global site order), null on
  /// a single-rank grid.
  GridRedBlackCartesian(const GridCartesian* full, int parity,
                        const ReduceRing* ring = nullptr)
      : full_(full), parity_(parity), ring_(ring) {
    SVELAT_ASSERT_MSG(parity == kParityEven || parity == kParityOdd,
                      "parity must be 0 (even) or 1 (odd)");
    assert_parity_uniform_layout(*full);
    // On a torus a wrap hop in an odd extent links equal parities, which
    // breaks the red-black pairing the stencil relies on.
    for (int mu = 0; mu < Nd; ++mu)
      SVELAT_ASSERT_MSG(full->fdimensions()[mu] % 2 == 0,
                        "even-odd needs even lattice extents");
    f2h_.assign(static_cast<std::size_t>(full->osites()), -1);
    h2f_.reserve(static_cast<std::size_t>(full->osites()) / 2);
    for (std::int64_t o = 0; o < full->osites(); ++o) {
      if (outer_site_parity(*full, o) == parity) {
        f2h_[static_cast<std::size_t>(o)] = static_cast<std::int64_t>(h2f_.size());
        h2f_.push_back(o);
      }
    }
  }

  const GridCartesian* full_grid() const { return full_; }
  int parity() const { return parity_; }
  /// The ring this grid's block-field reductions run over (null: one rank).
  const ReduceRing* ring() const { return ring_; }

  /// Number of outer sites of this parity (half the full grid's).
  std::int64_t osites() const { return static_cast<std::int64_t>(h2f_.size()); }
  unsigned isites() const { return full_->isites(); }
  /// Lattice sites of this parity: V/2.
  std::int64_t gsites() const { return osites() * isites(); }

  const Coordinate& fdimensions() const { return full_->fdimensions(); }

  /// Full-grid outer index of half-grid site `half`.
  std::int64_t full_osite(std::int64_t half) const {
    return h2f_[static_cast<std::size_t>(half)];
  }
  /// Half-grid index of a full-grid outer site (-1 for the other parity).
  std::int64_t half_osite(std::int64_t full) const {
    return f2h_[static_cast<std::size_t>(full)];
  }

  // --- Lattice<> indexing concept ------------------------------------------
  std::int64_t outer_index(const Coordinate& global) const {
    SVELAT_ASSERT_MSG(coordinate_parity(global) == parity_,
                      "coordinate parity does not match this checkerboard");
    return half_osite(full_->outer_index(global));
  }
  unsigned inner_index(const Coordinate& global) const {
    return full_->inner_index(global);
  }
  Coordinate global_coor(std::int64_t half, unsigned lane) const {
    return full_->global_coor(full_osite(half), lane);
  }
  /// Layout-independent site key on the *full* lattice, so half fields and
  /// full fields draw identical per-site RNG streams.
  std::int64_t global_index(const Coordinate& global) const {
    return full_->global_index(global);
  }

  friend bool operator==(const GridRedBlackCartesian& a, const GridRedBlackCartesian& b) {
    return *a.full_ == *b.full_ && a.parity_ == b.parity_;
  }

 private:
  const GridCartesian* full_;
  int parity_;
  const ReduceRing* ring_;
  std::vector<std::int64_t> h2f_;  ///< half osite -> full osite (ascending)
  std::vector<std::int64_t> f2h_;  ///< full osite -> half osite or -1
};

/// Extract one parity of a full field into a half field (Grid's
/// pickCheckerboard).  Sites of the other parity are simply not copied.
template <class vobj>
void pick_checkerboard(const Lattice<vobj>& full,
                       Lattice<vobj, GridRedBlackCartesian>& half) {
  const GridRedBlackCartesian* rb = half.grid();
  SVELAT_ASSERT_MSG(*rb->full_grid() == *full.grid(),
                    "checkerboard does not view this full grid");
  thread_for(rb->osites(), [&](std::int64_t h) { half[h] = full[rb->full_osite(h)]; });
}

/// Deposit a half field into the matching parity of a full field (Grid's
/// setCheckerboard).  The other parity of `full` is left untouched.
template <class vobj>
void set_checkerboard(Lattice<vobj>& full,
                      const Lattice<vobj, GridRedBlackCartesian>& half) {
  const GridRedBlackCartesian* rb = half.grid();
  SVELAT_ASSERT_MSG(*rb->full_grid() == *full.grid(),
                    "checkerboard does not view this full grid");
  thread_for(rb->osites(), [&](std::int64_t h) { full[rb->full_osite(h)] = half[h]; });
}

}  // namespace svelat::lattice
