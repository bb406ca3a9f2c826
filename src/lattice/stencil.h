// Precomputed nearest-neighbour stencil tables.
//
// The hopping term (paper Eq. (1)) reads 8 neighbours per site.  For each
// (outer site, direction) the table stores which outer site to read and
// whether the virtual-node boundary was crossed (in which case the vector
// must be lane-permuted, Fig. 1).  Building the table once amortizes the
// coordinate arithmetic over all Dhop applications -- the same role
// Grid's CartesianStencil plays.
//
// Two flavours share one Entry layout (so the neighbour-fetch kernels are
// generic over the table type):
//   Stencil          -- full lattice, neighbours indexed on the same grid.
//   StencilRedBlack  -- half checkerboard: built for a *target* parity,
//                       entries index the *opposite*-parity half grid,
//                       since every nearest neighbour flips parity.
#pragma once

#include <cstdint>
#include <vector>

#include "lattice/cartesian.h"
#include "lattice/red_black.h"
#include "support/parallel.h"

namespace svelat::lattice {

/// One neighbour-table slot, shared by all stencil flavours.
struct StencilEntry {
  std::int64_t osite;  ///< neighbouring outer site (on the table's source grid)
  unsigned permute;    ///< lane-XOR distance, 0 = no permutation
};

/// Directions are indexed 0..2*Nd-1: dir = mu for +mu, Nd + mu for -mu.
inline constexpr int kStencilDirs = 2 * Nd;

class Stencil {
 public:
  using Entry = StencilEntry;

  static constexpr int num_dirs = kStencilDirs;

  explicit Stencil(const GridCartesian* grid) : grid_(grid) {
    table_.resize(static_cast<std::size_t>(grid->osites()) * num_dirs);
    thread_for(grid->osites(), [&](std::int64_t o) {
      for (int mu = 0; mu < Nd; ++mu) {
        const auto fwd = grid->neighbour(o, mu, +1);
        const auto bwd = grid->neighbour(o, mu, -1);
        table_[index(o, mu)] = {fwd.osite, fwd.permute};
        table_[index(o, Nd + mu)] = {bwd.osite, bwd.permute};
      }
    });
  }

  /// Table entry for a hop from `osite` in direction `dir` (see num_dirs).
  const Entry& entry(std::int64_t osite, int dir) const {
    return table_[index(osite, dir)];
  }

  const GridCartesian* grid() const { return grid_; }

 private:
  static std::size_t index(std::int64_t osite, int dir) {
    return static_cast<std::size_t>(osite) * num_dirs + static_cast<std::size_t>(dir);
  }

  const GridCartesian* grid_;
  std::vector<Entry> table_;
};

/// Parity-restricted stencil: for each site of the target half grid, the
/// 8 neighbours expressed as indices into the opposite-parity half grid.
/// The Schur operator's parity sweeps (qcd::SchurEvenOddWilson) walk this
/// table to read one parity and write the other over half-volume fields --
/// half the traffic of the zero-padded path.
class StencilRedBlack {
 public:
  using Entry = StencilEntry;

  static constexpr int num_dirs = kStencilDirs;

  StencilRedBlack(const GridRedBlackCartesian* target,
                  const GridRedBlackCartesian* source)
      : target_(target), source_(source) {
    SVELAT_ASSERT_MSG(*target->full_grid() == *source->full_grid(),
                      "target and source checkerboards must view the same grid");
    SVELAT_ASSERT_MSG(target->parity() != source->parity(),
                      "nearest-neighbour hops flip parity: target and source "
                      "checkerboards must have opposite parities");
    const GridCartesian* full = target->full_grid();
    table_.resize(static_cast<std::size_t>(target->osites()) * num_dirs);
    thread_for(target->osites(), [&](std::int64_t h) {
      const std::int64_t o = target->full_osite(h);
      for (int mu = 0; mu < Nd; ++mu) {
        const auto fwd = full->neighbour(o, mu, +1);
        const auto bwd = full->neighbour(o, mu, -1);
        table_[index(h, mu)] = {source->half_osite(fwd.osite), fwd.permute};
        table_[index(h, Nd + mu)] = {source->half_osite(bwd.osite), bwd.permute};
      }
    });
  }

  /// Entry for a hop from target half site `hsite` in direction `dir`;
  /// Entry::osite indexes the source (opposite-parity) half grid.
  const Entry& entry(std::int64_t hsite, int dir) const {
    return table_[index(hsite, dir)];
  }

  const GridRedBlackCartesian* target() const { return target_; }
  const GridRedBlackCartesian* source() const { return source_; }

 private:
  static std::size_t index(std::int64_t hsite, int dir) {
    return static_cast<std::size_t>(hsite) * num_dirs + static_cast<std::size_t>(dir);
  }

  const GridRedBlackCartesian* target_;
  const GridRedBlackCartesian* source_;
  std::vector<Entry> table_;
};

}  // namespace svelat::lattice
