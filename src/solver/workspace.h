// Reusable Krylov field pool: the allocation-free solver hot path.
//
// Every iterative kernel in this directory (cg.h, bicgstab.h and the
// mixed-precision defect-correction loop in solver.h) historically
// constructed its work fields on entry, so a propagator's repeated
// solves paid twelve rounds of large aligned allocations.  A
// SolverWorkspace owns those fields instead: slots are constructed
// lazily on first use and then live for the workspace lifetime, so a
// warm solve constructs no fermion fields at all (pinned by
// tests/solver/test_allocation.cpp through the
// support::aligned_allocation_count() seam).
//
// A workspace is bound to the grid of its first use; callers that solve
// on several grids or field types (full-grid fields of the unpreconditioned
// CG, the half-grid block fields of each Schur engine) hold one
// workspace per grid/field type, as solver::WilsonSolver does.
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "support/assert.h"

namespace svelat::solver {

/// Lazily-constructed pool of solver work fields.  `Field` is any
/// grid-constructible field: Lattice<vobj>, or the half-checkerboard block
/// fields of the Schur engines (on one rank's half grid for a distributed
/// solve).
template <class Field>
class SolverWorkspace {
 public:
  // Slot names double as documentation of which kernel owns what: CG
  // uses kR/kP/kAp, BiCGSTAB adds kR0/kV/kS/kT (the block CG takes kV for
  // Mhat p, BiCGSTAB's v = A p), and the normal-equation wrappers use
  // kRhs/kMx for M^dag b and M x.
  static constexpr std::size_t kR = 0;
  static constexpr std::size_t kP = 1;
  static constexpr std::size_t kAp = 2;
  static constexpr std::size_t kR0 = 3;
  static constexpr std::size_t kV = 4;
  static constexpr std::size_t kS = 5;
  static constexpr std::size_t kT = 6;
  static constexpr std::size_t kRhs = 7;
  static constexpr std::size_t kMx = 8;
  static constexpr std::size_t kSlotCount = 9;

  /// Fetch a slot, constructing it on first use from `grid` (whatever
  /// handle Field's constructor takes).  Subsequent fetches must pass
  /// the same grid: a workspace never reshapes its fields.
  template <class GridP>
  Field& get(std::size_t slot, GridP grid) {
    SVELAT_ASSERT_MSG(slot < kSlotCount, "SolverWorkspace slot out of range");
    auto& f = slots_[slot];
    if (!f) {
      f = std::make_unique<Field>(grid);
    } else {
      SVELAT_ASSERT_MSG(f->grid() == grid,
                        "SolverWorkspace is bound to a different grid");
    }
    return *f;
  }

 private:
  std::array<std::unique_ptr<Field>, kSlotCount> slots_;
};

}  // namespace svelat::solver
