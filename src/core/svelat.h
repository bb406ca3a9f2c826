// svelat: SVE-enabled lattice QCD framework.
//
// Public umbrella header.  Reproduction of "SVE-enabling Lattice QCD
// Codes" (Meyer et al., IEEE CLUSTER 2018); see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the experiment index.
//
// Layers (bottom up):
//   sve/       software SVE ISA + ACLE intrinsics (ArmIE substitute)
//   simd/      Grid-style abstraction: vec<T>, acle<T>, functor backends
//   tensor/    nested colour/spin tensors
//   lattice/   cartesian grids, virtual-node layout, cshift
//   comms/     simulated communicator, fp16 halo compression
//   qcd/       gamma algebra, SU(3), Wilson Dirac operator
//   solver/    WilsonSolver facade: CG / BiCGSTAB / mixed precision
//   core/      port registry (Table I), verification harness (Sec. V-D)
#pragma once

#include "comms/halo.h"           // IWYU pragma: export
#include "core/config.h"          // IWYU pragma: export
#include "core/kernels.h"         // IWYU pragma: export
#include "core/ports.h"           // IWYU pragma: export
#include "core/verification.h"    // IWYU pragma: export
#include "lattice/lattice_all.h"  // IWYU pragma: export
#include "qcd/qcd.h"              // IWYU pragma: export
#include "simd/simd.h"            // IWYU pragma: export
#include "solver/solver.h"        // IWYU pragma: export
#include "support/logging.h"      // IWYU pragma: export
#include "support/random.h"       // IWYU pragma: export
#include "support/timer.h"        // IWYU pragma: export
#include "sve/sve.h"              // IWYU pragma: export
