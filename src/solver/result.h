// Unified parameter and result types of the solver facade (solver/solver.h).
//
// Every Wilson solve in the tree -- CG, BiCGSTAB, mixed-precision defect
// correction, preconditioned or not -- takes one SolverParams and returns
// one SolverResult.  This replaces the positional (tolerance,
// max_iterations) argument pairs and the SolverStats / MixedStats struct
// split that predated the facade.  supported() below is the one statement
// of which algorithm x preconditioner combinations exist.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "comms/comm_error.h"

namespace svelat::solver {

/// Iterative algorithm driving the outer solve.
enum class Algorithm {
  kCG,        ///< CG on the normal equations (hermitian positive definite)
  kBiCGSTAB,  ///< BiCGSTAB directly on the non-hermitian Schur system
  kMixedCG,   ///< double-precision defect correction around a single-precision
              ///< Schur CG
};

/// Operator formulation the algorithm runs on.
enum class Preconditioner {
  kNone,         ///< full-lattice Wilson operator (kCG only)
  kSchurEvenOdd  ///< Schur complement on the even half-checkerboard sublattice
};

/// Whether the facade runs `a` on `p`: every algorithm runs on the Schur
/// engine, and kNone runs only the paper's CG on the normal equations
/// (solver/cg.h).  The facade asserts it, service::decode_job rejects a
/// job record without it and examples/wilson_cg reports a usage error.
constexpr bool supported(Algorithm a, Preconditioner p) {
  return p == Preconditioner::kSchurEvenOdd || a == Algorithm::kCG;
}

inline const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kCG: return "cg";
    case Algorithm::kBiCGSTAB: return "bicgstab";
    case Algorithm::kMixedCG: return "mixed_cg";
  }
  return "?";
}

inline const char* to_string(Preconditioner p) {
  switch (p) {
    case Preconditioner::kNone: return "none";
    case Preconditioner::kSchurEvenOdd: return "schur_even_odd";
  }
  return "?";
}

/// Why a solve was cut short (SolverResult::stall).
enum class StallReason {
  kNone,       ///< the solve ran its course
  kBreakdown,  ///< BiCGSTAB hit a zero denominator (<r0, v>, |t|, rho or omega)
};

inline const char* to_string(StallReason r) {
  switch (r) {
    case StallReason::kNone: return "none";
    case StallReason::kBreakdown: return "breakdown";
  }
  return "?";
}

/// Knobs of a Wilson solve.  The defaults are the production
/// configuration: Schur-preconditioned CG on true half-checkerboard
/// fields (README, "Half-checkerboard production path", has its measured
/// instructions per iteration), solved to |r|/|b| <= 1e-9.
/// kMixedCG has no knobs of its own: its inner target and restart cap are
/// WilsonSolver's kMixedInnerTolerance and kMixedMaxRestarts.
struct SolverParams {
  Algorithm algorithm = Algorithm::kCG;
  Preconditioner preconditioner = Preconditioner::kSchurEvenOdd;
  double tolerance = 1e-9;   ///< target |r|/|b| of the full system
  int max_iterations = 1000; ///< iteration cap of each Krylov solve: the
                             ///< CG/BiCGSTAB solve, or each fp32 inner
                             ///< solve of kMixedCG

  // Chainable named setters, so call sites can spell only what differs
  // from production defaults (SolverParams stays an aggregate: designated
  // initializers work too).
  SolverParams& with_algorithm(Algorithm a) { algorithm = a; return *this; }
  SolverParams& with_preconditioner(Preconditioner p) {
    preconditioner = p;
    return *this;
  }
  SolverParams& with_tolerance(double t) { tolerance = t; return *this; }
  SolverParams& with_max_iterations(int n) { max_iterations = n; return *this; }
};

/// Outcome of one solve.  Every field is populated by every algorithm x
/// preconditioner combination; non-convergence is reported here (converged
/// == false), never asserted.
struct SolverResult {
  Algorithm algorithm = Algorithm::kCG;
  Preconditioner preconditioner = Preconditioner::kNone;

  bool converged = false;
  int iterations = 0;        ///< outer iterations (CG/BiCGSTAB steps; MixedCG restarts)
  int inner_iterations = 0;  ///< accumulated single-precision iterations (MixedCG)
  int block_width = 1;       ///< columns solved together (1: a single-column solve)

  double target_residual = 0.0;  ///< requested |r|/|b|
  double final_residual = 0.0;   ///< recursion residual |r|/|b| at exit
  double true_residual = 0.0;    ///< recomputed |b - M x| / |b| on the full system

  // Field-norm bookkeeping of the solved system.
  double rhs_norm = 0.0;       ///< |b|
  double solution_norm = 0.0;  ///< |x| at exit

  /// Wall-clock seconds of the facade-level solve (monotonic clock;
  /// machine-dependent, never gated).  1 / wall_seconds is the
  /// solves-per-second figure the wall-clock metrics layer reports.
  double wall_seconds = 0.0;

  std::vector<double> residual_history;  ///< |r|/|b| per outer iteration

  // Distributed solves: a communication failure that survived the retry
  // policy lands here as a typed verdict (converged stays false) instead
  // of propagating as an abort or a hang.  Always kOk for single-rank
  // operators.
  comms::CommStatus comm_status = comms::CommStatus::kOk;
  std::string comm_detail;  ///< CommError::what() of the failure, if any

  StallReason stall = StallReason::kNone;  ///< why the Krylov loop was cut short

  /// One-line human-readable summary.
  std::string summary() const;
};

inline std::string SolverResult::summary() const {
  char inner[48] = "";
  if (inner_iterations > 0)
    std::snprintf(inner, sizeof(inner), " (+%d inner)", inner_iterations);
  char stalled[32] = "";
  if (stall != StallReason::kNone)
    std::snprintf(stalled, sizeof(stalled), " [%s]", to_string(stall));
  char comm[96] = "";
  if (comm_status != comms::CommStatus::kOk)
    std::snprintf(comm, sizeof(comm), " [comm failure: %s]",
                  comms::comm_status_name(comm_status));
  char wall[48] = "";
  if (wall_seconds > 0.0)
    std::snprintf(wall, sizeof(wall), ", %.1f ms", wall_seconds * 1e3);
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "%s/%s: %s, %d iterations%s, |r|/|b| %.3e (true %.3e)%s%s%s",
                to_string(algorithm), to_string(preconditioner),
                converged ? "converged" : "NOT converged", iterations, inner,
                final_residual, true_residual, wall, stalled, comm);
  return buf;
}

}  // namespace svelat::solver
