// Quark propagators and meson correlators.
//
// The physics application the paper's framework ultimately serves: solve
// M G = delta-source for all 12 (spin, colour) source components, then
// contract the point-to-all propagator into hadron two-point functions.
// The pion correlator is the simplest contraction: with gamma_5
// interpolators its value is the sum over |G|^2 components, time-slice by
// time-slice, and decays as cosh(m_pi (t - T/2)) on a periodic lattice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qcd/wilson.h"
#include "solver/solver.h"

namespace svelat::qcd {

/// Point source: delta at `origin` in the given (spin, colour) component.
template <class S>
void point_source(LatticeFermion<S>& src, const lattice::Coordinate& origin, int spin,
                  int colour) {
  using sobj = typename LatticeFermion<S>::scalar_object;
  src.set_zero();
  sobj s = tensor::Zero<sobj>();
  s(spin)(colour) = std::complex<typename S::real_type>(1, 0);
  src.poke(origin, s);
}

/// Point-to-all propagator: the 12 solution vectors of M G = delta, indexed
/// by source component [spin * Nc + colour], and the 12 point sources they
/// solve for, which compute_propagator refills on every call so a warm
/// call builds no field.
template <class S>
struct Propagator {
  explicit Propagator(const lattice::GridCartesian* grid)
      : columns(static_cast<std::size_t>(Ns * Nc), LatticeFermion<S>(grid)),
        sources(columns.size(), LatticeFermion<S>(grid)) {}

  LatticeFermion<S>& column(int spin, int colour) {
    return columns[static_cast<std::size_t>(spin * Nc + colour)];
  }
  const LatticeFermion<S>& column(int spin, int colour) const {
    return columns[static_cast<std::size_t>(spin * Nc + colour)];
  }

  std::vector<LatticeFermion<S>> columns;
  std::vector<LatticeFermion<S>> sources;
};

/// Per-column outcome of a propagator computation: one SolverResult for
/// each of the 12 (spin, colour) sources, indexed like Propagator columns.
/// Non-convergence is reported here -- a stalled column sets its
/// `converged` flag false; nothing asserts -- so physics drivers can
/// print a diagnosis and exit cleanly.
struct PropagatorReport {
  std::vector<solver::SolverResult> columns;

  bool all_converged() const {
    return std::all_of(columns.begin(), columns.end(),
                       [](const solver::SolverResult& r) { return r.converged; });
  }
  double worst_true_residual() const {
    double worst = 0.0;
    for (const auto& r : columns) worst = std::max(worst, r.true_residual);
    return worst;
  }
  int total_iterations() const {
    int total = 0;
    for (const auto& r : columns) total += r.iterations;
    return total;
  }
};

/// Compute the propagator from `origin` through the solver's batched
/// multi-RHS entry: the 12 spin-colour sources go down
/// WilsonSolver::solve_batched in kBlockWidth-wide chunks, so the gauge
/// links stream ONCE per operator sweep for all columns instead of once
/// per column (qcd/block.h).  Under configurations other than CG x Schur
/// solve_batched solves them column by column; the PropagatorReport
/// contract is unchanged either way.
template <class S>
PropagatorReport compute_propagator(solver::WilsonSolver<S>& solver,
                                    const lattice::Coordinate& origin,
                                    Propagator<S>& prop) {
  SVELAT_ASSERT_MSG(*prop.columns.front().grid() == *solver.grid(),
                    "the propagator was built for a different grid than the solver's");
  for (int spin = 0; spin < Ns; ++spin) {
    for (int colour = 0; colour < Nc; ++colour) {
      point_source(prop.sources[static_cast<std::size_t>(spin * Nc + colour)], origin,
                   spin, colour);
      prop.column(spin, colour).set_zero();
    }
  }
  PropagatorReport report;
  report.columns = solver.solve_batched(prop.sources, prop.columns);
  return report;
}

/// Precomputed osite/lane -> global time slice map.  The contraction
/// loops used to call grid->global_coor() per lane per site per column
/// (a full coordinate decode, 12x repeated); building the table once
/// reduces that to an int32 load.
class TimesliceTable {
 public:
  explicit TimesliceTable(const lattice::GridCartesian* grid)
      : grid_(grid),
        T_(grid->fdimensions()[3]),
        isites_(grid->isites()),
        t_(static_cast<std::size_t>(grid->osites()) * grid->isites()) {
    thread_for(grid->osites(), [&](std::int64_t o) {
      for (unsigned l = 0; l < isites_; ++l)
        t_[static_cast<std::size_t>(o) * isites_ + l] =
            static_cast<std::int32_t>(grid_->global_coor(o, l)[3]);
    });
  }

  const lattice::GridCartesian* grid() const { return grid_; }
  int time_extent() const { return T_; }
  unsigned isites() const { return isites_; }
  /// The isites() time coordinates of outer site o.
  const std::int32_t* row(std::int64_t o) const {
    return t_.data() + static_cast<std::size_t>(o) * isites_;
  }

 private:
  const lattice::GridCartesian* grid_;
  int T_;
  unsigned isites_;
  AlignedVector<std::int32_t> t_;
};

/// Per-time-slice |x|^2: the pion-contraction kernel for one propagator
/// column.  Parallel over fixed 64-site chunks with a serial in-chunk
/// order and a fixed chunk-order final sum -- the same deterministic
/// grouping discipline as support/parallel.h's parallel_reduce, so the
/// result is bitwise thread-count-invariant (it DOES regroup the sum
/// relative to the old serial loop, which is eps-level on the
/// correlator).
template <class S>
std::vector<double> timeslice_norm2(const TimesliceTable& table,
                                    const LatticeFermion<S>& x) {
  const lattice::GridCartesian* grid = x.grid();
  SVELAT_ASSERT_MSG(*grid == *table.grid(),
                    "time-slice table was built for a different grid");
  const int T = table.time_extent();
  constexpr std::int64_t kChunk = 64;
  const std::int64_t chunks = (grid->osites() + kChunk - 1) / kChunk;
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(chunks));
  thread_for(chunks, [&](std::int64_t c) {
    std::vector<double>& acc = partial[static_cast<std::size_t>(c)];
    acc.assign(static_cast<std::size_t>(T), 0.0);
    const std::int64_t end = std::min((c + 1) * kChunk, grid->osites());
    for (std::int64_t o = c * kChunk; o < end; ++o) {
      // |x[o]|^2 lane by lane, attributed to each lane's time slice.
      const S ip = tensor::innerProduct(x[o], x[o]);
      const std::int32_t* ts = table.row(o);
      for (unsigned l = 0; l < table.isites(); ++l)
        acc[static_cast<std::size_t>(ts[l])] += ip.lane(l).real();
    }
  });
  std::vector<double> corr(static_cast<std::size_t>(T), 0.0);
  for (const auto& pc : partial)
    for (int t = 0; t < T; ++t)
      corr[static_cast<std::size_t>(t)] += pc[static_cast<std::size_t>(t)];
  return corr;
}

/// Pion (pseudoscalar) two-point function:
///   C(t) = sum_{x, all indices} |G(x, t)|^2
/// (gamma_5 at source and sink; gamma_5-hermiticity turns the contraction
/// into a plain modulus-squared sum).  One shared TimesliceTable drives
/// all 12 per-column kernels; columns are summed in fixed column order,
/// so the result is deterministic across thread counts.
template <class S>
std::vector<double> pion_correlator(const Propagator<S>& prop) {
  const lattice::GridCartesian* grid = prop.columns.front().grid();
  const TimesliceTable table(grid);
  std::vector<double> corr(static_cast<std::size_t>(table.time_extent()), 0.0);
  for (const auto& col : prop.columns) {
    const std::vector<double> cs = timeslice_norm2(table, col);
    for (std::size_t t = 0; t < corr.size(); ++t) corr[t] += cs[t];
  }
  return corr;
}

/// Effective mass from the symmetric correlator ratio:
///   m_eff(t) = log( C(t) / C(t+1) )    (forward-difference estimate).
inline std::vector<double> effective_mass(const std::vector<double>& corr) {
  std::vector<double> meff;
  for (std::size_t t = 0; t + 1 < corr.size(); ++t) {
    if (corr[t] > 0 && corr[t + 1] > 0)
      meff.push_back(std::log(corr[t] / corr[t + 1]));
    else
      meff.push_back(0.0);
  }
  return meff;
}

}  // namespace svelat::qcd
