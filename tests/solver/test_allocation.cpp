// Allocation-regression suite: a WARM WilsonSolver::solve constructs no
// lattice fields -- single-rank, distributed or batched, for every
// algorithm -- and neither does a warm qcd::compute_propagator.
//
// Every field buffer goes through AlignedAllocator, whose allocate()
// bumps the process-wide aligned_allocation_count() seam
// (support/aligned.h).  Each case below runs warm-up solves (the first
// populates the facade's lazily-built operators and SolverWorkspace slot
// pools, a second, where a case has one, flushes any remaining
// thread-local reduction buffers), snapshots the counter, solves again,
// and pins the delta to ZERO.  Regressions here are exactly the
// "temporary field per iteration" bugs the workspace layer exists to
// prevent: an expression temporary in a hot path, a workspace slot
// dropped, a convert_field rebuild.
//
// SolverResult itself may heap-allocate (residual_history is a plain
// std::vector) -- only ALIGNED allocations, i.e. field-sized buffers,
// are counted, which is the contract the hot path must keep.
#include "solver/solver.h"

#include <gtest/gtest.h>

#include <vector>

#include "comms/distributed_wilson.h"
#include "lattice/fill.h"
#include "qcd/propagator.h"
#include "qcd/qcd.h"
#include "support/aligned.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

struct AllocProblem {
  AllocProblem()
      : vl(8 * S::vlb),
        grid({4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        gauge(&grid),
        b(&grid),
        x(&grid) {
    qcd::random_gauge(SiteRNG(2018), gauge);
    gaussian_fill(SiteRNG(7), b);
    x.set_zero();
  }

  sve::VLGuard vl;
  lattice::GridCartesian grid;
  qcd::GaugeField<S> gauge;
  Field b, x;
};

SolverParams base_params() {
  return SolverParams{}.with_tolerance(1e-8).with_max_iterations(500);
}

/// Two warm-up solves, then pin the third's aligned-allocation delta to 0.
void expect_warm_solve_allocates_nothing(WilsonSolver<S>& solver, const Field& b,
                                         Field& x, const char* what) {
  for (int warm = 0; warm < 2; ++warm) {
    x.set_zero();
    ASSERT_TRUE(solver.solve(b, x).converged) << what;
  }
  x.set_zero();
  const std::uint64_t before = aligned_allocation_count().load();
  const SolverResult res = solver.solve(b, x);
  const std::uint64_t after = aligned_allocation_count().load();
  EXPECT_TRUE(res.converged) << what;
  // A real solve, not a no-op (MixedCG counts outer restarts here).
  EXPECT_GE(res.iterations, 1) << what;
  EXPECT_EQ(after - before, 0u) << what << ": a warm solve built "
                                << (after - before) << " field buffer(s)";
}

void expect_warm_solve_allocates_nothing(AllocProblem& p, const SolverParams& params,
                                         const char* what) {
  WilsonSolver<S> solver(p.gauge, 0.2, params);
  expect_warm_solve_allocates_nothing(solver, p.b, p.x, what);
}

TEST(Allocation, WarmSchurCGSolveAllocatesNothing) {
  AllocProblem p;
  expect_warm_solve_allocates_nothing(p, base_params(), "CG + SchurEvenOdd");
}

TEST(Allocation, WarmUnpreconditionedCGSolveAllocatesNothing) {
  AllocProblem p;
  expect_warm_solve_allocates_nothing(
      p, base_params().with_preconditioner(Preconditioner::kNone), "CG + none");
}

TEST(Allocation, WarmBiCGSTABSolveAllocatesNothing) {
  AllocProblem p;
  expect_warm_solve_allocates_nothing(
      p, base_params().with_algorithm(Algorithm::kBiCGSTAB), "BiCGSTAB + Schur");
}

TEST(Allocation, WarmMixedPrecisionSolveAllocatesNothing) {
  AllocProblem p;
  expect_warm_solve_allocates_nothing(
      p, base_params().with_algorithm(Algorithm::kMixedCG), "MixedCG + Schur");
}

TEST(Allocation, WarmDistributedSolveAllocatesNothing) {
  // One rank over the in-process SimCommunicator: the Schur engine's
  // parity sweeps over the halo-exchanged operator and the ring
  // reductions on its half grids run in every CG iteration.
  sve::VLGuard vl(8 * S::vlb);
  const lattice::Coordinate dims{4, 4, 4, 8};
  constexpr int kSplit = 3;
  const lattice::Coordinate layout = comms::split_simd_layout(dims, kSplit, S::Nsimd());
  lattice::GridCartesian grid(dims, layout);
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  Field b(&grid);
  gaussian_fill(SiteRNG(7), b);

  const comms::RankDecomposition decomp(dims, kSplit, 1, layout);
  comms::SimCommunicator comm(1);
  qcd::GaugeField<S> u_local(decomp.grid(0));
  for (int mu = 0; mu < lattice::Nd; ++mu)
    u_local.U[static_cast<std::size_t>(mu)] =
        comms::scatter_rank(decomp, gauge.U[static_cast<std::size_t>(mu)], 0);
  const comms::DistributedWilsonDirac<S> op(decomp, comm, 0, u_local, 0.2);
  WilsonSolver<S> solver(op, base_params());
  const Field b_local = comms::scatter_rank(decomp, b, 0);
  Field x_local(decomp.grid(0));
  expect_warm_solve_allocates_nothing(solver, b_local, x_local, "distributed CG");
}

TEST(Allocation, WarmBlockBatchedSolveAllocatesNothing) {
  AllocProblem p;
  constexpr std::size_t kN = WilsonSolver<S>::kBlockWidth;
  WilsonSolver<S> solver(p.gauge, 0.2, base_params());
  std::vector<Field> b, x;
  for (std::size_t j = 0; j < kN; ++j) {
    b.emplace_back(&p.grid);
    gaussian_fill(SiteRNG(50 + static_cast<unsigned>(j)), b.back());
    x.emplace_back(&p.grid);
  }
  const auto zero_guesses = [&] {
    for (Field& f : x) f.set_zero();
  };
  for (int warm = 0; warm < 2; ++warm) {
    zero_guesses();
    for (const SolverResult& r : solver.solve_batched(b, x))
      ASSERT_TRUE(r.converged);
  }
  zero_guesses();
  const std::uint64_t before = aligned_allocation_count().load();
  const std::vector<SolverResult> res = solver.solve_batched(b, x);
  const std::uint64_t after = aligned_allocation_count().load();
  for (const SolverResult& r : res) {
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.block_width, static_cast<int>(kN));
  }
  EXPECT_EQ(after - before, 0u) << "a warm batched solve built "
                                << (after - before) << " field buffer(s)";
}

TEST(Allocation, WarmPropagatorAllocatesNothing) {
  // The Propagator owns its 12 point sources: a warm compute_propagator
  // refills them and rides the warm batched engine.
  AllocProblem p;
  WilsonSolver<S> solver(p.gauge, 0.2, base_params());
  qcd::Propagator<S> prop(&p.grid);
  const lattice::Coordinate origin{1, 2, 3, 4};
  for (int warm = 0; warm < 2; ++warm)
    ASSERT_TRUE(qcd::compute_propagator(solver, origin, prop).all_converged());
  const std::uint64_t before = aligned_allocation_count().load();
  const qcd::PropagatorReport report = qcd::compute_propagator(solver, origin, prop);
  const std::uint64_t after = aligned_allocation_count().load();
  EXPECT_TRUE(report.all_converged());
  EXPECT_EQ(after - before, 0u) << "a warm propagator built " << (after - before)
                                << " field buffer(s)";
}

}  // namespace
}  // namespace svelat::solver
