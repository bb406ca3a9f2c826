// WilsonSolver::solve_batched: the multi-RHS facade contract.
//
//  - every column is BITWISE what solve() returns for it: a full
//    kBlockWidth-wide chunk runs the Schur engine at N = 12 and solve()
//    runs it at N = 1, the same per-column arithmetic; remainder columns
//    and width-1 batches run solve() itself;
//  - per-column convergence is independent: under a tight iteration cap a
//    slow column reports converged == false while its siblings converge
//    to bit-identical solutions (the ColumnMask freeze);
//  - distributed operators run solve() per column, bitwise equal to the
//    single-rank facade at every rank count.
#include "solver/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "lattice/fill.h"
#include "qcd/qcd.h"
#include "support/metrics.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

constexpr double kMass = 0.2;
constexpr double kTol = 1e-8;

SolverParams batch_params() {
  return SolverParams{}.with_tolerance(kTol).with_max_iterations(500);
}

struct BatchProblem {
  BatchProblem()
      : vl(8 * S::vlb),
        grid({4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        gauge(&grid) {
    qcd::random_gauge(SiteRNG(2018), gauge);
  }

  std::vector<Field> make_rhs(std::size_t n, unsigned seed_base = 100) const {
    std::vector<Field> b;
    for (std::size_t i = 0; i < n; ++i) {
      b.emplace_back(&grid);
      gaussian_fill(SiteRNG(seed_base + static_cast<unsigned>(i)), b.back());
    }
    return b;
  }

  std::vector<Field> zeros(std::size_t n) const {
    std::vector<Field> x(n, Field(&grid));
    for (Field& f : x) f.set_zero();
    return x;
  }

  sve::VLGuard vl;
  lattice::GridCartesian grid;
  qcd::GaugeField<S> gauge;
};

/// Bitwise agreement of the per-solve metadata (block_width excluded:
/// that records the path taken, which is what several tests vary).
bool results_identical(const SolverResult& a, const SolverResult& b) {
  if (a.converged != b.converged || a.iterations != b.iterations) return false;
  if (a.residual_history.size() != b.residual_history.size()) return false;
  for (std::size_t i = 0; i < a.residual_history.size(); ++i)
    if (a.residual_history[i] != b.residual_history[i]) return false;
  return a.final_residual == b.final_residual && a.rhs_norm == b.rhs_norm &&
         a.solution_norm == b.solution_norm;
}

/// Byte equality of two fields (memcmp also tells -0.0 from +0.0).
bool fields_bitwise(const Field& a, const Field& b) {
  for (std::int64_t o = 0; o < a.osites(); ++o)
    if (std::memcmp(&a[o], &b[o], sizeof(a[o])) != 0) return false;
  return true;
}

/// Columns `cols` of a batched solve against solve() of each column alone:
/// solution bytes, iterations, residual history, final and true residual.
void expect_columns_equal_single_solves(const BatchProblem& p,
                                        const std::vector<Field>& b,
                                        const std::vector<Field>& xb,
                                        const std::vector<SolverResult>& rb,
                                        const std::vector<std::size_t>& cols) {
  WilsonSolver<S> single(p.gauge, kMass, batch_params());
  Field xs(&p.grid);
  for (const std::size_t j : cols) {
    xs.set_zero();
    const SolverResult rs = single.solve(b[j], xs);
    ASSERT_TRUE(rs.converged) << "col " << j;
    EXPECT_TRUE(results_identical(rb[j], rs))
        << "col " << j << ": " << rb[j].summary() << " vs " << rs.summary();
    EXPECT_EQ(rb[j].true_residual, rs.true_residual) << "col " << j;
    EXPECT_TRUE(fields_bitwise(xb[j], xs)) << "col " << j;
  }
}

TEST(BlockSolver, Width1BatchBitwiseMatchesSequentialSolve) {
  BatchProblem p;
  const std::vector<Field> b = p.make_rhs(1);
  std::vector<Field> xb = p.zeros(1);

  WilsonSolver<S> batched(p.gauge, kMass, batch_params());
  const std::vector<SolverResult> rb = batched.solve_batched(b, xb);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb[0].block_width, 1);

  WilsonSolver<S> sequential(p.gauge, kMass, batch_params());
  Field xs(&p.grid);
  xs.set_zero();
  const SolverResult rs = sequential.solve(b[0], xs);

  ASSERT_TRUE(rs.converged);
  EXPECT_TRUE(results_identical(rb[0], rs))
      << rb[0].summary() << " vs " << rs.summary();
  EXPECT_EQ(rb[0].true_residual, rs.true_residual);
  EXPECT_EQ(norm2(xb[0] - xs), 0.0);
}

TEST(BlockSolver, FullWidthBatchColumnsEqualSingleSolvesBitwise) {
  BatchProblem p;
  constexpr std::size_t kN = WilsonSolver<S>::kBlockWidth;
  const std::vector<Field> b = p.make_rhs(kN);
  std::vector<Field> xb = p.zeros(kN);

  WilsonSolver<S> batched(p.gauge, kMass, batch_params());
  const std::vector<SolverResult> rb = batched.solve_batched(b, xb);

  ASSERT_EQ(rb.size(), kN);
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(rb[j].block_width, WilsonSolver<S>::kBlockWidth) << "col " << j;
    cols.push_back(j);
  }
  expect_columns_equal_single_solves(p, b, xb, rb, cols);
}

TEST(BlockSolver, RemainderColumnEqualsItsSingleSolveBitwise) {
  BatchProblem p;
  constexpr std::size_t kN = WilsonSolver<S>::kBlockWidth + 1;
  const std::vector<Field> b = p.make_rhs(kN);
  std::vector<Field> xb = p.zeros(kN);

  WilsonSolver<S> batched(p.gauge, kMass, batch_params());
  const std::vector<SolverResult> rb = batched.solve_batched(b, xb);

  ASSERT_EQ(rb.size(), kN);
  for (std::size_t j = 0; j + 1 < kN; ++j)
    EXPECT_EQ(rb[j].block_width, WilsonSolver<S>::kBlockWidth) << "col " << j;
  EXPECT_EQ(rb[kN - 1].block_width, 1);
  expect_columns_equal_single_solves(p, b, xb, rb, {kN - 1});
}

TEST(BlockSolver, SlowColumnFreezesWithoutPoisoningSiblings) {
  BatchProblem p;
  constexpr std::size_t kN = WilsonSolver<S>::kBlockWidth;
  const std::vector<Field> b = p.make_rhs(kN);

  // Phase 1: converge everything, learning each column's iteration count.
  std::vector<Field> x_full = p.zeros(kN);
  WilsonSolver<S> full(p.gauge, kMass, batch_params());
  const std::vector<SolverResult> rf = full.solve_batched(b, x_full);
  int min_it = rf[0].iterations, max_it = rf[0].iterations;
  for (const SolverResult& r : rf) {
    ASSERT_TRUE(r.converged);
    min_it = std::min(min_it, r.iterations);
    max_it = std::max(max_it, r.iterations);
  }
  // Gaussian right-hand sides converge at different rates; the cap below
  // only exercises the mask if they genuinely differ.
  ASSERT_LT(min_it, max_it);

  // Phase 2: cap at the FASTEST column's count -- the fast columns
  // converge, the slow ones run out of iterations and freeze.
  std::vector<Field> x_cap = p.zeros(kN);
  WilsonSolver<S> capped(p.gauge, kMass,
                         batch_params().with_max_iterations(min_it));
  const std::vector<SolverResult> rc = capped.solve_batched(b, x_cap);

  int frozen = 0;
  for (std::size_t j = 0; j < kN; ++j) {
    if (rf[j].iterations <= min_it) {
      // Fast column: stalled siblings must not perturb it -- same
      // iteration count and BIT-IDENTICAL solution as the uncapped run
      // (a frozen column's fields are never touched again).
      EXPECT_TRUE(rc[j].converged) << "col " << j << ": " << rc[j].summary();
      EXPECT_EQ(rc[j].iterations, rf[j].iterations) << "col " << j;
      EXPECT_EQ(norm2(x_cap[j] - x_full[j]), 0.0) << "col " << j;
      EXPECT_LT(rc[j].true_residual, 10 * kTol) << "col " << j;
    } else {
      ++frozen;
      EXPECT_FALSE(rc[j].converged) << "col " << j;
      // The CG (normal-equation) residual is what missed the target; the
      // full-system true residual may already sit at eps of it.
      EXPECT_GT(rc[j].final_residual, kTol) << "col " << j;
    }
  }
  EXPECT_GT(frozen, 0);
  EXPECT_LT(frozen, static_cast<int>(kN));
}

TEST(BlockSolver, SchurSolveRunsFivePlusFourParitySweepsPerIteration) {
  // k CG iterations apply Mhat and Mhat^dag k times (4k sweeps).  Outside
  // the loop the driver runs 5: Dh_eo b_o for b'_e, the two of
  // Mhat^dag b'_e, Dh_oe x_e for x_o (whose result the odd residual
  // reuses) and Dh_eo x_o for the even residual.  The Krylov start costs
  // none, since x_e starts at zero.
  const BatchProblem p;
  metrics::reset();
  WilsonSolver<S> solver(p.gauge, kMass, batch_params());
  std::vector<Field> b = p.make_rhs(1), x = p.zeros(1);
  const SolverResult res = solver.solve(b[0], x[0]);
  ASSERT_TRUE(res.converged);
  const std::uint64_t sweeps =
      metrics::get("dhop_eo_block").calls + metrics::get("dhop_oe_block").calls;
  EXPECT_EQ(sweeps, 5u + 4u * static_cast<std::uint64_t>(res.iterations));
  metrics::reset();
}

TEST(BlockSolver, SchurBiCGSTABRunsThreePlusFourParitySweepsPerIteration) {
  // A full BiCGSTAB iteration applies Mhat twice (4 sweeps).  Outside the
  // loop the Schur solve runs 3: Dh_eo b_o for b'_e, Dh_oe x_e for x_o and
  // Dh_eo x_o for the even residual.  The Krylov start r = b costs none,
  // since x_e starts at zero.  A converged solve may end on the half-step
  // exit, whose last iteration applies Mhat once; capped below the
  // iterations it needs, every iteration is a full one.
  const BatchProblem p;
  metrics::reset();
  constexpr int kCap = 4;
  WilsonSolver<S> capped(
      p.gauge, kMass,
      batch_params().with_algorithm(Algorithm::kBiCGSTAB).with_max_iterations(kCap));
  std::vector<Field> b = p.make_rhs(1), x = p.zeros(1);
  const SolverResult res = capped.solve(b[0], x[0]);
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.iterations, kCap);
  const std::uint64_t sweeps =
      metrics::get("dhop_eo_block").calls + metrics::get("dhop_oe_block").calls;
  EXPECT_EQ(sweeps, 3u + 4u * kCap);

  // Uncapped, this solve converges on the half step of its last iteration.
  metrics::reset();
  WilsonSolver<S> solver(p.gauge, kMass,
                         batch_params().with_algorithm(Algorithm::kBiCGSTAB));
  x = p.zeros(1);
  const SolverResult full = solver.solve(b[0], x[0]);
  ASSERT_TRUE(full.converged);
  EXPECT_EQ(metrics::get("dhop_eo_block").calls + metrics::get("dhop_oe_block").calls,
            3u + 4u * static_cast<std::uint64_t>(full.iterations) - 2u);
  metrics::reset();
}

TEST(BlockSolver, MixedSchurSolveRunsSixSweepsPerRestartAndFourPerInnerIteration) {
  // Each restart runs the fp32 engine's steps 1-3 on the residual's half
  // pieces -- Dh_eo b_o, Mhat^dag b'_e (2 sweeps), 4 per inner iteration
  // and Dh_oe x_e -- and re-forms the double residual from the corrected
  // x with Dh_oe x_e and Dh_eo x_o.  The zero start costs none, and no
  // full-lattice operator runs.
  const BatchProblem p;
  metrics::reset();
  WilsonSolver<S> solver(p.gauge, kMass,
                         batch_params().with_algorithm(Algorithm::kMixedCG));
  std::vector<Field> b = p.make_rhs(1), x = p.zeros(1);
  const SolverResult res = solver.solve(b[0], x[0]);
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.iterations, 0);
  const std::uint64_t sweeps =
      metrics::get("dhop_eo_block").calls + metrics::get("dhop_oe_block").calls;
  EXPECT_EQ(sweeps, 6u * static_cast<std::uint64_t>(res.iterations) +
                        4u * static_cast<std::uint64_t>(res.inner_iterations));
  EXPECT_EQ(metrics::get("dhop").calls, 0u);
  metrics::reset();
}

TEST(BlockSolver, DistributedBatchFallsBackToSequentialBitwise) {
  // A distributed solver runs the Schur engine at N = 1 only; a batched
  // call on a distributed operator must run solve() per column -- bitwise
  // the single-rank facade's at every rank.  Two socket ranks, two
  // columns.
  sve::VLGuard vl(8 * S::vlb);
  const lattice::Coordinate dims{4, 4, 4, 8};
  constexpr int kSplit = 3;
  const lattice::Coordinate layout =
      comms::split_simd_layout(dims, kSplit, S::Nsimd());
  lattice::GridCartesian grid(dims, layout);
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(42), gauge);
  std::vector<Field> b;
  for (unsigned c = 0; c < 2; ++c) {
    b.emplace_back(&grid);
    gaussian_fill(SiteRNG(1234 + c), b.back());
  }
  const SolverParams dparams =
      SolverParams{}.with_tolerance(kTol).with_max_iterations(2000);

  // Single-rank reference on the same simd layout.
  std::vector<Field> x_ref;
  std::vector<SolverResult> r_ref;
  {
    WilsonSolver<S> ref(gauge, kMass, dparams);
    for (std::size_t c = 0; c < 2; ++c) {
      x_ref.emplace_back(&grid);
      x_ref.back().set_zero();
      r_ref.push_back(ref.solve(b[c], x_ref.back()));
      ASSERT_TRUE(r_ref.back().converged);
    }
  }

  constexpr int kRanks = 2;
  comms::SocketWorld world(kRanks);
  const comms::RankDecomposition decomp(dims, kSplit, kRanks, layout);
  std::vector<std::vector<Field>> xs(kRanks);
  std::vector<std::vector<SolverResult>> results(kRanks);
  for (int r = 0; r < kRanks; ++r)
    for (int c = 0; c < 2; ++c) {
      xs[static_cast<std::size_t>(r)].emplace_back(decomp.grid(r));
      xs[static_cast<std::size_t>(r)].back().set_zero();
    }

  set_force_serial(true);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r)
    threads.emplace_back([&, r] {
      qcd::GaugeField<S> u_local(decomp.grid(r));
      for (int mu = 0; mu < lattice::Nd; ++mu)
        u_local.U[static_cast<std::size_t>(mu)] = comms::scatter_rank(
            decomp, gauge.U[static_cast<std::size_t>(mu)], r);
      comms::DistributedWilsonDirac<S> op(decomp, world.rank(r), r, u_local, kMass);
      WilsonSolver<S> ws(op, dparams);
      std::vector<Field> b_local;
      for (std::size_t c = 0; c < 2; ++c)
        b_local.push_back(comms::scatter_rank(decomp, b[c], r));
      results[static_cast<std::size_t>(r)] =
          ws.solve_batched(b_local, xs[static_cast<std::size_t>(r)]);
    });
  for (std::thread& t : threads) t.join();
  set_force_serial(false);

  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      const SolverResult& res = results[static_cast<std::size_t>(r)][c];
      EXPECT_EQ(res.block_width, 1) << "rank " << r << " col " << c;
      EXPECT_TRUE(results_identical(res, r_ref[c]))
          << "rank " << r << " col " << c << ": " << res.summary() << " vs "
          << r_ref[c].summary();
      EXPECT_EQ(norm2(xs[static_cast<std::size_t>(r)][c] -
                      comms::scatter_rank(decomp, x_ref[c], r)),
                0.0)
          << "rank " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace svelat::solver
