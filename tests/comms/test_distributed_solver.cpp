// Rank-equivalence and fault-tolerance suite for the distributed Wilson
// SOLVER: WilsonSolver over DistributedWilsonDirac runs the N = 1 Schur
// engine on each rank's half slabs and must reproduce the single-rank
// WilsonSolver with the same params bitwise -- solution slab, iteration
// count, full residual history, final and true residual, rhs and solution
// norm -- for CG x Schur and BiCGSTAB x Schur at 1..4 ranks, on the
// simulated transport, an in-process SocketWorld driven by real threads,
// and forked OS processes.  Exactness hinges on two properties pinned
// here: the parity sweep's boundary arithmetic matches the single-rank
// stencil path, and the ring reduction on the half grids reproduces
// parallel_reduce's global summation tree (at 4 ranks, VL 256 and 4^3x8
// each rank holds 32 half sites, so reduction chunks of 64 straddle
// ranks).
//
// Fault tolerance (the ROADMAP soak follow-up): a seeded transient
// schedule under the full solver loop retries to bitwise-identical
// results, and a rank crash mid-solve yields a typed verdict in
// SolverResult::comm_status on the survivor -- never a hang.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "comms/distributed_wilson.h"
#include "comms/faults.h"
#include "comms/socket.h"
#include "lattice/fill.h"
#include "qcd/su3.h"
#include "qcd/types.h"
#include "solver/solver.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "sve/sve.h"

namespace svelat::comms {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;
using solver::Algorithm;
using solver::Preconditioner;
using solver::SolverParams;
using solver::SolverResult;
using solver::WilsonSolver;

constexpr unsigned kVL = 256;
constexpr int kSeed = 1234;
constexpr double kMass = 0.25;
constexpr double kTol = 1e-8;
const lattice::Coordinate kDims{4, 4, 4, 8};
constexpr int kSplit = 3;  // exact reductions need the slowest dimension

lattice::Coordinate layout() { return split_simd_layout(kDims, kSplit, S::Nsimd()); }

/// Deterministic global problem, identical in every process and thread.
struct Problem {
  lattice::GridCartesian grid;
  qcd::GaugeField<S> gauge;
  Field b;

  Problem() : grid(kDims, layout()), gauge(&grid), b(&grid) {
    qcd::random_gauge(SiteRNG(42), gauge);  // unitary links: well-conditioned
    gaussian_fill(SiteRNG(kSeed), b);
  }
};

constexpr Algorithm kAlgorithms[] = {Algorithm::kCG, Algorithm::kBiCGSTAB};

/// The default configuration (kSchurEvenOdd, the only distributed
/// preconditioner) with the given algorithm.
SolverParams params(Algorithm alg) {
  return SolverParams{}
      .with_algorithm(alg)
      .with_tolerance(kTol)
      .with_max_iterations(2000);
}

/// The single-rank oracle on the SAME simd layout the ranks use (the
/// reduction tree depends on the layout, so this is what "bitwise equal"
/// must be measured against).
SolverResult reference_solve(const Problem& p, Algorithm alg, Field& x) {
  WilsonSolver<S> ref(p.gauge, kMass, params(alg));
  x.set_zero();
  return ref.solve(p.b, x);
}

qcd::GaugeField<S> rank_gauge(const RankDecomposition& decomp,
                              const qcd::GaugeField<S>& global, int rank) {
  qcd::GaugeField<S> local(decomp.grid(rank));
  for (int mu = 0; mu < lattice::Nd; ++mu)
    local.U[static_cast<std::size_t>(mu)] =
        scatter_rank(decomp, global.U[static_cast<std::size_t>(mu)], rank);
  return local;
}

/// One rank's full solve over any transport.  `x_local` must live on the
/// rank's sub-grid; it returns holding the rank's solution slab.
SolverResult rank_solve(const Problem& p, const RankDecomposition& decomp,
                        Communicator& comm, int rank, const SolverParams& sp,
                        Field& x_local, Compression mode = Compression::kNone) {
  const qcd::GaugeField<S> u_local = rank_gauge(decomp, p.gauge, rank);
  const Field b_local = scatter_rank(decomp, p.b, rank);
  DistributedWilsonDirac<S> op(decomp, comm, rank, u_local, kMass, mode);
  WilsonSolver<S> ws(op, sp);
  x_local.set_zero();
  return ws.solve(b_local, x_local);
}

SolverResult rank_solve(const Problem& p, const RankDecomposition& decomp,
                        Communicator& comm, int rank, Algorithm alg,
                        Field& x_local, Compression mode = Compression::kNone) {
  return rank_solve(p, decomp, comm, rank, params(alg), x_local, mode);
}

/// Bitwise agreement of result metadata: the lockstep invariant is that
/// every rank walks the identical iteration sequence.
bool results_identical(const SolverResult& a, const SolverResult& b) {
  if (a.converged != b.converged || a.iterations != b.iterations) return false;
  if (a.residual_history.size() != b.residual_history.size()) return false;
  for (std::size_t i = 0; i < a.residual_history.size(); ++i)
    if (a.residual_history[i] != b.residual_history[i]) return false;
  return a.final_residual == b.final_residual && a.true_residual == b.true_residual &&
         a.rhs_norm == b.rhs_norm && a.solution_norm == b.solution_norm;
}

/// memcmp of every site: blind to nothing, signed zeros included.
bool bytes_equal(const Field& a, const Field& b) {
  if (a.osites() != b.osites()) return false;
  for (std::int64_t o = 0; o < a.osites(); ++o)
    if (std::memcmp(&a[o], &b[o], sizeof(a[o])) != 0) return false;
  return true;
}

TEST(DistributedSolverSim, SingleRankMatchesClassicSolverBitwise) {
  sve::set_vector_length(kVL);
  const Problem p;
  for (const Algorithm alg : kAlgorithms) {
    Field x_ref(&p.grid);
    const SolverResult ref = reference_solve(p, alg, x_ref);
    ASSERT_TRUE(ref.converged);
    EXPECT_EQ(ref.preconditioner, Preconditioner::kSchurEvenOdd);

    const RankDecomposition decomp(kDims, kSplit, 1, layout());
    SimCommunicator comm(1);
    Field x_dist(decomp.grid(0));
    const SolverResult res = rank_solve(p, decomp, comm, 0, alg, x_dist);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.preconditioner, Preconditioner::kSchurEvenOdd);
    EXPECT_TRUE(results_identical(res, ref)) << res.summary() << " vs "
                                             << ref.summary();
    EXPECT_TRUE(bytes_equal(x_dist, x_ref));
    EXPECT_EQ(res.comm_status, CommStatus::kOk);
  }
}

TEST(DistributedSolverSim, SolveBatchedRunsEveryColumnThroughSolve) {
  // A distributed solver has no N-wide engine: solve_batched runs each
  // column through solve() at N = 1, so 13 columns (a full chunk of 12
  // and a remainder on a single-rank solver) all match their solve().
  // Single-threaded: results are thread-count invariant, and 26 solves of
  // tiny site loops spend their time in OpenMP team start-up when ctest
  // runs suites side by side.
  const ThreadCountGuard threads(1);
  sve::set_vector_length(kVL);
  const Problem p;
  const RankDecomposition decomp(kDims, kSplit, 1, layout());
  SimCommunicator comm(1);
  const qcd::GaugeField<S> u_local = rank_gauge(decomp, p.gauge, 0);
  const DistributedWilsonDirac<S> op(decomp, comm, 0, u_local, kMass);
  WilsonSolver<S> ws(op, params(Algorithm::kCG));
  constexpr std::size_t kCols = WilsonSolver<S>::kBlockWidth + 1;
  std::vector<Field> b, x;
  for (std::size_t c = 0; c < kCols; ++c) {
    b.emplace_back(decomp.grid(0));
    gaussian_fill(SiteRNG(kSeed + 1 + static_cast<int>(c)), b.back());
    x.emplace_back(decomp.grid(0));
    x.back().set_zero();
  }
  const std::vector<SolverResult> batched = ws.solve_batched(b, x);
  ASSERT_EQ(batched.size(), kCols);
  for (std::size_t c = 0; c < kCols; ++c) {
    Field xc(decomp.grid(0));
    xc.set_zero();
    const SolverResult single = ws.solve(b[c], xc);
    EXPECT_TRUE(batched[c].converged) << "col " << c;
    EXPECT_EQ(batched[c].block_width, 1) << "col " << c;
    EXPECT_TRUE(results_identical(batched[c], single)) << "col " << c;
    EXPECT_TRUE(bytes_equal(x[c], xc)) << "col " << c;
  }
}

TEST(DistributedSolverThreads, SocketWorldMatchesClassicSolverBitwise) {
  // 2 and 4 ranks inside one process: each rank is a real thread over its
  // SocketWorld endpoint, so posts/recvs genuinely interleave.  Threaded
  // rank bodies run the site loops serially (the deterministic reduction
  // makes serial == threaded bitwise anyway).
  sve::set_vector_length(kVL);
  const Problem p;
  for (const Algorithm alg : kAlgorithms) {
    Field x_ref(&p.grid);
    const SolverResult ref = reference_solve(p, alg, x_ref);
    ASSERT_TRUE(ref.converged);

    for (const int ranks : {2, 4}) {
      SocketWorld world(ranks);
      const RankDecomposition decomp(kDims, kSplit, ranks, layout());
      std::vector<Field> xs;
      xs.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) xs.emplace_back(decomp.grid(r));
      std::vector<SolverResult> results(static_cast<std::size_t>(ranks));

      set_force_serial(true);
      std::vector<std::thread> threads;
      for (int r = 0; r < ranks; ++r)
        threads.emplace_back([&, r] {
          results[static_cast<std::size_t>(r)] =
              rank_solve(p, decomp, world.rank(r), r, alg,
                         xs[static_cast<std::size_t>(r)]);
        });
      for (std::thread& t : threads) t.join();
      set_force_serial(false);

      for (int r = 0; r < ranks; ++r) {
        EXPECT_TRUE(results_identical(results[static_cast<std::size_t>(r)], ref))
            << "alg=" << solver::to_string(alg) << " ranks=" << ranks << " rank=" << r;
        EXPECT_TRUE(bytes_equal(xs[static_cast<std::size_t>(r)],
                                scatter_rank(decomp, x_ref, r)))
            << "alg=" << solver::to_string(alg) << " ranks=" << ranks << " rank=" << r;
      }
    }
  }
}

TEST(DistributedSolverSocket, ForkedRanksMatchClassicSolverBitwise) {
  for (const int ranks : {2, 4}) {
    const LaunchReport report =
        run_ranks(ranks, [&](int rank, SocketCommunicator& comm) {
          sve::set_vector_length(kVL);
          const Problem p;
          const RankDecomposition decomp(kDims, kSplit, ranks, layout());
          for (const Algorithm alg : kAlgorithms) {
            Field x_ref(&p.grid);
            const SolverResult ref = reference_solve(p, alg, x_ref);
            if (!ref.converged) return 2;
            Field x_local(decomp.grid(rank));
            const SolverResult res = rank_solve(p, decomp, comm, rank, alg, x_local);
            if (!res.converged) return 3;
            if (!results_identical(res, ref)) return 4;
            if (!bytes_equal(x_local, scatter_rank(decomp, x_ref, rank))) return 5;
          }
          return 0;
        });
    EXPECT_TRUE(report.ok) << "ranks=" << ranks << ": " << report.describe();
  }
}

TEST(DistributedSolverSocket, F16WireStillConverges) {
  // The compressed wire perturbs only the exchanged faces; the solve must
  // still converge to the requested tolerance (residuals are computed
  // against the operator actually applied).
  const LaunchReport report =
      run_ranks(2, [&](int rank, SocketCommunicator& comm) {
        sve::set_vector_length(kVL);
        const Problem p;
        const RankDecomposition decomp(kDims, kSplit, 2, layout());
        Field x_local(decomp.grid(rank));
        const SolverResult res = rank_solve(p, decomp, comm, rank,
                                            Algorithm::kCG, x_local,
                                            Compression::kF16);
        return res.converged && res.final_residual <= kTol ? 0 : 1;
      });
  EXPECT_TRUE(report.ok) << report.describe();
}

TEST(DistributedSolverFaults, SeededTransientSoakIsBitwiseClean) {
  // The ROADMAP end-to-end soak: a seeded schedule of transient faults
  // (delays, spurious EOFs) under the distributed solver loop.  The retry
  // ladder must absorb every one -- same solution bits, same iteration
  // history as the clean solve, with the schedule provably armed.
  const LaunchReport report =
      run_ranks(2, [&](int rank, SocketCommunicator& socket_comm) {
        sve::set_vector_length(kVL);
        const Problem p;
        const RankDecomposition decomp(kDims, kSplit, 2, layout());

        Field x_clean(decomp.grid(rank));
        const SolverResult clean =
            rank_solve(p, decomp, socket_comm, rank, Algorithm::kCG, x_clean);
        if (!clean.converged) return 2;

        FaultyCommunicator comm(
            socket_comm, FaultSchedule::seeded(7, rank, /*nops=*/48, /*rate=*/6));
        RetryPolicy fast;
        fast.backoff_ms = 1;
        comm.set_retry_policy(fast);
        Field x_faulty(decomp.grid(rank));
        const SolverResult faulty =
            rank_solve(p, decomp, comm, rank, Algorithm::kCG, x_faulty);
        if (!faulty.converged) return 3;
        if (comm.faults_injected() == 0) return 4;  // soak must really fault
        if (!results_identical(faulty, clean)) return 5;
        if (norm2(x_faulty - x_clean) != 0.0) return 6;
        return 0;
      });
  EXPECT_TRUE(report.ok) << report.describe();
}

TEST(DistributedSolverFaults, RankCrashMidSolveYieldsTypedVerdictNotAHang) {
  LaunchOptions opt;
  opt.recv_timeout_ms = 10000;  // the survivor must NOT need this long

  const LaunchReport report = run_ranks(
      2,
      [](int rank, SocketCommunicator& socket_comm) {
        sve::set_vector_length(kVL);
        const Problem p;
        const RankDecomposition decomp(kDims, kSplit, 2, layout());
        if (rank == 1) {
          // SIGKILL self a few exchanges into the solver loop.
          FaultSchedule sched;
          FaultEvent e;
          e.op = FaultOp::kSend;
          e.at = 8;
          e.kind = FaultKind::kCrash;
          sched.events.push_back(e);
          FaultyCommunicator comm(socket_comm, sched);
          Field x_local(decomp.grid(rank));
          (void)rank_solve(p, decomp, comm, rank, Algorithm::kCG, x_local);
          return 9;  // unreachable: the schedule kills this process
        }
        Field x_local(decomp.grid(rank));
        const SolverResult res =
            rank_solve(p, decomp, socket_comm, rank, Algorithm::kCG, x_local);
        // The facade must hand back a typed comm verdict, not converge,
        // not hang, not escape as an exception.
        if (res.converged) return 3;
        if (res.comm_status != CommStatus::kPeerExited) return 4;
        if (res.comm_detail.empty()) return 5;
        return 0;
      },
      opt);

  EXPECT_FALSE(report.ok);  // rank 1 really died
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_FALSE(report.ranks[1].exited);
  EXPECT_EQ(report.ranks[1].term_signal, SIGKILL);
  // The survivor digested the crash into SolverResult and exited clean.
  EXPECT_TRUE(report.ranks[0].exited);
  EXPECT_EQ(report.ranks[0].exit_code, 0) << report.describe();
}

TEST(DistributedSolverMetrics, OverlapPhasesAreObservable) {
  // The acceptance criterion "faces posted before the interior sweep" is
  // pinned structurally: every dhop records one dhop_interior and one
  // dhop_faces region call (the overlap phases) plus the wire wait.
  sve::set_vector_length(kVL);
  metrics::reset();
  const Problem p;
  const RankDecomposition decomp(kDims, kSplit, 1, layout());
  SimCommunicator comm(1);
  Field x(decomp.grid(0));
  const SolverResult res = rank_solve(p, decomp, comm, 0, Algorithm::kCG, x);
  EXPECT_TRUE(res.converged);
  const metrics::RegionStats interior = metrics::get("dhop_interior");
  const metrics::RegionStats faces = metrics::get("dhop_faces");
  const metrics::RegionStats wire = metrics::get("dhop_wire_wait");
  EXPECT_GE(interior.calls, 1u);
  EXPECT_EQ(interior.calls, faces.calls);
  EXPECT_EQ(interior.calls, wire.calls);
  EXPECT_GT(wire.bytes, 0.0);  // wire wait accounts real bytes
  EXPECT_EQ(metrics::get("solve").calls, 1u);
  // The overlapped operator never calls the blocking whole-field path.
  EXPECT_EQ(metrics::get("cshift_unpack").calls, 1u);  // gauge setup only
  metrics::reset();
}

TEST(DistributedSolverMetrics, SchurSolveRunsFivePlusFourSweepsPerIteration) {
  // Every parity sweep of the distributed operator records one
  // dhop_interior call.  A CG x Schur solve of k iterations runs 4k sweeps
  // in the loop and 5 in the driver, as on one rank: the Krylov start and
  // the true residual pay no extra sweep, and no extra face exchange.
  sve::set_vector_length(kVL);
  metrics::reset();
  const Problem p;
  const RankDecomposition decomp(kDims, kSplit, 1, layout());
  SimCommunicator comm(1);
  Field x(decomp.grid(0));
  const SolverResult res = rank_solve(p, decomp, comm, 0, Algorithm::kCG, x);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(metrics::get("dhop_interior").calls,
            5u + 4u * static_cast<std::uint64_t>(res.iterations));
  metrics::reset();
}

TEST(DistributedSolverDeathTest, NoPreconditionerIsRejected) {
  sve::set_vector_length(kVL);
  const Problem p;
  const RankDecomposition decomp(kDims, kSplit, 1, layout());
  SimCommunicator comm(1);
  const qcd::GaugeField<S> u_local = rank_gauge(decomp, p.gauge, 0);
  const DistributedWilsonDirac<S> op(decomp, comm, 0, u_local, kMass);
  EXPECT_DEATH(WilsonSolver<S>(op, params(Algorithm::kCG)
                                       .with_preconditioner(Preconditioner::kNone)),
               "kNone is not supported");
}

TEST(SolverDeathTest, MixedCGWithoutPreconditionerIsRejected) {
  // kMixedCG runs only on the Schur engine, on one rank or none.
  sve::set_vector_length(kVL);
  const Problem p;
  EXPECT_DEATH(WilsonSolver<S>(p.gauge, kMass,
                               params(Algorithm::kMixedCG)
                                   .with_preconditioner(Preconditioner::kNone)),
               "kNone runs kCG only");
}

TEST(DistributedSolverDeathTest, OddLocalSplitExtentIsRejected) {
  // 4^3 x 6 over 2 ranks: each slab is 3 time slices, so rank 1 would
  // start on an odd coordinate and its local parities would be flipped.
  sve::set_vector_length(kVL);
  const lattice::Coordinate dims{4, 4, 4, 6};
  const lattice::Coordinate lay = split_simd_layout(dims, kSplit, S::Nsimd());
  const RankDecomposition decomp(dims, kSplit, 2, lay);
  SimCommunicator comm(2);
  const qcd::GaugeField<S> u_local(decomp.grid(0));
  EXPECT_DEATH(DistributedWilsonDirac<S>(decomp, comm, 0, u_local, kMass),
               "local extent of the split dimension must be even");
}

}  // namespace
}  // namespace svelat::comms
