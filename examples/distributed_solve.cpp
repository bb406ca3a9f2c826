// Distributed Wilson solve across real OS processes, with compute/comms
// overlap.
//
// A launcher forks one process per rank (full socket mesh, comms/socket.h).
// Rank 0 builds a global gauge configuration and right-hand side and
// scatters them over the wire; every rank constructs the halo-exchanged
// Wilson operator (comms/distributed_wilson.h) over its sub-lattice and
// runs the SAME WilsonSolver facade, and the same default configuration
// (CG x SchurEvenOdd), a single-rank solve uses.  Inside each parity sweep
// the half faces are posted first and the interior swept while they are in
// flight; the per-phase wall clock ("dhop_interior", "dhop_wire_wait",
// "dhop_faces") is printed so the overlap is visible.
//
// The gathered solution is checked bitwise against a single-rank
// WilsonSolver with the same configuration on the gathered fields: the
// exact ring reductions make the distributed iteration sequence -- every
// alpha, beta and residual -- identical to the single-rank one, so with an
// uncompressed wire the solutions must match bit for bit.  An fp16 wire
// perturbs the exchanged faces; the solve still converges and is checked
// against a wire-dependent bound.
//
// Build & run:
//   cmake --build build --target distributed_solve
//   ./build/examples/distributed_solve [ranks=2] [L=4] [T=8] [wire=none|f32|f16]
//                                      [--log-dir=DIR]
//
// Exit code 0 iff every rank process exited cleanly and all checks passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "core/svelat.h"
#include "solver/solver.h"
#include "support/metrics.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

constexpr unsigned kVL = 256;
constexpr int kSplitDim = 3;  // distribute the time extent
constexpr int kSeed = 2018;
constexpr double kMass = 0.25;
constexpr double kTol = 1e-8;

lattice::Coordinate pick_layout(const lattice::Coordinate& dims) {
  return comms::split_simd_layout(dims, kSplitDim, S::Nsimd());
}

void print_region(const char* name) {
  const metrics::RegionStats st = metrics::get(name);
  if (st.calls == 0) return;
  std::printf("  %-16s %6llu calls  %8.1f ms total  %6.1f us/call\n", name,
              static_cast<unsigned long long>(st.calls), st.seconds * 1e3,
              st.seconds / static_cast<double>(st.calls) * 1e6);
}

/// Everything one rank process does: receive its slab, build the
/// overlapped operator, solve, hand the slab back for the global check.
int rank_body(int rank, comms::SocketCommunicator& comm,
              const lattice::Coordinate& dims, comms::Compression mode) {
  sve::set_vector_length(kVL);
  const lattice::Coordinate layout = pick_layout(dims);
  const comms::RankDecomposition decomp(dims, kSplitDim, comm.size(), layout);
  lattice::GridCartesian global_grid(dims, layout);

  // Rank 0 builds the global problem; the wire distributes it.
  std::unique_ptr<Field> global_b;
  std::unique_ptr<qcd::GaugeField<S>> global_gauge;
  if (rank == 0) {
    global_gauge = std::make_unique<qcd::GaugeField<S>>(&global_grid);
    qcd::random_gauge(SiteRNG(kSeed + 1), *global_gauge);
    global_b = std::make_unique<Field>(&global_grid);
    gaussian_fill(SiteRNG(kSeed), *global_b);
    std::printf("rank 0: scattering %lld sites over %d ranks (%lld sites each)\n",
                static_cast<long long>(global_grid.gsites()), comm.size(),
                static_cast<long long>(decomp.grid(0)->gsites()));
  }
  qcd::GaugeField<S> gauge(decomp.grid(rank));
  for (int mu = 0; mu < lattice::Nd; ++mu)
    comms::scatter_root(decomp, comm, rank,
                        rank == 0 ? &global_gauge->U[static_cast<std::size_t>(mu)]
                                  : nullptr,
                        gauge.U[static_cast<std::size_t>(mu)]);
  Field b(decomp.grid(rank));
  comms::scatter_root(decomp, comm, rank, global_b.get(), b);

  // The overlapped operator under the standard solver facade, default
  // configuration (the reference below uses the same one).
  const solver::SolverParams params = solver::SolverParams{}
                                          .with_algorithm(solver::Algorithm::kCG)
                                          .with_tolerance(kTol)
                                          .with_max_iterations(2000);
  comms::DistributedWilsonDirac<S> op(decomp, comm, rank, gauge, kMass, mode);
  solver::WilsonSolver<S> solver(op, params);
  Field x(decomp.grid(rank));
  x.set_zero();
  comm.reset_counters();
  const solver::SolverResult res = solver.solve(b, x);
  std::printf("rank %d: %s  halo bytes=%zu\n", rank, res.summary().c_str(),
              comm.bytes_sent());
  if (!res.converged) return 3;

  // Overlap phases: interior compute vs wire wait vs boundary sweep.
  if (rank == 0) {
    std::printf("rank 0 overlap phases:\n");
    for (const char* region :
         {"dhop_interior", "dhop_wire_wait", "dhop_faces", "cshift_pack", "solve"})
      print_region(region);
  }

  // Gather the solution and check against the single-rank facade.
  std::unique_ptr<Field> gathered;
  if (rank == 0) {
    gathered = std::make_unique<Field>(&global_grid);
    gathered->set_zero();
  }
  comms::gather_root(decomp, comm, rank, x, gathered.get());
  if (rank == 0) {
    solver::WilsonSolver<S> ref_solver(*global_gauge, kMass, params);
    Field x_ref(&global_grid);
    x_ref.set_zero();
    const solver::SolverResult ref = ref_solver.solve(*global_b, x_ref);
    if (!ref.converged) return 4;
    std::printf("path: %s x %s on %d ranks and on the single-rank reference\n",
                solver::to_string(res.algorithm), solver::to_string(res.preconditioner),
                comm.size());
    const double diff2 = norm2(*gathered - x_ref);
    if (mode == comms::Compression::kNone) {
      const Field& xg = *gathered;
      bool bitwise = res.iterations == ref.iterations;
      for (std::int64_t o = 0; o < x_ref.osites(); ++o)
        bitwise = bitwise && std::memcmp(&xg[o], &x_ref[o], sizeof(x_ref[o])) == 0;
      std::printf("distributed vs single-rank: |dx|^2 = %.3e, iterations %d vs %d  %s\n",
                  diff2, res.iterations, ref.iterations,
                  bitwise ? "bitwise OK" : "MISMATCH");
      if (!bitwise) return 5;
    } else {
      // The compressed wire solves a slightly different (perturbed)
      // operator: the solutions agree to the wire epsilon amplified by
      // the system's conditioning, not to solver tolerance.
      const double bound = mode == comms::Compression::kF16 ? 1e-3 : 1e-6;
      const double rel = std::sqrt(diff2 / norm2(x_ref));
      std::printf("distributed (%s wire) vs single-rank: rel err %.3e  %s\n",
                  comms::compression_name(mode), rel,
                  rel < bound ? "OK" : "MISMATCH");
      if (rel >= bound) return 5;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = 2;
  int L = 4;
  int T = 8;
  comms::Compression mode = comms::Compression::kNone;
  comms::LaunchOptions options;

  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--log-dir=", 0) == 0) {
      options.log_dir = arg.substr(10);
    } else if (arg == "none" || arg == "f32" || arg == "f16") {
      mode = arg == "none" ? comms::Compression::kNone
             : arg == "f32" ? comms::Compression::kF32
                            : comms::Compression::kF16;
    } else {
      const int v = std::atoi(arg.c_str());
      if (v <= 0) {
        std::fprintf(stderr,
                     "usage: %s [ranks] [L] [T] [none|f32|f16] [--log-dir=DIR]\n",
                     argv[0]);
        return 2;
      }
      if (pos == 0) ranks = v;
      else if (pos == 1) L = v;
      else if (pos == 2) T = v;
      ++pos;
    }
  }
  const lattice::Coordinate dims{L, L, L, T};
  if (T % ranks != 0) {
    std::fprintf(stderr, "T=%d must divide evenly over %d ranks\n", T, ranks);
    return 2;
  }

  std::printf("distributed_solve: %d rank processes, %dx%dx%dx%d lattice, %s wire\n",
              ranks, L, L, L, T, comms::compression_name(mode));

  const comms::LaunchReport report = comms::run_ranks(
      ranks,
      [&](int rank, comms::SocketCommunicator& comm) {
        return rank_body(rank, comm, dims, mode);
      },
      options);

  std::printf("%s\n", report.describe().c_str());
  std::printf("%s\n", report.ok ? "PASS" : "FAIL");
  return report.ok ? 0 : 1;
}
