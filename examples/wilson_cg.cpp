// Wilson solver workload: the paper's motivating computation (Sec. II-A) --
// an iterative solve against the Wilson Dirac operator on a random gauge
// background, driven through the WilsonSolver facade.
//
// Usage: ./examples/wilson_cg [L] [T] [mass] [tol] [vl_bits] [alg] [precond]
//   defaults:                  4   8   0.2    1e-8  512       cg    schur
//   alg:     cg | bicgstab | mixed
//   precond: schur | none  (none runs cg only)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/svelat.h"

namespace {

using namespace svelat;

template <std::size_t VLB>
int run(int L, int T, double mass, const solver::SolverParams& params) {
  using S = simd::SimdComplex<double, VLB, simd::SveFcmla>;

  lattice::GridCartesian grid({L, L, L, T},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  std::printf("lattice %s | VL %zu bit | mass %.3f | %s/%s | tol %.1e\n",
              lattice::to_string(grid.fdimensions()).c_str(), 8 * VLB, mass,
              solver::to_string(params.algorithm),
              solver::to_string(params.preconditioner), params.tolerance);

  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  std::printf("plaquette %.6f\n", qcd::average_plaquette(gauge));

  qcd::LatticeFermion<S> b(&grid), x(&grid);
  gaussian_fill(SiteRNG(7), b);
  x.set_zero();

  solver::WilsonSolver<S> solver(gauge, mass, params);
  StopWatch sw;
  sve::CounterScope insns;
  const auto stats = solver.solve(b, x);
  const double secs = sw.seconds();

  std::printf("%s in %.2f s\n", stats.summary().c_str(), secs);
  std::printf("|b| %.6e -> |x| %.6e\n", stats.rhs_norm, stats.solution_norm);

  // Rough Dslash work estimate: every outer iteration applies the hopping
  // term to one full lattice volume's worth of sites (two half-volume hops
  // per Schur operator application, two operator applications per step),
  // plus the single-precision inner iterations of a mixed solve.
  const double effective_iters = stats.iterations + stats.inner_iterations;
  const double flops =
      2.0 * qcd::kDhopFlopsPerSite * static_cast<double>(grid.gsites()) * effective_iters;
  std::printf("simulated Dslash work: %.2f MFlop (%.2f MFlop/s wall on the simulator)\n",
              flops / 1e6, flops / 1e6 / secs);
  std::printf("simulated instruction mix:\n%s", insns.delta().report().c_str());

  // Convergence curve (every 10th outer iteration).
  std::printf("\nresidual history (|r|/|b|):\n");
  for (std::size_t i = 0; i < stats.residual_history.size(); i += 10)
    std::printf("  iter %4zu  %.3e\n", i, stats.residual_history[i]);
  return stats.converged ? 0 : 1;
}

constexpr const char* kUsage =
    "usage: wilson_cg [L] [T] [mass] [tol] [vl_bits] [cg|bicgstab|mixed] [schur|none]"
    " (none runs cg only)\n";

}  // namespace

int main(int argc, char** argv) {
  const int L = argc > 1 ? std::atoi(argv[1]) : 4;
  const int T = argc > 2 ? std::atoi(argv[2]) : 8;
  const double mass = argc > 3 ? std::atof(argv[3]) : 0.2;
  const double tol = argc > 4 ? std::atof(argv[4]) : 1e-8;
  const unsigned vl = argc > 5 ? static_cast<unsigned>(std::atoi(argv[5])) : 512;

  solver::SolverParams params;
  params.tolerance = tol;
  params.max_iterations = 2000;
  if (argc > 6) {
    if (std::strcmp(argv[6], "cg") == 0) {
      params.algorithm = solver::Algorithm::kCG;
    } else if (std::strcmp(argv[6], "bicgstab") == 0) {
      params.algorithm = solver::Algorithm::kBiCGSTAB;
    } else if (std::strcmp(argv[6], "mixed") == 0) {
      params.algorithm = solver::Algorithm::kMixedCG;
    } else {
      std::fprintf(stderr, "alg must be cg, bicgstab or mixed\n");
      return 2;
    }
  }
  if (argc > 7) {
    if (std::strcmp(argv[7], "schur") == 0) {
      params.preconditioner = solver::Preconditioner::kSchurEvenOdd;
    } else if (std::strcmp(argv[7], "none") == 0) {
      params.preconditioner = solver::Preconditioner::kNone;
    } else {
      std::fprintf(stderr, "precond must be schur or none\n");
      return 2;
    }
  }
  if (!solver::supported(params.algorithm, params.preconditioner)) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  svelat::sve::set_vector_length(vl);
  switch (vl) {
    case 128: return run<svelat::simd::kVLB128>(L, T, mass, params);
    case 256: return run<svelat::simd::kVLB256>(L, T, mass, params);
    case 512: return run<svelat::simd::kVLB512>(L, T, mass, params);
    default:
      std::fprintf(stderr, "vl_bits must be 128, 256 or 512 (paper Sec. V-B)\n");
      return 2;
  }
}
