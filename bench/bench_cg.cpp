// E2 -- CG time-to-solution (the paper's Sec. II-A motivation: iterative
// solvers dominate LQCD runtime).  Solves M x = b through the
// WilsonSolver facade on a random gauge background for every vector
// length and backend; verifies the iteration count is layout-independent
// and reports simulated Dslash throughput.
//
// Second section: the production half-checkerboard Schur CG (facade
// defaults) on the same problem, with its instructions and iterations per
// solve; check_insns.py gates its instructions per iteration, and its
// iteration count, against bench/baseline.json.  The exit code gates the
// Schur solution against the unpreconditioned facade solve (drift here
// means a correctness bug, not a perf one).
//
// Two more sections solve the same problem with kBiCGSTAB x kSchurEvenOdd
// (BiCGSTAB on Mhat at N = 1) and with kMixedCG x kSchurEvenOdd (fp32
// Schur solves inside a double defect correction) and report their
// instructions per solve and iterations; check_insns.py gates both
// instruction counts against bench/baseline.json, and the exit code
// requires both solves to converge.
//
// `--json` prints a machine-readable summary (consumed by CI artifacts
// and bench/baseline.json) instead of the human tables; it includes the
// SolverParams each section ran with.  Every machine-dependent figure
// sits in its `wall_clock` object: solves/s, the hop sweeps' GB/s from
// their traffic model, the solver linear algebra's seconds and the
// multi-RHS timings.  Everything outside it is deterministic.
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "core/svelat.h"
#include "support/metrics.h"

namespace {

using namespace svelat;

struct Row {
  unsigned vl;
  const char* backend;
  int iterations;
  double seconds;
  double true_residual;
  double mflops;
};

/// Facade params of the full-lattice CG section (algorithm comparison
/// baseline: unpreconditioned normal equations).
solver::SolverParams full_cg_params() {
  return solver::SolverParams{}
      .with_preconditioner(solver::Preconditioner::kNone)
      .with_tolerance(1e-8)
      .with_max_iterations(1000);
}

/// Facade params of the Schur section: production defaults at the bench
/// tolerance.
solver::SolverParams schur_params() {
  return solver::SolverParams{}.with_tolerance(1e-8).with_max_iterations(1000);
}

template <typename S>
Row run(const char* backend) {
  sve::VLGuard vl(8 * S::vlb);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  qcd::LatticeFermion<S> b(&grid), x(&grid);
  gaussian_fill(SiteRNG(6), b);
  x.set_zero();

  solver::WilsonSolver<S> solver(gauge, 0.2, full_cg_params());
  StopWatch sw;
  const auto stats = solver.solve(b, x);
  const double secs = sw.seconds();
  const double flops = 2.0 * qcd::kDhopFlopsPerSite *
                       static_cast<double>(grid.gsites()) * stats.iterations;
  return {static_cast<unsigned>(8 * S::vlb), backend, stats.iterations, secs,
          stats.true_residual, flops / 1e6 / secs};
}

struct SchurRow {
  unsigned vl;
  int half_iterations;
  double half_insns_per_iter;  ///< the whole solve's instructions per iteration
  double solution_delta;       ///< |x_schur - x_full|^2 / |x_full|^2
};

/// Half-checkerboard Schur CG through the facade, at one vector length,
/// against the unpreconditioned solve's solution.
template <typename S>
SchurRow run_schur() {
  sve::VLGuard vl(8 * S::vlb);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  qcd::LatticeFermion<S> b(&grid), x_full(&grid), x_half(&grid);
  gaussian_fill(SiteRNG(6), b);
  x_full.set_zero();
  x_half.set_zero();

  SchurRow c{};
  c.vl = static_cast<unsigned>(8 * S::vlb);
  {
    solver::WilsonSolver<S> schur(gauge, 0.2, schur_params());
    sve::CounterScope scope;
    const auto stats = schur.solve(b, x_half);
    c.half_iterations = stats.iterations;
    c.half_insns_per_iter =
        static_cast<double>(scope.delta().total()) / stats.iterations;
  }
  {
    solver::WilsonSolver<S> full(gauge, 0.2, full_cg_params());
    (void)full.solve(b, x_full);
  }
  c.solution_delta = norm2(x_half - x_full) / norm2(x_full);
  return c;
}

/// Facade params of the BiCGSTAB section: the Schur section's, with
/// kBiCGSTAB.
solver::SolverParams bicgstab_params() {
  return schur_params().with_algorithm(solver::Algorithm::kBiCGSTAB);
}

/// Facade params of the mixed-precision section: the Schur section's,
/// with kMixedCG.
solver::SolverParams mixed_params() {
  return schur_params().with_algorithm(solver::Algorithm::kMixedCG);
}

struct SolveRow {
  unsigned vl;
  double insns_per_solve;
  int iterations;        ///< kMixedCG: restarts
  int inner_iterations;  ///< kMixedCG's fp32 iterations
  bool converged;
};

/// One solve of the Schur section's problem with `params`.
template <typename S>
SolveRow run_solve(const solver::SolverParams& params) {
  sve::VLGuard vl(8 * S::vlb);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  qcd::LatticeFermion<S> b(&grid), x(&grid);
  gaussian_fill(SiteRNG(6), b);
  x.set_zero();
  solver::WilsonSolver<S> ws(gauge, 0.2, params);
  sve::CounterScope scope;
  const auto stats = ws.solve(b, x);
  return {static_cast<unsigned>(8 * S::vlb), static_cast<double>(scope.delta().total()),
          stats.iterations, stats.inner_iterations, stats.converged};
}

// ===== multi-RHS block engine (WilsonSolver::solve_batched) ===============
//
// Third section: 12 right-hand sides against one gauge configuration --
// the propagator workload -- 12 facade solve() calls (the Schur engine at
// N = 1) vs ONE batched solve (N = 12), fixed work on both paths
// (tolerance 0, a hard iteration cap).  The batched sweep loads each
// gauge link once for all 12 columns; no counter measures the memory
// traffic that saves yet (ROADMAP's cache-model item).
//
// GATES (deterministic, identical across machines, per this repo's
// "wall clock is never gated" invariant):
//  - every batched column's solution bitwise equal to solve() of it;
//  - a width-1 batch bitwise equal to the facade solve.
//
// The wall-clock comparison itself (solves/s both paths, speedup, GB/s
// by width) is OBSERVABILITY, printed inside the `wall_clock` JSON
// object.  The instruction simulator interprets every per-column
// operation identically on both paths (the bitwise contract), so the
// speedup reflects the host that runs it, not an SVE core's traffic.

struct MultiRhsWidthRow {
  int width;
  double gb_per_sec;  ///< batched dhop wall-clock rate (modelled bytes)
};

struct MultiRhsSection {
  int columns = 0;
  int iterations = 0;  ///< fixed per-column iteration count (both paths)
  double seq_seconds = 0.0;
  double batched_seconds = 0.0;
  double seq_solves_per_sec = 0.0;
  double batched_solves_per_sec = 0.0;
  double speedup = 0.0;          ///< seq_seconds / batched_seconds
  bool columns_bitwise = false;  ///< every batched column byte-equal to its solve()
  bool n1_bitwise = false;
  MultiRhsWidthRow widths[3] = {};
};

/// Fixed-work params of the multi-RHS comparison: tolerance 0 never
/// converges, so both paths run exactly `iters` CG iterations per column.
solver::SolverParams multi_rhs_params(int iters) {
  return solver::SolverParams{}.with_tolerance(0.0).with_max_iterations(iters);
}

/// Batched dhop throughput at one block width: repeated Mhat sweeps over
/// a DRAM-resident block field, rated by the dhop_*_block regions'
/// amortized traffic model.  Resets the metrics registry around itself.
template <typename S, int N>
MultiRhsWidthRow measure_block_dhop_width(const qcd::SchurEvenOddWilson<S>& eo) {
  qcd::BlockSchurEvenOddWilson<S, N> beo(eo);
  qcd::HalfBlockFermion<S, N> in(eo.even_grid()), out(eo.even_grid());
  {
    qcd::HalfLatticeFermion<S> tmp(eo.even_grid());
    for (int j = 0; j < N; ++j) {
      gaussian_fill(SiteRNG(60 + static_cast<unsigned>(j)), tmp);
      in.copy_in_column(j, tmp);
    }
  }
  beo.mhat(in, out);  // warm-up: page faults, stencil tables
  metrics::reset();
  constexpr int kReps = 3;
  for (int r = 0; r < kReps; ++r) beo.mhat(in, out);
  const double gb = metrics::gb_per_sec({"dhop_eo_block", "dhop_oe_block"});
  metrics::reset();
  return {N, gb};
}

/// Width-1 batched solve vs the facade solve, small lattice: a width-1
/// batch runs solve() on its column, BITWISE, checked in the bench so the
/// perf gate can never drift away from the correctness one.
template <typename S>
bool check_n1_bitwise() {
  sve::VLGuard vl(8 * S::vlb);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  std::vector<qcd::LatticeFermion<S>> b(1, qcd::LatticeFermion<S>(&grid));
  std::vector<qcd::LatticeFermion<S>> xb(1, qcd::LatticeFermion<S>(&grid));
  qcd::LatticeFermion<S> xs(&grid);
  gaussian_fill(SiteRNG(6), b[0]);
  xb[0].set_zero();
  xs.set_zero();
  solver::WilsonSolver<S> batched(gauge, 0.2, schur_params());
  solver::WilsonSolver<S> sequential(gauge, 0.2, schur_params());
  const auto rb = batched.solve_batched(b, xb)[0];
  const auto rs = sequential.solve(b[0], xs);
  return rb.iterations == rs.iterations && rb.final_residual == rs.final_residual &&
         rb.true_residual == rs.true_residual && norm2(xb[0] - xs) == 0.0;
}

template <typename S>
MultiRhsSection run_multi_rhs() {
  MultiRhsSection m;
  constexpr int kCols = solver::WilsonSolver<S>::kBlockWidth;
  constexpr int kIters = 8;
  m.columns = kCols;
  {
    sve::VLGuard vl(8 * S::vlb);
    lattice::GridCartesian grid(
        {12, 12, 12, 24}, lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    qcd::GaugeField<S> gauge(&grid);
    qcd::random_gauge(SiteRNG(2018), gauge);
    std::vector<qcd::LatticeFermion<S>> b, xs, xb;
    for (int j = 0; j < kCols; ++j) {
      b.emplace_back(&grid);
      gaussian_fill(SiteRNG(40 + static_cast<unsigned>(j)), b.back());
      xs.emplace_back(&grid);
      xs.back().set_zero();
      xb.emplace_back(&grid);
      xb.back().set_zero();
    }
    {
      solver::WilsonSolver<S> seq(gauge, 0.2, multi_rhs_params(kIters));
      StopWatch sw;
      for (int j = 0; j < kCols; ++j) {
        const auto u = static_cast<std::size_t>(j);
        m.iterations = seq.solve(b[u], xs[u]).iterations;
      }
      m.seq_seconds = sw.seconds();
    }
    {
      solver::WilsonSolver<S> bat(gauge, 0.2, multi_rhs_params(kIters));
      StopWatch sw;
      (void)bat.solve_batched(b, xb);
      m.batched_seconds = sw.seconds();
    }
    m.seq_solves_per_sec = kCols / m.seq_seconds;
    m.batched_solves_per_sec = kCols / m.batched_seconds;
    m.speedup = m.seq_seconds / m.batched_seconds;
    m.columns_bitwise = true;
    for (int j = 0; j < kCols; ++j) {
      const auto u = static_cast<std::size_t>(j);
      for (std::int64_t o = 0; o < grid.osites(); ++o)
        m.columns_bitwise = m.columns_bitwise &&
                            std::memcmp(&xb[u][o], &xs[u][o], sizeof(xb[u][o])) == 0;
    }
  }
  {
    // Width sweep on a DRAM-resident volume: measured GB/s by block width.
    sve::VLGuard vl(8 * S::vlb);
    lattice::GridCartesian grid(
        {12, 12, 12, 24}, lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    qcd::GaugeField<S> gauge(&grid);
    qcd::random_gauge(SiteRNG(2018), gauge);
    const qcd::SchurEvenOddWilson<S> eo(gauge, 0.2);
    m.widths[0] = measure_block_dhop_width<S, 1>(eo);
    m.widths[1] = measure_block_dhop_width<S, 4>(eo);
    m.widths[2] = measure_block_dhop_width<S, 12>(eo);
  }
  m.n1_bitwise = check_n1_bitwise<S>();
  return m;
}

/// The `wall_clock` JSON section: REAL elapsed time over every solve of
/// the sections ABOVE the multi-RHS one, the hop sweeps' GB/s from their
/// traffic model and the solver linear algebra's seconds
/// (support/metrics.h).  Machine-dependent by nature -- reported for
/// observability, never gated and never baselined (the instruction gates
/// above are the only acceptance criteria).  Captured into a struct
/// BEFORE the multi-RHS section runs, because that section resets the
/// metrics registry for its own rates.
struct WallClockStats {
  metrics::RegionStats solve;
  double dhop_gb = 0.0;
  double linalg_seconds = 0.0;
  std::string report;  ///< human-readable metrics::report() snapshot
};

WallClockStats capture_wall_clock() {
  WallClockStats w;
  w.solve = metrics::get("solve");
  w.dhop_gb = metrics::gb_per_sec({"dhop", "dhop_eo_block", "dhop_oe_block"});
  for (const char* region : {"cg_linalg", "bicgstab_linalg", "block_cg_linalg"})
    w.linalg_seconds += metrics::get(region).seconds;
  w.report = metrics::report();
  return w;
}

/// EVERY machine-dependent number (all timing, including the multi-RHS
/// comparison and width GB/s rows) must be printed inside this object, so
/// the rest of the JSON stays deterministic.
void print_wall_clock_json(const WallClockStats& w, const MultiRhsSection& m) {
  std::printf(
      "  \"wall_clock\": {\"solves\": %llu, \"seconds\": %.4f, "
      "\"solves_per_sec\": %.4f,\n"
      "    \"dhop\": {\"gb_per_sec\": %.4f},\n",
      static_cast<unsigned long long>(w.solve.calls), w.solve.seconds,
      w.solve.calls_per_sec(), w.dhop_gb);
  std::printf(
      "    \"multi_rhs\": {\"sequential\": {\"seconds\": %.3f, "
      "\"solves_per_sec\": %.4f},\n"
      "      \"batched\": {\"seconds\": %.3f, \"solves_per_sec\": %.4f}, "
      "\"speedup\": %.4f,\n"
      "      \"dhop_widths\": [",
      m.seq_seconds, m.seq_solves_per_sec, m.batched_seconds,
      m.batched_solves_per_sec, m.speedup);
  for (std::size_t i = 0; i < std::size(m.widths); ++i)
    std::printf("{\"width\": %d, \"gb_per_sec\": %.4f}%s", m.widths[i].width,
                m.widths[i].gb_per_sec,
                i + 1 < std::size(m.widths) ? ", " : "");
  std::printf(
      "]},\n"
      "    \"solver_linalg\": {\"seconds\": %.4f}},\n",
      w.linalg_seconds);
}

void print_params_json(const solver::SolverParams& p) {
  std::printf("{\"algorithm\": \"%s\", \"preconditioner\": \"%s\", "
              "\"tolerance\": %g, \"max_iterations\": %d}",
              solver::to_string(p.algorithm), solver::to_string(p.preconditioner),
              p.tolerance, p.max_iterations);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;

  Row rows[] = {
      run<simd::SimdComplex<double, simd::kVLB128, simd::Generic>>("generic"),
      run<simd::SimdComplex<double, simd::kVLB256, simd::Generic>>("generic"),
      run<simd::SimdComplex<double, simd::kVLB512, simd::Generic>>("generic"),
      run<simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>>("sve-fcmla"),
      run<simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>>("sve-fcmla"),
      run<simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>>("sve-fcmla"),
      run<simd::SimdComplex<double, simd::kVLB128, simd::SveReal>>("sve-real"),
      run<simd::SimdComplex<double, simd::kVLB256, simd::SveReal>>("sve-real"),
      run<simd::SimdComplex<double, simd::kVLB512, simd::SveReal>>("sve-real"),
  };
  const SchurRow schur[] = {
      run_schur<simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>>(),
      run_schur<simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>>(),
  };
  const SolveRow bicgstab[] = {
      run_solve<simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>>(
          bicgstab_params()),
      run_solve<simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>>(
          bicgstab_params()),
  };
  const SolveRow mixed[] = {
      run_solve<simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>>(mixed_params()),
      run_solve<simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>>(mixed_params()),
  };
  // Wall-clock stats of the sections above, captured BEFORE the multi-RHS
  // section resets the metrics registry for its own width measurements.
  const WallClockStats wall = capture_wall_clock();
  const MultiRhsSection multi =
      run_multi_rhs<simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>>();

  bool same_iters = true;
  for (const auto& r : rows)
    same_iters = same_iters && (r.iterations == rows[0].iterations);
  // The preconditioned and unpreconditioned solutions must agree: both
  // solves run at tol 1e-8, so the squared relative solution difference
  // sits well below 1e-12.
  bool solutions_agree = true;
  for (const auto& c : schur)
    solutions_agree = solutions_agree && c.solution_delta < 1e-12;
  bool bicgstab_converged = true;
  for (const auto& r : bicgstab) bicgstab_converged = bicgstab_converged && r.converged;
  bool mixed_converged = true;
  for (const auto& r : mixed) mixed_converged = mixed_converged && r.converged;
  // Multi-RHS gates (deterministic; see the section comment): every
  // batched column must equal its single solve bitwise, and width-1
  // batches must delegate bitwise.  Wall clock is reported but never
  // gated.
  const bool multi_columns_agree = multi.columns_bitwise;
  const bool multi_ok = multi_columns_agree && multi.n1_bitwise;

  if (json) {
    std::printf("{\n  \"benchmark\": \"bench_cg\",\n  \"lattice\": [4, 4, 4, 8],\n");
    std::printf("  \"full_cg_params\": ");
    print_params_json(full_cg_params());
    std::printf(",\n  \"full_cg\": [\n");
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      const auto& r = rows[i];
      std::printf("    {\"vl\": %u, \"backend\": \"%s\", \"iterations\": %d, "
                  "\"true_residual\": %.17g}%s\n",
                  r.vl, r.backend, r.iterations, r.true_residual,
                  i + 1 < std::size(rows) ? "," : "");
    }
    std::printf("  ],\n  \"schur_params\": ");
    print_params_json(schur_params());
    std::printf(",\n  \"schur_cg\": [\n");
    for (std::size_t i = 0; i < std::size(schur); ++i) {
      const auto& c = schur[i];
      std::printf("    {\"vl\": %u, \"half_insns_per_iter\": %.1f, "
                  "\"half_iterations\": %d, \"solution_delta\": %.3g}%s\n",
                  c.vl, c.half_insns_per_iter, c.half_iterations, c.solution_delta,
                  i + 1 < std::size(schur) ? "," : "");
    }
    std::printf("  ],\n  \"bicgstab_params\": ");
    print_params_json(bicgstab_params());
    std::printf(",\n  \"bicgstab_schur\": [\n");
    for (std::size_t i = 0; i < std::size(bicgstab); ++i) {
      const auto& r = bicgstab[i];
      std::printf("    {\"vl\": %u, \"insns_per_solve\": %.0f, \"iterations\": %d, "
                  "\"converged\": %s}%s\n",
                  r.vl, r.insns_per_solve, r.iterations, r.converged ? "true" : "false",
                  i + 1 < std::size(bicgstab) ? "," : "");
    }
    std::printf("  ],\n  \"mixed_params\": ");
    print_params_json(mixed_params());
    std::printf(",\n  \"mixed_schur\": [\n");
    for (std::size_t i = 0; i < std::size(mixed); ++i) {
      const auto& r = mixed[i];
      std::printf("    {\"vl\": %u, \"insns_per_solve\": %.0f, \"restarts\": %d, "
                  "\"inner_iterations\": %d, \"converged\": %s}%s\n",
                  r.vl, r.insns_per_solve, r.iterations, r.inner_iterations,
                  r.converged ? "true" : "false", i + 1 < std::size(mixed) ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"multi_rhs\": {\"lattice\": [12, 12, 12, 24], \"columns\": %d, "
        "\"iterations_per_column\": %d,\n"
        "    \"columns_bitwise\": %s, \"n1_bitwise\": %s},\n",
        multi.columns, multi.iterations, multi.columns_bitwise ? "true" : "false",
        multi.n1_bitwise ? "true" : "false");
    print_wall_clock_json(wall, multi);
    std::printf("  \"iterations_layout_independent\": %s,\n"
                "  \"schur_solutions_agree\": %s,\n"
                "  \"bicgstab_converged\": %s,\n"
                "  \"mixed_converged\": %s,\n"
                "  \"multi_rhs_columns_agree\": %s,\n"
                "  \"multi_rhs_n1_bitwise\": %s\n}\n",
                same_iters ? "true" : "false", solutions_agree ? "true" : "false",
                bicgstab_converged ? "true" : "false", mixed_converged ? "true" : "false",
                multi_columns_agree ? "true" : "false",
                multi.n1_bitwise ? "true" : "false");
    return (same_iters && solutions_agree && bicgstab_converged && mixed_converged &&
            multi_ok)
               ? 0
               : 1;
  }

  std::printf("=== E2: CG on the Wilson operator, 4^3 x 8, mass 0.2, tol 1e-8 ===\n\n");
  std::printf("  %-6s %-10s %6s %9s %14s %12s\n", "VL", "backend", "iters", "wall s",
              "true resid", "sim MFlop/s");
  for (const auto& r : rows) {
    std::printf("  %-6u %-10s %6d %9.2f %14.3e %12.1f\n", r.vl, r.backend, r.iterations,
                r.seconds, r.true_residual, r.mflops);
  }
  std::printf("\niteration count layout-independent: %s\n", same_iters ? "yes" : "NO");

  std::printf("\n=== Schur CG (WilsonSolver defaults) ===\n\n");
  std::printf("  %-6s %16s %7s %12s\n", "VL", "insn/iter", "iters", "soln delta");
  for (const auto& c : schur) {
    std::printf("  %-6u %16.1f %7d %12.3g\n", c.vl, c.half_insns_per_iter,
                c.half_iterations, c.solution_delta);
  }
  std::printf("\nSchur and unpreconditioned solutions agree (< 1e-12): %s\n",
              solutions_agree ? "yes" : "NO");

  std::printf("\n=== BiCGSTAB x Schur ===\n\n");
  std::printf("  %-6s %16s %7s %10s\n", "VL", "insn/solve", "iters", "converged");
  for (const auto& r : bicgstab)
    std::printf("  %-6u %16.0f %7d %10s\n", r.vl, r.insns_per_solve, r.iterations,
                r.converged ? "yes" : "NO");

  std::printf("\n=== MixedCG x Schur: fp32 Schur solves in a double defect "
              "correction ===\n\n");
  std::printf("  %-6s %16s %9s %7s %10s\n", "VL", "insn/solve", "restarts", "inner",
              "converged");
  for (const auto& r : mixed)
    std::printf("  %-6u %16.0f %9d %7d %10s\n", r.vl, r.insns_per_solve, r.iterations,
                r.inner_iterations, r.converged ? "yes" : "NO");

  std::printf("\n=== multi-RHS block engine, 12^3 x 24, 12 columns, 8 fixed "
              "iterations ===\n\n");
  std::printf("  sequential: %6.2f s  (%.3f solves/s)\n", multi.seq_seconds,
              multi.seq_solves_per_sec);
  std::printf("  batched:    %6.2f s  (%.3f solves/s)\n", multi.batched_seconds,
              multi.batched_solves_per_sec);
  std::printf("  speedup: %.3fx (observability only -- see bench source)\n",
              multi.speedup);
  std::printf("\n  batched dhop by width (12^3 x 24):\n");
  std::printf("  %-6s %12s\n", "width", "GB/s");
  for (const auto& wr : multi.widths)
    std::printf("  %-6d %12.2f\n", wr.width, wr.gb_per_sec);
  std::printf("\nevery batched column bitwise equals its solve(): %s\n",
              multi_columns_agree ? "yes" : "NO");
  std::printf("width-1 batch bitwise equals facade solve: %s\n",
              multi.n1_bitwise ? "yes" : "NO");

  // Wall-clock observability (machine-dependent, never gated; captured
  // before the multi-RHS section reset the registry).
  std::printf("\n=== wall clock (this machine; not a gate) ===\n\n%s",
              wall.report.c_str());

  return (same_iters && solutions_agree && bicgstab_converged && mixed_converged &&
          multi_ok)
             ? 0
             : 1;
}
