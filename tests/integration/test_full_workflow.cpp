// Integration test: the full production pipeline across every layer.
//
//   Metropolis thermalization -> gauge observables -> Wilson operator ->
//   WilsonSolver facade (every algorithm) -> propagator physics -- all on
//   the SVE simulator, with cross-layout reproducibility checks along the
//   way.
#include <gtest/gtest.h>

#include "core/svelat.h"
#include "qcd/metropolis.h"
#include "qcd/observables.h"
#include "qcd/propagator.h"

namespace svelat {
namespace {

using Sd = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Sf = simd::SimdComplex<float, simd::kVLB512, simd::SveFcmla>;
using Fermion = qcd::LatticeFermion<Sd>;

class FullWorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 4},
        lattice::GridCartesian::default_simd_layout(Sd::Nsimd()));
    gauge_ = std::make_unique<qcd::GaugeField<Sd>>(grid_.get());
    qcd::random_gauge(SiteRNG(2018), *gauge_);

    // Thermalize briefly at moderate coupling.
    qcd::MetropolisParams params;
    params.beta = 6.0;
    params.epsilon = 0.24;
    params.seed = 99;
    for (int sweep = 0; sweep < 3; ++sweep) qcd::metropolis_sweep(*gauge_, params, sweep);
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<qcd::GaugeField<Sd>> gauge_;
};

TEST_F(FullWorkflowTest, ThermalizedConfigurationIsOrderedAndUnitary) {
  const double plaq = qcd::average_plaquette(*gauge_);
  EXPECT_GT(plaq, 0.15);  // moved away from strong coupling
  EXPECT_LT(plaq, 1.0);
  // Links still on the group manifold after the MC updates.
  for (int mu = 0; mu < lattice::Nd; ++mu) {
    const auto s = gauge_->U[mu].peek({1, 2, 3, 0});
    qcd::ScalarColourMatrix m;
    for (int i = 0; i < qcd::Nc; ++i)
      for (int j = 0; j < qcd::Nc; ++j) m(i, j) = s(i, j);
    EXPECT_LT(qcd::unitarity_error(m), 1e-12);
  }
  // W(1,1) equals the plaquette on the same configuration.
  EXPECT_NEAR(qcd::average_wilson_loop(*gauge_, 1, 1), plaq, 1e-12);
}

TEST_F(FullWorkflowTest, AllSolversAgreeOnThermalizedBackground) {
  // Every facade algorithm on the same thermalized background; the inner
  // scalar of the mixed solve (Sf) is derived by the facade itself.
  static_assert(std::is_same_v<solver::WilsonSolver<Sd>::InnerScalar, Sf>);
  const double mass = 0.25, tol = 1e-9;
  Fermion b(grid_.get());
  gaussian_fill(SiteRNG(5), b);

  using solver::Algorithm;
  using solver::Preconditioner;
  using solver::SolverParams;
  const auto base = SolverParams{}.with_tolerance(tol).with_max_iterations(800);
  solver::WilsonSolver<Sd> cg(*gauge_, mass,
                              SolverParams{base}.with_preconditioner(
                                  Preconditioner::kNone));
  solver::WilsonSolver<Sd> schur(*gauge_, mass, base);
  solver::WilsonSolver<Sd> bicg(*gauge_, mass,
                                SolverParams{base}.with_algorithm(Algorithm::kBiCGSTAB));
  solver::WilsonSolver<Sd> mixed(*gauge_, mass,
                                 SolverParams{base}.with_algorithm(Algorithm::kMixedCG));

  Fermion x_cg(grid_.get()), x_schur(grid_.get()), x_bicg(grid_.get()),
      x_mixed(grid_.get());
  x_cg.set_zero();
  x_bicg.set_zero();
  x_mixed.set_zero();

  const auto s_cg = cg.solve(b, x_cg);
  const auto s_schur = schur.solve(b, x_schur);
  const auto s_bicg = bicg.solve(b, x_bicg);
  const auto s_mixed = mixed.solve(b, x_mixed);
  ASSERT_TRUE(s_cg.converged);
  ASSERT_TRUE(s_schur.converged);
  ASSERT_TRUE(s_bicg.converged);
  ASSERT_TRUE(s_mixed.converged);

  EXPECT_LT(norm2(x_schur - x_cg) / norm2(x_cg), 1e-13);
  EXPECT_LT(norm2(x_bicg - x_cg) / norm2(x_cg), 1e-13);
  EXPECT_LT(norm2(x_mixed - x_cg) / norm2(x_cg), 1e-13);
  EXPECT_LT(s_schur.iterations, s_cg.iterations);  // preconditioning pays off
}

TEST_F(FullWorkflowTest, WorkflowReproducibleAcrossVectorLengths) {
  // Re-run thermalization + one solve at VL 128 / generic backend: the
  // plaquette history and the solve iteration count must match.
  const double plaq_512 = qcd::average_plaquette(*gauge_);
  Fermion b(grid_.get()), x(grid_.get());
  gaussian_fill(SiteRNG(5), b);
  x.set_zero();
  const qcd::WilsonDirac<Sd> dirac(*gauge_, 0.25);
  const auto s512 = solver::solve_wilson(dirac, b, x, 1e-8, 600);

  using S128 = simd::SimdComplex<double, simd::kVLB128, simd::Generic>;
  sve::VLGuard vl(128);
  lattice::GridCartesian g128({4, 4, 4, 4},
                              lattice::GridCartesian::default_simd_layout(S128::Nsimd()));
  qcd::GaugeField<S128> gauge128(&g128);
  qcd::random_gauge(SiteRNG(2018), gauge128);
  qcd::MetropolisParams params;
  params.beta = 6.0;
  params.epsilon = 0.24;
  params.seed = 99;
  for (int sweep = 0; sweep < 3; ++sweep) qcd::metropolis_sweep(gauge128, params, sweep);
  EXPECT_NEAR(qcd::average_plaquette(gauge128), plaq_512, 1e-12);

  qcd::LatticeFermion<S128> b128(&g128), x128(&g128);
  gaussian_fill(SiteRNG(5), b128);
  x128.set_zero();
  const qcd::WilsonDirac<S128> dirac128(gauge128, 0.25);
  const auto s128 = solver::solve_wilson(dirac128, b128, x128, 1e-8, 600);
  EXPECT_EQ(s128.iterations, s512.iterations);
}

TEST_F(FullWorkflowTest, PionCorrelatorOnThermalizedGauge) {
  solver::WilsonSolver<Sd> solver(
      *gauge_, 0.5,
      solver::SolverParams{}.with_tolerance(1e-8).with_max_iterations(600));
  qcd::Propagator<Sd> prop(grid_.get());
  const auto report = qcd::compute_propagator(solver, {0, 0, 0, 0}, prop);
  ASSERT_TRUE(report.all_converged());
  EXPECT_LT(report.worst_true_residual(), 1e-7);
  const auto corr = qcd::pion_correlator(prop);
  // Positivity is exact (the pion correlator is a sum of |G|^2 even on a
  // single configuration); time-reflection symmetry only holds in the
  // ensemble average, so here we check positivity and source dominance.
  for (double c : corr) EXPECT_GT(c, 0.0);
  for (std::size_t t = 1; t < corr.size(); ++t) EXPECT_LT(corr[t], corr[0]) << t;
  // Same order of magnitude across the reflection (single-config
  // fluctuations, not orders of magnitude).
  EXPECT_LT(corr[1] / corr[3], 50.0);
  EXPECT_LT(corr[3] / corr[1], 50.0);
}

}  // namespace
}  // namespace svelat
