// Conformance suite of the WilsonSolver facade: every supported algorithm x
// preconditioner combination must converge on a small lattice, return a
// fully-populated SolverResult, agree with the zero-padded test oracle to
// solver tolerance, and *report* (never assert) non-convergence when
// starved of iterations.  The facade rejects every other combination.
#include "solver/solver.h"

#include <gtest/gtest.h>

#include "../qcd/padded_oracle.h"
#include "qcd/qcd.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Fermion = qcd::LatticeFermion<S>;

struct Combo {
  Algorithm algorithm;
  Preconditioner preconditioner;
};

constexpr Combo kAllCombos[] = {
    {Algorithm::kCG, Preconditioner::kNone},
    {Algorithm::kCG, Preconditioner::kSchurEvenOdd},
    {Algorithm::kBiCGSTAB, Preconditioner::kSchurEvenOdd},
    {Algorithm::kMixedCG, Preconditioner::kSchurEvenOdd},
};

/// The combinations solver::supported rejects: kNone runs kCG only.
constexpr Combo kRejectedCombos[] = {
    {Algorithm::kBiCGSTAB, Preconditioner::kNone},
    {Algorithm::kMixedCG, Preconditioner::kNone},
};

std::string combo_name(const Combo& c) {
  return std::string(to_string(c.algorithm)) + "/" + to_string(c.preconditioner);
}

class SolverApiTest : public ::testing::Test {
 protected:
  static constexpr double kMass = 0.25;
  static constexpr double kTol = 1e-9;

  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 8},
        lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    gauge_ = std::make_unique<qcd::GaugeField<S>>(grid_.get());
    qcd::random_gauge(SiteRNG(42), *gauge_);
    b_ = std::make_unique<Fermion>(grid_.get());
    gaussian_fill(SiteRNG(31), *b_);
  }

  SolverParams params_for(const Combo& c) const {
    return SolverParams{}
        .with_algorithm(c.algorithm)
        .with_preconditioner(c.preconditioner)
        .with_tolerance(kTol)
        .with_max_iterations(800);
  }

  /// Starved configuration of a combo: one iteration (for the mixed
  /// algorithm, one inner iteration per restart) at an unreachable
  /// tolerance.
  SolverParams starved_params_for(const Combo& c) const {
    return params_for(c).with_tolerance(1e-14).with_max_iterations(1);
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<qcd::GaugeField<S>> gauge_;
  std::unique_ptr<Fermion> b_;
};

TEST_F(SolverApiTest, ProductionDefaultsAreSchurCG) {
  const SolverParams d;
  EXPECT_EQ(d.algorithm, Algorithm::kCG);
  EXPECT_EQ(d.preconditioner, Preconditioner::kSchurEvenOdd);
  EXPECT_DOUBLE_EQ(d.tolerance, 1e-9);
  EXPECT_EQ(d.max_iterations, 1000);
}

using SolverApiDeathTest = SolverApiTest;

TEST_F(SolverApiDeathTest, UnsupportedCombinationsAreRejectedAtConstruction) {
  for (const Combo& c : kRejectedCombos) {
    SCOPED_TRACE(combo_name(c));
    EXPECT_DEATH(WilsonSolver<S>(*gauge_, kMass, params_for(c)), "kNone runs kCG only");
  }
}

TEST_F(SolverApiTest, EveryCombinationConvergesWithFullyPopulatedResult) {
  // Gold solution from the zero-padded oracle, solved tighter than the
  // combos under test.
  const qcd::EvenOddWilson<S> oracle(*gauge_, kMass);
  Fermion x_oracle(grid_.get());
  const auto s_oracle = qcd::solve_wilson_schur(oracle, *b_, x_oracle, 1e-11, 800);
  ASSERT_TRUE(s_oracle.converged);
  const double oracle_norm = norm2(x_oracle);

  for (const Combo& c : kAllCombos) {
    SCOPED_TRACE(combo_name(c));
    WilsonSolver<S> solver(*gauge_, kMass, params_for(c));
    Fermion x(grid_.get());
    x.set_zero();
    const SolverResult res = solver.solve(*b_, x);

    // Fully-populated result.
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.algorithm, c.algorithm);
    EXPECT_EQ(res.preconditioner, c.preconditioner);
    EXPECT_DOUBLE_EQ(res.target_residual, kTol);
    EXPECT_GT(res.iterations, 0);
    EXPECT_LE(res.final_residual, kTol);
    EXPECT_LT(res.true_residual, 10 * kTol);
    EXPECT_FALSE(res.residual_history.empty());
    EXPECT_NEAR(res.rhs_norm, std::sqrt(norm2(*b_)), 1e-8 * res.rhs_norm);
    EXPECT_NEAR(res.solution_norm, std::sqrt(norm2(x)), 1e-12 * res.solution_norm);
    if (c.algorithm == Algorithm::kMixedCG)
      EXPECT_GT(res.inner_iterations, 0);
    else
      EXPECT_EQ(res.inner_iterations, 0);

    // Agreement with the padded-path oracle to solver tolerance.
    EXPECT_LT(norm2(x - x_oracle) / oracle_norm, 1e-13);
  }
}

TEST_F(SolverApiTest, StarvedSolveReportsNonConvergence) {
  for (const Combo& c : kAllCombos) {
    SCOPED_TRACE(combo_name(c));
    WilsonSolver<S> solver(*gauge_, kMass, starved_params_for(c));
    Fermion x(grid_.get());
    x.set_zero();
    const SolverResult res = solver.solve(*b_, x);  // must not assert/abort
    EXPECT_FALSE(res.converged);
    EXPECT_GT(res.true_residual, 1e-14);
    EXPECT_FALSE(res.residual_history.empty());
    EXPECT_GT(res.rhs_norm, 0.0);
    EXPECT_EQ(res.algorithm, c.algorithm);
    EXPECT_EQ(res.preconditioner, c.preconditioner);
  }
}

TEST_F(SolverApiTest, RepeatedSolvesThroughOneSolverAreIndependent) {
  // The facade reuses its operator and half-field workspaces across
  // solves (the propagator pattern); a second right-hand side must see no
  // state from the first, i.e. match a fresh solver bit for bit.
  WilsonSolver<S> reused(*gauge_, kMass, params_for(kAllCombos[1]));
  Fermion b2(grid_.get()), x_first(grid_.get()), x_reused(grid_.get()),
      x_fresh(grid_.get());
  gaussian_fill(SiteRNG(77), b2);
  x_first.set_zero();
  x_reused.set_zero();
  x_fresh.set_zero();

  (void)reused.solve(*b_, x_first);  // dirty the workspaces
  const auto s_reused = reused.solve(b2, x_reused);

  WilsonSolver<S> fresh(*gauge_, kMass, params_for(kAllCombos[1]));
  const auto s_fresh = fresh.solve(b2, x_fresh);

  EXPECT_EQ(s_reused.iterations, s_fresh.iterations);
  EXPECT_EQ(s_reused.final_residual, s_fresh.final_residual);
  EXPECT_EQ(s_reused.residual_history, s_fresh.residual_history);
  EXPECT_EQ(norm2(x_reused - x_fresh), 0.0);
}

TEST_F(SolverApiTest, SummaryNamesAlgorithmAndOutcome) {
  WilsonSolver<S> solver(*gauge_, kMass, params_for(kAllCombos[1]));
  Fermion x(grid_.get());
  x.set_zero();
  const auto res = solver.solve(*b_, x);
  const std::string s = res.summary();
  EXPECT_NE(s.find("cg/schur_even_odd"), std::string::npos) << s;
  EXPECT_NE(s.find("converged"), std::string::npos) << s;
}

TEST(SinglePrecisionFacade, SolvesEveryCombinationButMixedCGToItsTolerance) {
  // WilsonSolver over an fp32 scalar: kMixedCG alone needs a double outer
  // scalar.  Each true residual is recomputed here on the full system.
  using Sf = simd::SimdComplex<float, simd::kVLB512, simd::SveFcmla>;
  using Ff = qcd::LatticeFermion<Sf>;
  constexpr double kTolF = 1e-5;
  sve::set_vector_length(512);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(Sf::Nsimd()));
  qcd::GaugeField<Sf> gauge(&grid);
  qcd::random_gauge(SiteRNG(42), gauge);
  Ff b(&grid), mx(&grid);
  gaussian_fill(SiteRNG(31), b);
  const qcd::WilsonDirac<Sf> dirac(gauge, 0.2);
  for (const Combo& c : kAllCombos) {
    if (c.algorithm == Algorithm::kMixedCG) continue;
    SCOPED_TRACE(combo_name(c));
    WilsonSolver<Sf> solver(gauge, 0.2,
                            SolverParams{}
                                .with_algorithm(c.algorithm)
                                .with_preconditioner(c.preconditioner)
                                .with_tolerance(kTolF)
                                .with_max_iterations(200));
    Ff x(&grid);
    x.set_zero();
    const SolverResult res = solver.solve(b, x);
    EXPECT_TRUE(res.converged);
    dirac.m(x, mx);
    const double true_residual = std::sqrt(norm2(b - mx) / norm2(b));
    EXPECT_LT(true_residual, kTolF);
    EXPECT_NEAR(res.true_residual, true_residual, 1e-6);
  }
}

}  // namespace
}  // namespace svelat::solver
