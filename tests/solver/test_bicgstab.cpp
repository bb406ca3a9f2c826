// BiCGSTAB tests on the (non-hermitian) Wilson operator: the generic loop
// on the full-lattice M, and the facade's kBiCGSTAB x kSchurEvenOdd path.
#include "solver/bicgstab.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "qcd/propagator.h"
#include "qcd/qcd.h"
#include "solver/solver.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Fermion = qcd::LatticeFermion<S>;

class BiCGStabTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 8},
        lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    gauge_ = std::make_unique<qcd::GaugeField<S>>(grid_.get());
    qcd::random_gauge(SiteRNG(42), *gauge_);
    b_ = std::make_unique<Fermion>(grid_.get());
    x_ = std::make_unique<Fermion>(grid_.get());
    gaussian_fill(SiteRNG(17), *b_);
    x_->set_zero();
  }

  /// The generic loop on M from the zero x_, with the Wilson true residual
  /// |b - M x| / |b| of the x it returns.
  SolverResult solve_m(const qcd::WilsonDirac<S>& dirac, double tolerance,
                       int max_iterations) {
    const auto m = [&dirac](const Fermion& in, Fermion& out) { dirac.m(in, out); };
    SolverResult stats = bicgstab(m, *b_, *x_, tolerance, max_iterations);
    Fermion mx(grid_.get());
    dirac.m(*x_, mx);
    stats.true_residual = std::sqrt(norm2(*b_ - mx) / norm2(*b_));
    return stats;
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<qcd::GaugeField<S>> gauge_;
  std::unique_ptr<Fermion> b_, x_;
};

TEST_F(BiCGStabTest, ConvergesOnWilsonSystem) {
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  const auto stats = solve_m(dirac, 1e-8, 500);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.true_residual, 1e-7);
}

TEST_F(BiCGStabTest, SolutionSatisfiesEquation) {
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.3);
  const auto stats = solve_m(dirac, 1e-10, 500);
  ASSERT_TRUE(stats.converged);
  Fermion mx(grid_.get());
  dirac.m(*x_, mx);
  EXPECT_LT(norm2(mx - *b_) / norm2(*b_), 1e-18);
}

TEST_F(BiCGStabTest, AgreesWithCG) {
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  Fermion x_cg(grid_.get());
  x_cg.set_zero();
  const auto s1 = solve_m(dirac, 1e-10, 500);
  const auto s2 = solve_wilson(dirac, *b_, x_cg, 1e-10, 800);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  EXPECT_LT(norm2(*x_ - x_cg) / norm2(x_cg), 1e-15);
}

TEST_F(BiCGStabTest, FewerMatrixApplicationsThanNormalCG) {
  // BiCGSTAB needs 2 operator applications per iteration on M; CG needs 2
  // applications of M (via MdagM) per iteration but on the *squared*
  // condition number.  For Wilson at moderate mass BiCGSTAB usually does
  // fewer total M applications.
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.1);
  Fermion x_cg(grid_.get());
  x_cg.set_zero();
  const auto s1 = solve_m(dirac, 1e-8, 500);
  const auto s2 = solve_wilson(dirac, *b_, x_cg, 1e-8, 800);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  const int bicg_applies = 2 * s1.iterations;
  const int cg_applies = 2 * s2.iterations;  // MdagM = 2 M-applications
  EXPECT_LT(bicg_applies, cg_applies);
}

TEST_F(BiCGStabTest, SchurHalfFieldSolveAgreesWithFullSolvers) {
  // BiCGSTAB directly on Mhat over half-checkerboard fields (the facade's
  // kBiCGSTAB x kSchurEvenOdd path): no normal equations, half-volume
  // operands, same solution as the full solvers.
  const double mass = 0.2, tol = 1e-10;
  const qcd::WilsonDirac<S> dirac(*gauge_, mass);
  WilsonSolver<S> schur(*gauge_, mass,
                        SolverParams{}
                            .with_algorithm(Algorithm::kBiCGSTAB)
                            .with_tolerance(tol)
                            .with_max_iterations(500));
  Fermion x_cg(grid_.get());
  x_cg.set_zero();
  const auto s1 = schur.solve(*b_, *x_);
  const auto s2 = solve_wilson(dirac, *b_, x_cg, tol, 800);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  EXPECT_LT(s1.true_residual, 1e-9);
  EXPECT_LT(norm2(*x_ - x_cg) / norm2(x_cg), 1e-15);
}

TEST_F(BiCGStabTest, ResidualHistoryRecorded) {
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  const auto stats = solve_m(dirac, 1e-6, 500);
  ASSERT_TRUE(stats.converged);
  ASSERT_GE(stats.residual_history.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.residual_history.front(), 1.0);
  EXPECT_LE(stats.residual_history.back(), 1e-6);
}

TEST_F(BiCGStabTest, PointSourceBreakdownEndsTheLoopWithAVerdict) {
  // For r0 = b = delta the second iteration's <r0, v> is exactly 0: the
  // projectors 1 +- gamma_mu annihilate a hop followed by its return.
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  qcd::point_source(*b_, {1, 2, 3, 4}, 0, 0);
  const auto stats = solve_m(dirac, 1e-8, 500);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.stall, StallReason::kBreakdown);
  EXPECT_EQ(stats.iterations, 1);
  // The loop ends at its finite current iterate, and says why.
  EXPECT_TRUE(std::isfinite(stats.true_residual));
  EXPECT_NE(stats.summary().find("breakdown"), std::string::npos) << stats.summary();
}

TEST_F(BiCGStabTest, KrylovLoopsReturnOnlyTheirRecursionVerdict) {
  // The loops apply no operator after they stop: the true residual and
  // the solution norm belong to the callers that know the user's system.
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  const auto m = [&dirac](const Fermion& in, Fermion& out) { dirac.m(in, out); };
  const SolverResult bi = bicgstab(m, *b_, *x_, 1e-8, 500);
  EXPECT_TRUE(bi.converged);
  EXPECT_EQ(bi.true_residual, 0.0);
  EXPECT_EQ(bi.solution_norm, 0.0);

  Fermion x_cg(grid_.get());
  x_cg.set_zero();
  const SolverResult cg = conjugate_gradient(WilsonNormalOp<qcd::WilsonDirac<S>>{dirac},
                                             *b_, x_cg, 1e-8, 800);
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.true_residual, 0.0);
  EXPECT_EQ(cg.solution_norm, 0.0);
}

TEST_F(BiCGStabTest, ZeroRhsRejected) {
  const qcd::WilsonDirac<S> dirac(*gauge_, 0.2);
  b_->set_zero();
  EXPECT_DEATH((void)solve_m(dirac, 1e-8, 10), "non-zero");
}

}  // namespace
}  // namespace svelat::solver
