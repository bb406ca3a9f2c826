// Mixed-precision defect-correction solver tests (Algorithm::kMixedCG of
// the WilsonSolver facade, which runs it on the Schur engine) and the
// precision-conversion utility it is built on.
#include "solver/mixed_precision.h"

#include <gtest/gtest.h>

#include "solver/solver.h"
#include "sve/sve.h"

namespace svelat::solver {
namespace {

using Sd = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Sf = simd::SimdComplex<float, simd::kVLB512, simd::SveFcmla>;
using Fd = qcd::LatticeFermion<Sd>;

SolverParams mixed_params(double tol) {
  return SolverParams{}.with_algorithm(Algorithm::kMixedCG).with_tolerance(tol);
}

class MixedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 8},
        lattice::GridCartesian::default_simd_layout(Sd::Nsimd()));
    gauge_ = std::make_unique<qcd::GaugeField<Sd>>(grid_.get());
    qcd::random_gauge(SiteRNG(42), *gauge_);
    b_ = std::make_unique<Fd>(grid_.get());
    x_ = std::make_unique<Fd>(grid_.get());
    gaussian_fill(SiteRNG(21), *b_);
    x_->set_zero();
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<qcd::GaugeField<Sd>> gauge_;
  std::unique_ptr<Fd> b_, x_;
};

TEST_F(MixedTest, ConvertFieldRoundtripExactForFloatData) {
  // double -> float -> double is exact when the data is float-representable.
  lattice::GridCartesian grid_f(grid_->fdimensions(),
                                lattice::GridCartesian::default_simd_layout(Sf::Nsimd()));
  qcd::LatticeFermion<Sf> f(&grid_f);
  Fd d(grid_.get()), back(grid_.get());
  d.set_zero();
  using sobj = Fd::scalar_object;
  sobj s = tensor::Zero<sobj>();
  s(1)(2) = std::complex<double>(0.5, -0.25);
  d.poke({1, 2, 3, 4}, s);
  convert_field(f, d);
  convert_field(back, f);
  EXPECT_EQ(norm2(back - d), 0.0);
  // And the float field sees the value at the same global coordinate.
  const auto sf = f.peek({1, 2, 3, 4});
  EXPECT_EQ(sf(1)(2), (std::complex<float>{0.5f, -0.25f}));
}

TEST_F(MixedTest, ConvertFieldRoundsToFloat) {
  Fd d(grid_.get()), back(grid_.get());
  gaussian_fill(SiteRNG(3), d);
  lattice::GridCartesian grid_f(grid_->fdimensions(),
                                lattice::GridCartesian::default_simd_layout(Sf::Nsimd()));
  qcd::LatticeFermion<Sf> f(&grid_f);
  convert_field(f, d);
  convert_field(back, f);
  const double rel = std::sqrt(norm2(back - d) / norm2(d));
  EXPECT_GT(rel, 0.0);       // lossy
  EXPECT_LT(rel, 1e-7);      // but only at float epsilon level
}

TEST_F(MixedTest, ConvertFieldMapsHalfPiecesAcrossLayouts) {
  // kMixedCG's residual and correction pieces: width-1 half block fields
  // of one parity, whose fp64 and fp32 half grids split the lattice into
  // different SIMD layouts.  Every global coordinate keeps its value,
  // rounded to float, and converts back to that rounded value.
  lattice::GridCartesian grid_f(grid_->fdimensions(),
                                lattice::GridCartesian::default_simd_layout(Sf::Nsimd()));
  ASSERT_NE(grid_f.simd_layout(), grid_->simd_layout());
  const lattice::GridRedBlackCartesian odd_d(grid_.get(), lattice::kParityOdd);
  const lattice::GridRedBlackCartesian odd_f(&grid_f, lattice::kParityOdd);
  qcd::HalfBlockFermion<Sd, 1> d(&odd_d), back(&odd_d);
  qcd::HalfBlockFermion<Sf, 1> f(&odd_f);
  lattice::pick_checkerboard(*b_, d, 0);
  convert_field(f, d);
  convert_field(back, f);
  for (std::int64_t h = 0; h < odd_d.osites(); ++h) {
    for (unsigned l = 0; l < odd_d.isites(); ++l) {
      const lattice::Coordinate x = odd_d.global_coor(h, l);
      for (int s = 0; s < qcd::Ns; ++s) {
        for (int c = 0; c < qcd::Nc; ++c) {
          const std::complex<double> v = d.at(h, 0)(s)(c).lane(l);
          const std::complex<float> vf(static_cast<float>(v.real()),
                                       static_cast<float>(v.imag()));
          EXPECT_EQ(f.at(odd_f.outer_index(x), 0)(s)(c).lane(odd_f.inner_index(x)), vf);
          EXPECT_EQ(back.at(h, 0)(s)(c).lane(l), std::complex<double>(vf));
        }
      }
    }
  }
}

TEST_F(MixedTest, InnerScalarRebindsToFloat) {
  // kMixedCG derives its inner scalar from the outer one: same VL and
  // backend, fp32 lanes (twice as many virtual nodes per vector).
  static_assert(std::is_same_v<WilsonSolver<Sd>::InnerScalar, Sf>);
  static_assert(Sf::Nsimd() == 2 * Sd::Nsimd());
}

TEST_F(MixedTest, ConvergesToDoublePrecisionTolerance) {
  WilsonSolver<Sd> solver(*gauge_, 0.2, mixed_params(1e-10));
  const auto stats = solver.solve(*b_, *x_);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.true_residual, 1e-9);
  EXPECT_GE(stats.iterations, 2);  // genuinely iterated defect correction
  EXPECT_GT(stats.inner_iterations, 0);
  // One history entry per outer residual check.
  EXPECT_GE(stats.residual_history.size(), static_cast<std::size_t>(stats.iterations));
}

TEST_F(MixedTest, MatchesDoubleSolve) {
  const qcd::WilsonDirac<Sd> dirac(*gauge_, 0.2);
  Fd x_double(grid_.get());
  x_double.set_zero();
  WilsonSolver<Sd> solver(*gauge_, 0.2, mixed_params(1e-10));
  const auto s_mixed = solver.solve(*b_, *x_);
  const auto s_double = solve_wilson(dirac, *b_, x_double, 1e-10, 800);
  ASSERT_TRUE(s_mixed.converged);
  ASSERT_TRUE(s_double.converged);
  EXPECT_LT(norm2(*x_ - x_double) / norm2(x_double), 1e-16);
}

TEST_F(MixedTest, RestartCapAboveTheTargetIsNotConverged) {
  // One fp32 iteration per restart: 24 restarts leave the residual well
  // above 1e-14.  A solve whose target sits at half that final residual
  // runs the same restarts and stops on the cap between the target and 10x
  // it.  Its verdict is the target itself, so it has not converged.
  constexpr int kCap = WilsonSolver<Sd>::kMixedMaxRestarts;
  const SolverParams starved = mixed_params(1e-14).with_max_iterations(1);
  WilsonSolver<Sd> probe_solver(*gauge_, 0.2, starved);
  const SolverResult probe = probe_solver.solve(*b_, *x_);
  ASSERT_EQ(probe.iterations, kCap);
  ASSERT_EQ(probe.inner_iterations, kCap);
  const double final_rel = probe.final_residual;
  ASSERT_GT(final_rel, 1e-14);
  // No earlier restart got below the final residual, so a looser target
  // cannot end the solve before the cap.
  for (int k = 0; k < kCap; ++k)
    ASSERT_GT(probe.residual_history[static_cast<std::size_t>(k)], final_rel);

  const double target = final_rel / 2;
  WilsonSolver<Sd> solver(*gauge_, 0.2, SolverParams{starved}.with_tolerance(target));
  x_->set_zero();
  const SolverResult res = solver.solve(*b_, *x_);
  EXPECT_EQ(res.iterations, kCap);
  EXPECT_EQ(res.final_residual, final_rel);
  EXPECT_EQ(res.true_residual, final_rel);
  EXPECT_GT(res.final_residual, target);
  EXPECT_LT(res.final_residual, 10 * target);
  EXPECT_FALSE(res.converged);
}

}  // namespace
}  // namespace svelat::solver
