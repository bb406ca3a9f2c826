// Even-odd (Schur) preconditioning tests: the production half-checkerboard
// path (qcd/even_odd.h, driven through solver::WilsonSolver) checked
// against the zero-padded test oracle (padded_oracle.h).
#include "qcd/even_odd.h"

#include <gtest/gtest.h>

#include "padded_oracle.h"
#include "qcd/block.h"
#include "solver/solver.h"
#include "sve/sve.h"

namespace svelat::qcd {
namespace {

using C = std::complex<double>;
using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Fermion = LatticeFermion<S>;

class EvenOddTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 8},
        lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    gauge_ = std::make_unique<GaugeField<S>>(grid_.get());
    random_gauge(SiteRNG(42), *gauge_);
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<GaugeField<S>> gauge_;
};

TEST_F(EvenOddTest, CheckerboardParityMatchesCoordinates) {
  const Checkerboard cb(grid_.get());
  for (std::int64_t o = 0; o < grid_->osites(); ++o) {
    for (unsigned l = 0; l < grid_->isites(); ++l) {
      const auto x = grid_->global_coor(o, l);
      EXPECT_EQ(cb.parity(o), (x[0] + x[1] + x[2] + x[3]) & 1)
          << "lane parity differs within an outer site";
    }
  }
}

TEST_F(EvenOddTest, ProjectOutZeroesOneParity) {
  const Checkerboard cb(grid_.get());
  Fermion f(grid_.get());
  gaussian_fill(SiteRNG(1), f);
  Fermion even = f;
  cb.project_out(even, 1);
  double even_norm = 0, cross = 0;
  for (std::int64_t o = 0; o < grid_->osites(); ++o) {
    const double n = std::real(tensor::innerProduct(even[o], even[o]).lane(0));
    if (cb.parity(o) == 0) even_norm += n;
    else cross += n;
  }
  EXPECT_GT(even_norm, 0.0);
  EXPECT_EQ(cross, 0.0);
}

TEST_F(EvenOddTest, HoppingConnectsOppositeParitiesOnly) {
  // Dh couples only opposite parities: Dh applied to an even-supported
  // field is exactly odd-supported.
  const Checkerboard cb(grid_.get());
  const WilsonDirac<S> dirac(*gauge_, 0.0);
  Fermion f(grid_.get()), out(grid_.get());
  gaussian_fill(SiteRNG(2), f);
  cb.project_out(f, 1);  // even support
  dirac.dhop(f, out);
  for (std::int64_t o = 0; o < grid_->osites(); ++o) {
    if (cb.parity(o) == 0) {
      const double n = std::abs(reduce(tensor::innerProduct(out[o], out[o])));
      EXPECT_EQ(n, 0.0) << o;
    }
  }
}

TEST_F(EvenOddTest, BlockDecompositionReconstructsM) {
  // (4+m) x - Dh x / 2 == Mee x_e + Meo x_o + Moe x_e + Moo x_o.
  const double mass = 0.3;
  const EvenOddWilson<S> eo(*gauge_, mass);
  const WilsonDirac<S> dirac(*gauge_, mass);
  Fermion x(grid_.get()), mx(grid_.get());
  gaussian_fill(SiteRNG(3), x);
  dirac.m(x, mx);

  const Checkerboard& cb = eo.checkerboard();
  Fermion x_e = x, x_o = x;
  cb.project_out(x_e, 1);
  cb.project_out(x_o, 0);
  Fermion heo(grid_.get()), hoe(grid_.get());
  eo.dhop_parity(x_o, heo, 0);  // Dh_eo x_o
  eo.dhop_parity(x_e, hoe, 1);  // Dh_oe x_e
  const double d = 4.0 + mass;
  Fermion rebuilt = d * x;
  Fermion hop = heo + hoe;
  rebuilt = rebuilt - 0.5 * hop;
  EXPECT_LT(norm2(rebuilt - mx) / norm2(mx), 1e-24);
}

TEST_F(EvenOddTest, MhatIsGamma5Hermitian) {
  const EvenOddWilson<S> eo(*gauge_, 0.1);
  const Checkerboard& cb = eo.checkerboard();
  Fermion a(grid_.get()), b(grid_.get()), ma(grid_.get()), mdagb(grid_.get());
  gaussian_fill(SiteRNG(4), a);
  gaussian_fill(SiteRNG(5), b);
  cb.project_out(a, 1);
  cb.project_out(b, 1);
  eo.mhat(a, ma);
  eo.mhat_dag(b, mdagb);
  const C lhs = innerProduct(mdagb, a);  // <Mhat^dag b, a> = <b, Mhat a>
  const C rhs = innerProduct(b, ma);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-10 * std::abs(rhs) + 1e-12);
}

TEST_F(EvenOddTest, MhatPreservesEvenSupport) {
  const EvenOddWilson<S> eo(*gauge_, 0.1);
  const Checkerboard& cb = eo.checkerboard();
  Fermion a(grid_.get()), ma(grid_.get());
  gaussian_fill(SiteRNG(6), a);
  cb.project_out(a, 1);
  eo.mhat(a, ma);
  Fermion odd_part = ma;
  cb.project_out(odd_part, 0);
  EXPECT_EQ(norm2(odd_part), 0.0);
}

TEST_F(EvenOddTest, SchurSolveMatchesUnpreconditioned) {
  const double mass = 0.2, tol = 1e-9;
  const EvenOddWilson<S> eo(*gauge_, mass);
  const WilsonDirac<S> dirac(*gauge_, mass);
  Fermion b(grid_.get()), x_schur(grid_.get()), x_full(grid_.get());
  gaussian_fill(SiteRNG(7), b);
  x_full.set_zero();

  const auto s1 = solve_wilson_schur(eo, b, x_schur, tol, 500);
  const auto s2 = solver::solve_wilson(dirac, b, x_full, tol, 500);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  EXPECT_LT(s1.true_residual, 1e-8);
  // Both solve the same nonsingular system: solutions agree.
  EXPECT_LT(norm2(x_schur - x_full) / norm2(x_full), 1e-14);
}

TEST_F(EvenOddTest, SchurNeedsFewerIterations) {
  // The point of preconditioning: Mhat is better conditioned than M, so CG
  // converges in fewer iterations (roughly half for Wilson).
  const double mass = 0.1, tol = 1e-8;
  const EvenOddWilson<S> eo(*gauge_, mass);
  const WilsonDirac<S> dirac(*gauge_, mass);
  Fermion b(grid_.get()), x1(grid_.get()), x2(grid_.get());
  gaussian_fill(SiteRNG(8), b);
  x2.set_zero();
  const auto schur = solve_wilson_schur(eo, b, x1, tol, 500);
  const auto full = solver::solve_wilson(dirac, b, x2, tol, 500);
  ASSERT_TRUE(schur.converged);
  ASSERT_TRUE(full.converged);
  EXPECT_LT(schur.iterations, full.iterations);
}

TEST_F(EvenOddTest, SchurSolveVerifiesAgainstM) {
  const EvenOddWilson<S> eo(*gauge_, 0.25);
  Fermion b(grid_.get()), x(grid_.get()), mx(grid_.get());
  gaussian_fill(SiteRNG(9), b);
  const auto stats = solve_wilson_schur(eo, b, x, 1e-10, 800);
  ASSERT_TRUE(stats.converged);
  eo.full_operator().m(x, mx);
  EXPECT_LT(norm2(mx - b) / norm2(b), 1e-18);
}

// ---------------------------------------------------------------------------
// Half-checkerboard (production) path.
// ---------------------------------------------------------------------------

using HalfFermion = HalfLatticeFermion<S>;
using HalfBlock = HalfBlockFermion<S, 1>;

/// The Schur operator's hop at one right-hand side: out = Dh in from the
/// half field `in` into the opposite parity.
HalfFermion schur_hop(const BlockSchurEvenOddWilson<S, 1>& eo, const HalfFermion& in) {
  const bool to_even = in.grid()->parity() == lattice::kParityOdd;
  HalfBlock bin(in.grid()), bout(to_even ? eo.even_grid() : eo.odd_grid());
  bin.copy_in_column(0, in);
  if (to_even) eo.dhop_eo(bin, bout);
  else eo.dhop_oe(bin, bout);
  HalfFermion out(bout.grid());
  bout.copy_out_column(0, out);
  return out;
}

TEST_F(EvenOddTest, DhopEoOeMatchZeroPaddedBitwise) {
  // The Schur operator's hops share the site kernel with the full dhop,
  // so on identical inputs every site result is bitwise equal to the
  // zero-padded dhop_parity path.
  const EvenOddWilson<S> eo_full(*gauge_, 0.0);
  const SchurEvenOddWilson<S> schur(*gauge_, 0.0);
  const BlockSchurEvenOddWilson<S, 1> eo(schur);
  const Checkerboard& cb = eo_full.checkerboard();

  Fermion f(grid_.get()), padded(grid_.get());
  gaussian_fill(SiteRNG(12), f);

  // dhop_eo: even output from odd input.
  Fermion f_o = f;
  cb.project_out(f_o, 0);  // odd support
  eo_full.dhop_parity(f_o, padded, 0);
  HalfFermion in_o(eo.odd_grid());
  lattice::pick_checkerboard(f, in_o);
  const HalfFermion out_e = schur_hop(eo, in_o);
  HalfFermion expect_e(eo.even_grid());
  lattice::pick_checkerboard(padded, expect_e);
  EXPECT_EQ(norm2(out_e - expect_e), 0.0);

  // dhop_oe: odd output from even input.
  Fermion f_e = f;
  cb.project_out(f_e, 1);  // even support
  eo_full.dhop_parity(f_e, padded, 1);
  HalfFermion in_e(eo.even_grid());
  lattice::pick_checkerboard(f, in_e);
  const HalfFermion out_o = schur_hop(eo, in_e);
  HalfFermion expect_o(eo.odd_grid());
  lattice::pick_checkerboard(padded, expect_o);
  EXPECT_EQ(norm2(out_o - expect_o), 0.0);
}

TEST_F(EvenOddTest, DhopEoOeMatchScalarReference) {
  // Against the verification oracle: Dh applied to a single-parity source
  // equals dhop_eo + dhop_oe of the corresponding half fields.
  const SchurEvenOddWilson<S> schur(*gauge_, 0.0);
  const BlockSchurEvenOddWilson<S, 1> eo(schur);
  Fermion f(grid_.get()), ref(grid_.get());
  gaussian_fill(SiteRNG(13), f);
  dhop_reference(*gauge_, f, ref);

  HalfFermion f_e(eo.even_grid()), f_o(eo.odd_grid());
  lattice::pick_checkerboard(f, f_e);
  lattice::pick_checkerboard(f, f_o);
  Fermion rebuilt(grid_.get());
  lattice::set_checkerboard(rebuilt, schur_hop(eo, f_o));  // even sites read odd
  lattice::set_checkerboard(rebuilt, schur_hop(eo, f_e));
  EXPECT_LT(norm2(rebuilt - ref) / norm2(ref), 1e-24);
}

TEST_F(EvenOddTest, SchurHopsRejectWrongParity) {
  // The sweep asserts its input's parity and dhop_eo/dhop_oe their
  // output's: a hop on the wrong checkerboard is a bug, never a result.
  const SchurEvenOddWilson<S> schur(*gauge_, 0.0);
  const BlockSchurEvenOddWilson<S, 1> eo(schur);
  HalfBlock even(eo.even_grid()), even2(eo.even_grid()), odd(eo.odd_grid()),
      odd2(eo.odd_grid());
  EXPECT_DEATH(eo.dhop_eo(even, even2), "opposite parity");  // even input
  EXPECT_DEATH(eo.dhop_oe(odd, odd2), "opposite parity");    // odd input
  EXPECT_DEATH(eo.dhop_eo(odd, odd2), "target parity");      // odd output
  EXPECT_DEATH(eo.dhop_oe(even, even2), "target parity");    // even output
}

TEST_F(EvenOddTest, HalfMhatMatchesZeroPaddedMhat) {
  // The production Schur operator on one right-hand side (width N = 1).
  const double mass = 0.3;
  const EvenOddWilson<S> eo_full(*gauge_, mass);
  const SchurEvenOddWilson<S> schur(*gauge_, mass);
  const BlockSchurEvenOddWilson<S, 1> eo(schur);
  Fermion a(grid_.get()), ma(grid_.get());
  gaussian_fill(SiteRNG(14), a);
  eo_full.checkerboard().project_out(a, 1);  // even support
  eo_full.mhat(a, ma);

  HalfFermion a_e(eo.even_grid()), ma_e(eo.even_grid()), expect(eo.even_grid());
  HalfBlockFermion<S, 1> in(eo.even_grid()), out(eo.even_grid());
  lattice::pick_checkerboard(a, a_e);
  in.copy_in_column(0, a_e);
  eo.mhat(in, out);
  out.copy_out_column(0, ma_e);
  lattice::pick_checkerboard(ma, expect);
  EXPECT_EQ(norm2(ma_e - expect), 0.0);
}

TEST_F(EvenOddTest, HalfSchurSolveMatchesFullLatticeCG) {
  const double mass = 0.2, tol = 1e-9;
  solver::WilsonSolver<S> schur(
      *gauge_, mass,
      solver::SolverParams{}.with_tolerance(tol).with_max_iterations(500));
  const WilsonDirac<S> dirac(*gauge_, mass);
  Fermion b(grid_.get()), x_half(grid_.get()), x_full(grid_.get());
  gaussian_fill(SiteRNG(7), b);
  x_half.set_zero();
  x_full.set_zero();

  const auto s1 = schur.solve(b, x_half);
  const auto s2 = solver::solve_wilson(dirac, b, x_full, tol, 500);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  EXPECT_LT(s1.true_residual, 1e-8);
  // Both parities of the same nonsingular system's solution.
  EXPECT_LT(norm2(x_half - x_full) / norm2(x_full), 1e-14);
}

TEST_F(EvenOddTest, HalfSchurSolveMatchesZeroPaddedSchur) {
  const double mass = 0.2, tol = 1e-9;
  solver::WilsonSolver<S> half(
      *gauge_, mass,
      solver::SolverParams{}.with_tolerance(tol).with_max_iterations(500));
  const EvenOddWilson<S> eo_padded(*gauge_, mass);
  Fermion b(grid_.get()), x_half(grid_.get()), x_padded(grid_.get());
  gaussian_fill(SiteRNG(17), b);
  x_half.set_zero();

  const auto s1 = half.solve(b, x_half);
  const auto s2 = solve_wilson_schur(eo_padded, b, x_padded, tol, 500);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  // Same Schur algorithm; only the reduction grouping differs.
  EXPECT_LT(norm2(x_half - x_padded) / norm2(x_padded), 1e-16);
  EXPECT_LE(std::abs(s1.iterations - s2.iterations), 1);
}

TEST_F(EvenOddTest, RejectsParityNonUniformLayout) {
  // Odd block extent in a decomposed dimension breaks lane-uniform parity.
  using S2 = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
  sve::VLGuard vl(256);
  lattice::GridCartesian bad({4, 4, 4, 6},
                             lattice::GridCartesian::default_simd_layout(S2::Nsimd()));
  // rdims = {4,4,4,3}: decomposed dim 3 has odd extent 3.
  EXPECT_DEATH(Checkerboard cb(&bad), "parity-uniform");
}

}  // namespace
}  // namespace svelat::qcd
