// Lattice container: peek/poke, arithmetic, reductions, random fills.
#include "lattice/lattice_all.h"

#include <gtest/gtest.h>

#include <complex>

#include "simd/simd.h"
#include "sve/sve.h"

namespace svelat::lattice {
namespace {

using C = std::complex<double>;
using S512 = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using ColourVec = tensor::iVector<S512, 3>;
using Field = Lattice<ColourVec>;

class LatticeTest : public ::testing::Test {
 protected:
  void SetUp() override { sve::set_vector_length(512); }

  GridCartesian grid_{{4, 4, 4, 4}, GridCartesian::default_simd_layout(S512::Nsimd())};
};

TEST_F(LatticeTest, PeekPokeRoundtrip) {
  Field f(&grid_);
  f.set_zero();
  using sobj = Field::scalar_object;
  for (int x = 0; x < 4; ++x)
    for (int t = 0; t < 4; ++t) {
      sobj s = tensor::Zero<sobj>();
      for (int c = 0; c < 3; ++c) s(c) = C(x + 10.0 * c, t);
      f.poke({x, 0, 0, t}, s);
    }
  for (int x = 0; x < 4; ++x)
    for (int t = 0; t < 4; ++t) {
      const auto s = f.peek({x, 0, 0, t});
      for (int c = 0; c < 3; ++c) EXPECT_EQ(s(c), C(x + 10.0 * c, t));
    }
  // Untouched site stays zero.
  const auto z = f.peek({1, 2, 3, 1});
  for (int c = 0; c < 3; ++c) EXPECT_EQ(z(c), C{});
}

TEST_F(LatticeTest, SiteArithmetic) {
  Field a(&grid_), b(&grid_);
  SiteRNG rng(1);
  gaussian_fill(rng, a);
  SiteRNG rng2(2);
  gaussian_fill(rng2, b);
  const Field s = a + b;
  const Field d = a - b;
  for (int x = 0; x < 4; ++x) {
    const Coordinate c{x, 1, 2, 3};
    const auto sa = a.peek(c), sb = b.peek(c), ss = s.peek(c), sd = d.peek(c);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(ss(i), sa(i) + sb(i));
      EXPECT_EQ(sd(i), sa(i) - sb(i));
    }
  }
}

TEST_F(LatticeTest, ScalarCoefficientAndAxpy) {
  Field a(&grid_), b(&grid_);
  SiteRNG rng(3);
  gaussian_fill(rng, a);
  SiteRNG rng2(4);
  gaussian_fill(rng2, b);
  const C alpha(0.5, -2.0);
  const Field scaled = alpha * a;
  Field r(&grid_);
  axpy(r, alpha, a, b);
  const Coordinate c{2, 3, 0, 1};
  const auto sa = a.peek(c), sb = b.peek(c), ssc = scaled.peek(c), sr = r.peek(c);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(ssc(i) - alpha * sa(i)), 0.0, 1e-13);
    EXPECT_NEAR(std::abs(sr(i) - (alpha * sa(i) + sb(i))), 0.0, 1e-13);
  }
}

TEST_F(LatticeTest, NormAndInnerProduct) {
  Field a(&grid_);
  SiteRNG rng(5);
  gaussian_fill(rng, a);
  // norm2 == sum over all sites/components of |z|^2, computed scalar-wise.
  double expect = 0;
  C ip_aa{};
  for (std::int64_t o = 0; o < grid_.osites(); ++o)
    for (unsigned l = 0; l < grid_.isites(); ++l) {
      const auto s = a.peek(grid_.global_coor(o, l));
      for (int c = 0; c < 3; ++c) expect += std::norm(s(c));
    }
  ip_aa = innerProduct(a, a);
  EXPECT_NEAR(norm2(a), expect, 1e-9 * expect);
  EXPECT_NEAR(ip_aa.real(), expect, 1e-9 * expect);
  EXPECT_NEAR(ip_aa.imag(), 0.0, 1e-9 * expect);
  // Sesquilinearity: <alpha a, a> = conj(alpha) <a, a>.
  const C alpha(0.0, 1.0);
  const C lhs = innerProduct(alpha * a, a);
  EXPECT_NEAR(std::abs(lhs - std::conj(alpha) * ip_aa), 0.0, 1e-9 * expect);
}

TEST_F(LatticeTest, GaussianFillIsLayoutKeyed) {
  // Refilling with the same seed reproduces the field exactly.
  Field a(&grid_), b(&grid_);
  SiteRNG rng(7);
  gaussian_fill(rng, a);
  SiteRNG rng2(7);
  gaussian_fill(rng2, b);
  EXPECT_EQ(norm2(a), norm2(b));
  const Field d = a - b;
  EXPECT_EQ(norm2(d), 0.0);
}

TEST_F(LatticeTest, FillIdenticalAcrossVectorLengths) {
  // The Sec. V-D cornerstone: the same seed produces the same *physics*
  // field for every vector length; peeking by global coordinate must give
  // bit-identical values.
  using S128 = simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>;
  using F128 = Lattice<tensor::iVector<S128, 3>>;
  Field f512(&grid_);
  SiteRNG rng(11);
  gaussian_fill(rng, f512);

  sve::set_vector_length(128);
  GridCartesian g128({4, 4, 4, 4}, GridCartesian::default_simd_layout(S128::Nsimd()));
  F128 f128(&g128);
  SiteRNG rng2(11);
  gaussian_fill(rng2, f128);

  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y) {
      const Coordinate c{x, y, (x + y) % 4, (3 * x) % 4};
      sve::set_vector_length(512);
      const auto a = f512.peek(c);
      sve::set_vector_length(128);
      const auto b = f128.peek(c);
      for (int i = 0; i < 3; ++i) EXPECT_EQ(a(i), b(i)) << to_string(c);
    }
  sve::set_vector_length(512);
}

TEST_F(LatticeTest, MismatchedGridsRejected) {
  GridCartesian other({4, 4, 4, 8}, GridCartesian::default_simd_layout(S512::Nsimd()));
  Field a(&grid_);
  Field b(&other);
  a.set_zero();
  b.set_zero();
  EXPECT_DEATH((void)(a + b), "different grids");
}

TEST_F(LatticeTest, OutOfGridCoordinateRejected) {
  // Index maps take components modulo the extents: without the bound,
  // t = T wraps onto another site and t = -1 writes before the field.
  Field f(&grid_);
  f.set_zero();
  const Field::scalar_object s = tensor::Zero<Field::scalar_object>();
  EXPECT_DEATH(f.poke({3, 3, 3, 4}, s), "coordinate \\[3 3 3 4\\] lies outside");
  EXPECT_DEATH(f.poke({3, 3, 3, -1}, s), "coordinate \\[3 3 3 -1\\] lies outside");
  EXPECT_DEATH((void)f.peek({0, 0, 0, 4}), "lies outside");
}

}  // namespace
}  // namespace svelat::lattice
