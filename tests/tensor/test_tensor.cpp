// Tensor-layer algebra tests with std::complex (reference) innermost type.
#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <complex>

namespace svelat::tensor {
namespace {

using C = std::complex<double>;
using CMat3 = iMatrix<C, 3>;
using CVec3 = iVector<C, 3>;

C tv(int tag, int i, int j = 0) {
  return {0.5 * ((tag * 7 + i * 3 + j) % 11) - 2.0,
          0.25 * ((tag * 13 + i * 5 + j * 2) % 9) - 1.0};
}

CMat3 make_mat(int tag) {
  CMat3 m;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m(i, j) = tv(tag, i, j);
  return m;
}

CVec3 make_vec(int tag) {
  CVec3 v;
  for (int i = 0; i < 3; ++i) v(i) = tv(tag, i);
  return v;
}

TEST(Tensor, ZeroInitialization) {
  const auto m = Zero<CMat3>();
  const auto v = Zero<CVec3>();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(v(i), C{});
    for (int j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), C{});
  }
}

TEST(Tensor, VectorAddSub) {
  const auto a = make_vec(1), b = make_vec(2);
  const auto s = a + b, d = a - b;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s(i), a(i) + b(i));
    EXPECT_EQ(d(i), a(i) - b(i));
  }
  EXPECT_EQ(s - b, a);
}

TEST(Tensor, MatrixVectorProduct) {
  const auto m = make_mat(3);
  const auto v = make_vec(4);
  const auto r = m * v;
  for (int i = 0; i < 3; ++i) {
    C expect{};
    for (int j = 0; j < 3; ++j) expect += m(i, j) * v(j);
    EXPECT_NEAR(std::abs(r(i) - expect), 0.0, 1e-13) << i;
  }
}

TEST(Tensor, MatrixMatrixProduct) {
  const auto a = make_mat(5), b = make_mat(6);
  const auto r = a * b;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      C expect{};
      for (int k = 0; k < 3; ++k) expect += a(i, k) * b(k, j);
      EXPECT_NEAR(std::abs(r(i, j) - expect), 0.0, 1e-13);
    }
}

TEST(Tensor, MatrixProductAssociative) {
  const auto a = make_mat(7), b = make_mat(8), c = make_mat(9);
  const auto lhs = (a * b) * c;
  const auto rhs = a * (b * c);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(std::abs(lhs(i, j) - rhs(i, j)), 0.0, 1e-12);
}

TEST(Tensor, AdjIsConjugateTranspose) {
  const auto m = make_mat(10);
  const auto a = adj(m);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(a(i, j), std::conj(m(j, i)));
  // Involution.
  EXPECT_EQ(adj(a), m);
}

TEST(Tensor, AdjOfProductReverses) {
  const auto a = make_mat(11), b = make_mat(12);
  const auto lhs = adj(a * b);
  const auto rhs = adj(b) * adj(a);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(std::abs(lhs(i, j) - rhs(i, j)), 0.0, 1e-13);
}

TEST(Tensor, AdjMulMatchesExplicitAdj) {
  const auto m = make_mat(13);
  const auto v = make_vec(14);
  const auto fused = adj_mul(m, v);
  const auto expect = adj(m) * v;
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(std::abs(fused(i) - expect(i)), 0.0, 1e-13);
}

TEST(Tensor, TransposeAndTrace) {
  const auto m = make_mat(15);
  const auto t = transpose(m);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(t(i, j), m(j, i));
  C tr{};
  for (int i = 0; i < 3; ++i) tr += m(i, i);
  EXPECT_EQ(trace(m), tr);
  // trace(ab) == trace(ba)
  const auto b = make_mat(16);
  EXPECT_NEAR(std::abs(trace(m * b) - trace(b * m)), 0.0, 1e-12);
}

TEST(Tensor, TimesIRecursion) {
  const auto v = make_vec(17);
  const auto iv = timesI(v);
  const auto miv = timesMinusI(v);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(iv(i), C(0, 1) * v(i));
    EXPECT_EQ(miv(i), C(0, -1) * v(i));
  }
  EXPECT_EQ(timesI(timesI(v)), -v);
}

TEST(Tensor, ConjugateElementwise) {
  const auto m = make_mat(18);
  const auto c = conjugate(m);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(c(i, j), std::conj(m(i, j)));
}

TEST(Tensor, ScalarCoefficient) {
  const auto v = make_vec(19);
  const C s(2.0, -1.0);
  const auto r = s * v;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(r(i), s * v(i));
  const auto m = make_mat(20);
  const auto rm = s * m;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(rm(i, j), s * m(i, j));
}

TEST(Tensor, InnerProductVector) {
  const auto a = make_vec(21), b = make_vec(22);
  C expect{};
  for (int i = 0; i < 3; ++i) expect += std::conj(a(i)) * b(i);
  EXPECT_NEAR(std::abs(innerProduct(a, b) - expect), 0.0, 1e-13);
  // Positive-definite on the diagonal.
  EXPECT_GT(innerProduct(a, a).real(), 0.0);
  EXPECT_NEAR(innerProduct(a, a).imag(), 0.0, 1e-13);
}

TEST(Tensor, InnerProductMatrixIsFrobenius) {
  const auto a = make_mat(23), b = make_mat(24);
  C expect{};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) expect += std::conj(a(i, j)) * b(i, j);
  EXPECT_NEAR(std::abs(innerProduct(a, b) - expect), 0.0, 1e-13);
}

TEST(Tensor, NestedSpinColourStructure) {
  // Fermion-like nesting: 4 spins x 3 colours.
  using Fermion = iVector<iVector<C, 3>, 4>;
  Fermion f = Zero<Fermion>();
  for (int s = 0; s < 4; ++s)
    for (int c = 0; c < 3; ++c) f(s)(c) = tv(25, s, c);
  const Fermion g = timesI(f);
  for (int s = 0; s < 4; ++s)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(g(s)(c), C(0, 1) * f(s)(c));
  const auto n2 = innerProduct(f, f);
  double expect = 0;
  for (int s = 0; s < 4; ++s)
    for (int c = 0; c < 3; ++c) expect += std::norm(f(s)(c));
  EXPECT_NEAR(n2.real(), expect, 1e-12);
}

TEST(Tensor, MacAccumulatesIntoNested) {
  using ColourVec = iVector<C, 3>;
  ColourVec acc = Zero<ColourVec>();
  // mac on the scalar level through matrix*vector: covered in products; here
  // check direct accumulation loop equivalence.
  const auto m = make_mat(26);
  const auto v = make_vec(27);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) mac(acc(i), m(i, j), v(j));
  const auto expect = m * v;
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(std::abs(acc(i) - expect(i)), 0.0, 1e-13);
}

}  // namespace
}  // namespace svelat::tensor
