// Functor correctness across backends, element types and vector lengths:
// every complex operation must agree lane-by-lane with std::complex.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "simd/simd.h"
#include "simd_test_util.h"

namespace svelat::simd {
namespace {

using svelat::simd::testing::make_simd;
using svelat::simd::testing::SimdCaseTest;
using svelat::simd::testing::tv;

template <typename C>
class FunctorTest : public SimdCaseTest<C> {};

TYPED_TEST_SUITE(FunctorTest, svelat::simd::testing::AllCases);

// Tolerance: float lanes accumulate a couple of rounding steps.
template <typename T>
constexpr T tol() {
  return std::is_same_v<T, double> ? T(1e-13) : T(1e-5);
}

TYPED_TEST(FunctorTest, SplatBroadcasts) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S s(T(1.5), T(-2.25));
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    EXPECT_EQ(s.lane(i), (std::complex<T>{T(1.5), T(-2.25)})) << i;
  }
}

TYPED_TEST(FunctorTest, ZeroIsZero) {
  using S = typename TypeParam::simd_type;
  const S z = S::zero();
  for (unsigned i = 0; i < S::Nsimd(); ++i)
    EXPECT_EQ(z.lane(i), (std::complex<typename TypeParam::scalar>{})) << i;
}

TYPED_TEST(FunctorTest, AddSubNegLanewise) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(1), b = make_simd<S>(2);
  const S sum = a + b, dif = a - b, neg = -a;
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    EXPECT_EQ(sum.lane(i), tv<T>(1, i) + tv<T>(2, i)) << i;
    EXPECT_EQ(dif.lane(i), tv<T>(1, i) - tv<T>(2, i)) << i;
    EXPECT_EQ(neg.lane(i), -tv<T>(1, i)) << i;
  }
}

TYPED_TEST(FunctorTest, MultComplexMatchesStd) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(3), b = make_simd<S>(4);
  const S prod = a * b;
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const std::complex<T> expect = tv<T>(3, i) * tv<T>(4, i);
    EXPECT_NEAR(prod.lane(i).real(), expect.real(), tol<T>()) << i;
    EXPECT_NEAR(prod.lane(i).imag(), expect.imag(), tol<T>()) << i;
  }
}

TYPED_TEST(FunctorTest, MacAccumulates) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  S acc = make_simd<S>(5);
  const S x = make_simd<S>(6), y = make_simd<S>(7);
  acc.mac(x, y);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const std::complex<T> expect = tv<T>(5, i) + tv<T>(6, i) * tv<T>(7, i);
    EXPECT_NEAR(acc.lane(i).real(), expect.real(), tol<T>()) << i;
    EXPECT_NEAR(acc.lane(i).imag(), expect.imag(), tol<T>()) << i;
  }
}

TYPED_TEST(FunctorTest, ConjMultMatchesStd) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(8), b = make_simd<S>(9);
  const S prod = mult_conj(a, b);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const std::complex<T> expect = std::conj(tv<T>(8, i)) * tv<T>(9, i);
    EXPECT_NEAR(prod.lane(i).real(), expect.real(), tol<T>()) << i;
    EXPECT_NEAR(prod.lane(i).imag(), expect.imag(), tol<T>()) << i;
  }
}

TYPED_TEST(FunctorTest, MacConjAccumulates) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  S acc = make_simd<S>(10);
  const S x = make_simd<S>(11), y = make_simd<S>(12);
  acc.mac_conj(x, y);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const std::complex<T> expect = tv<T>(10, i) + std::conj(tv<T>(11, i)) * tv<T>(12, i);
    EXPECT_NEAR(acc.lane(i).real(), expect.real(), tol<T>()) << i;
    EXPECT_NEAR(acc.lane(i).imag(), expect.imag(), tol<T>()) << i;
  }
}

TYPED_TEST(FunctorTest, TimesIRotates) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(13);
  const S pi = timesI(a);
  const S mi = timesMinusI(a);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const std::complex<T> z = tv<T>(13, i);
    EXPECT_EQ(pi.lane(i), (std::complex<T>{-z.imag(), z.real()})) << i;
    EXPECT_EQ(mi.lane(i), (std::complex<T>{z.imag(), -z.real()})) << i;
  }
}

// The register level's fused +-i forms (add_times_i, add_times_minus_i:
// one FCADD on sve-fcmla, add composed with times_i elsewhere) against the
// scalar a + i x = (a.re - x.im, a.im + x.re) and a - i x = (a.re + x.im,
// a.im - x.re), bit for bit, so a -0 where the scalar gives +0 fails.  The
// lanes run through every (a.re, a.im, x.re, x.im) drawn from +0, -0 and
// two nonzero values.
TYPED_TEST(FunctorTest, AddTimesIMatchesScalarBitwise) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  using R = RegsOf<S>;
  const T values[] = {T(0), -T(0), T(1.5), T(-0.75)};
  constexpr int kValues = 4;
  constexpr int kCombos = kValues * kValues * kValues * kValues;
  const auto same_bits = [](T x, T y) { return std::memcmp(&x, &y, sizeof(T)) == 0; };
  const auto pg = R::ptrue();
  for (int first = 0; first < kCombos; first += static_cast<int>(S::Nsimd())) {
    S a = S::zero(), x = S::zero();
    for (unsigned i = 0; i < S::Nsimd(); ++i) {
      const int k = (first + static_cast<int>(i)) % kCombos;
      a.set_lane(i, {values[k % kValues], values[k / kValues % kValues]});
      x.set_lane(i, {values[k / (kValues * kValues) % kValues],
                     values[k / (kValues * kValues * kValues)]});
    }
    S plus = S::zero(), minus = S::zero();
    R::store(pg, plus.raw(),
             R::add_times_i(pg, R::load(pg, a.raw()), R::load(pg, x.raw())));
    R::store(pg, minus.raw(),
             R::add_times_minus_i(pg, R::load(pg, a.raw()), R::load(pg, x.raw())));
    for (unsigned i = 0; i < S::Nsimd(); ++i) {
      const std::complex<T> av = a.lane(i), xv = x.lane(i);
      EXPECT_TRUE(same_bits(plus.lane(i).real(), av.real() - xv.imag()) &&
                  same_bits(plus.lane(i).imag(), av.imag() + xv.real()))
          << "a + i x, a = " << av << ", x = " << xv << ": got " << plus.lane(i);
      EXPECT_TRUE(same_bits(minus.lane(i).real(), av.real() + xv.imag()) &&
                  same_bits(minus.lane(i).imag(), av.imag() - xv.real()))
          << "a - i x, a = " << av << ", x = " << xv << ": got " << minus.lane(i);
    }
  }
}

TYPED_TEST(FunctorTest, TimesITwiceIsNegation) {
  using S = typename TypeParam::simd_type;
  const S a = make_simd<S>(14);
  EXPECT_EQ(timesI(timesI(a)), -a);
  EXPECT_EQ(timesMinusI(timesI(a)), a);
}

TYPED_TEST(FunctorTest, ConjugateInvolution) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(15);
  const S c = conjugate(a);
  for (unsigned i = 0; i < S::Nsimd(); ++i)
    EXPECT_EQ(c.lane(i), std::conj(tv<T>(15, i))) << i;
  EXPECT_EQ(conjugate(c), a);
}

TYPED_TEST(FunctorTest, RealScale) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(16);
  const S s = T(2) * a;
  for (unsigned i = 0; i < S::Nsimd(); ++i)
    EXPECT_EQ(s.lane(i), T(2) * tv<T>(16, i)) << i;
}

TYPED_TEST(FunctorTest, ReduceSumsLanes) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(17);
  std::complex<T> expect{};
  for (unsigned i = 0; i < S::Nsimd(); ++i) expect += tv<T>(17, i);
  const std::complex<T> got = reduce(a);
  EXPECT_NEAR(got.real(), expect.real(), tol<T>());
  EXPECT_NEAR(got.imag(), expect.imag(), tol<T>());
}

TYPED_TEST(FunctorTest, PermuteBlocksExchanges) {
  using S = typename TypeParam::simd_type;
  const S a = make_simd<S>(18);
  for (unsigned d = 1; d < S::Nsimd(); d *= 2) {
    const S p = permute_blocks(a, d);
    for (unsigned i = 0; i < S::Nsimd(); ++i)
      EXPECT_EQ(p.lane(i), a.lane(i ^ d)) << d << ":" << i;
    // Involution: permuting twice restores the original.
    EXPECT_EQ(permute_blocks(p, d), a) << d;
  }
}

TYPED_TEST(FunctorTest, DistributivityProperty) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(19), b = make_simd<S>(20), c = make_simd<S>(21);
  const S lhs = a * (b + c);
  const S rhs = a * b + a * c;
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    EXPECT_NEAR(lhs.lane(i).real(), rhs.lane(i).real(), tol<T>()) << i;
    EXPECT_NEAR(lhs.lane(i).imag(), rhs.lane(i).imag(), tol<T>()) << i;
  }
}

TYPED_TEST(FunctorTest, ConjDistributesOverProduct) {
  using S = typename TypeParam::simd_type;
  using T = typename TypeParam::scalar;
  const S a = make_simd<S>(22), b = make_simd<S>(23);
  const S lhs = conjugate(a * b);
  const S rhs = conjugate(a) * conjugate(b);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    EXPECT_NEAR(lhs.lane(i).real(), rhs.lane(i).real(), tol<T>()) << i;
    EXPECT_NEAR(lhs.lane(i).imag(), rhs.lane(i).imag(), tol<T>()) << i;
  }
}

}  // namespace
}  // namespace svelat::simd
