// Wide-vector (1024/2048-bit) SIMD layer tests: the paper's Sec. V-B
// future-work item ("wider vectors are possible but specialization of some
// of the lower-level functionality is necessary").
#include <gtest/gtest.h>

#include <complex>

#include "simd/simd.h"
#include "sve/sve.h"

namespace svelat::simd {
namespace {

using C = std::complex<double>;

template <typename S>
S make_simd(int tag) {
  S s = S::zero();
  for (unsigned i = 0; i < S::Nsimd(); ++i)
    s.set_lane(i, C(0.25 * ((tag * 37 + static_cast<int>(i) * 11) % 19) - 2.0,
                    0.125 * ((tag * 53 + static_cast<int>(i) * 29) % 17) - 1.0));
  return s;
}

template <typename S>
void run_wide_checks() {
  sve::VLGuard vl(8 * S::vlb);
  const S a = make_simd<S>(1), b = make_simd<S>(2);

  const S prod = a * b;
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const C expect = a.lane(i) * b.lane(i);
    EXPECT_NEAR(std::abs(prod.lane(i) - expect), 0.0, 1e-12) << i;
  }

  const S cm = mult_conj(a, b);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    const C expect = std::conj(a.lane(i)) * b.lane(i);
    EXPECT_NEAR(std::abs(cm.lane(i) - expect), 0.0, 1e-12) << i;
  }

  EXPECT_EQ(timesI(timesI(a)), -a);
  EXPECT_EQ(conjugate(conjugate(a)), a);

  // All permute distances, including the wide ones needing the extended
  // index tables (the "specialization" of Sec. V-B).
  for (unsigned d = 1; d < S::Nsimd(); d *= 2) {
    const S p = permute_blocks(a, d);
    for (unsigned i = 0; i < S::Nsimd(); ++i)
      EXPECT_EQ(p.lane(i), a.lane(i ^ d)) << d << ":" << i;
  }

  C expect_sum{};
  for (unsigned i = 0; i < S::Nsimd(); ++i) expect_sum += a.lane(i);
  EXPECT_NEAR(std::abs(reduce(a) - expect_sum), 0.0, 1e-11);
}

TEST(WideVectors, Fcmla1024Double) {
  using S = SimdComplex<double, kVLB1024, SveFcmla>;
  static_assert(S::Nsimd() == 8);
  run_wide_checks<S>();
}

TEST(WideVectors, Fcmla2048Double) {
  using S = SimdComplex<double, kVLB2048, SveFcmla>;
  static_assert(S::Nsimd() == 16);
  run_wide_checks<S>();
}

TEST(WideVectors, Real2048Double) {
  using S = SimdComplex<double, kVLB2048, SveReal>;
  run_wide_checks<S>();
}

TEST(WideVectors, Generic2048Double) {
  using S = SimdComplex<double, kVLB2048, Generic>;
  run_wide_checks<S>();
}

TEST(WideVectors, Fcmla2048Float) {
  using S = SimdComplex<float, kVLB2048, SveFcmla>;
  static_assert(S::Nsimd() == 32);
  sve::VLGuard vl(2048);
  const S a = S(1.5f, -0.5f);
  const S b = S(2.0f, 0.25f);
  const S p = a * b;
  const std::complex<float> expect =
      std::complex<float>(1.5f, -0.5f) * std::complex<float>(2.0f, 0.25f);
  for (unsigned i = 0; i < S::Nsimd(); ++i) {
    EXPECT_FLOAT_EQ(p.lane(i).real(), expect.real()) << i;
    EXPECT_FLOAT_EQ(p.lane(i).imag(), expect.imag()) << i;
  }
}

TEST(WideVectors, BackendsBitIdenticalAt2048) {
  using F = SimdComplex<double, kVLB2048, SveFcmla>;
  using R = SimdComplex<double, kVLB2048, SveReal>;
  using G = SimdComplex<double, kVLB2048, Generic>;
  sve::VLGuard vl(2048);
  const auto f = make_simd<F>(5) * make_simd<F>(6);
  const auto r = make_simd<R>(5) * make_simd<R>(6);
  const auto g = make_simd<G>(5) * make_simd<G>(6);
  for (unsigned i = 0; i < F::Nsimd(); ++i) {
    EXPECT_EQ(f.lane(i), r.lane(i)) << i;
    EXPECT_EQ(f.lane(i), g.lane(i)) << i;
  }
}

}  // namespace
}  // namespace svelat::simd
