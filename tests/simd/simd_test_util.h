// Shared helpers for SIMD-layer tests: typed test lists covering
// backend x element type x vector length.
#pragma once

#include <gtest/gtest.h>

#include <complex>

#include "simd/simd.h"
#include "sve/sve.h"

namespace svelat::simd::testing {

/// Typed-test case: one (T, VLB, Policy) combination.
template <typename T, std::size_t VLB, typename P>
struct Case {
  using scalar = T;
  using policy = P;
  static constexpr std::size_t vlb = VLB;
  using simd_type = SimdComplex<T, VLB, P>;
};

using AllCases = ::testing::Types<
    Case<double, kVLB128, Generic>, Case<double, kVLB256, Generic>,
    Case<double, kVLB512, Generic>, Case<double, kVLB128, SveFcmla>,
    Case<double, kVLB256, SveFcmla>, Case<double, kVLB512, SveFcmla>,
    Case<double, kVLB128, SveReal>, Case<double, kVLB256, SveReal>,
    Case<double, kVLB512, SveReal>, Case<float, kVLB128, SveFcmla>,
    Case<float, kVLB256, SveFcmla>, Case<float, kVLB512, SveFcmla>,
    Case<float, kVLB512, SveReal>, Case<float, kVLB512, Generic>>;

/// Fixture that pins the simulator VL to the case's compile-time VLB.
template <typename C>
class SimdCaseTest : public ::testing::Test {
 protected:
  void SetUp() override { sve::set_vector_length(8 * C::vlb); }
  void TearDown() override { sve::set_vector_length(512); }
};

/// Deterministic complex test value for (tag, lane).
template <typename T>
std::complex<T> tv(int tag, unsigned lane) {
  return {static_cast<T>(((tag * 37 + static_cast<int>(lane) * 11) % 19) - 9) / T(4),
          static_cast<T>(((tag * 53 + static_cast<int>(lane) * 29) % 17) - 8) / T(8)};
}

/// Build a SimdComplex with distinct per-lane values.
template <typename S>
S make_simd(int tag) {
  S s = S::zero();
  for (unsigned i = 0; i < S::Nsimd(); ++i)
    s.set_lane(i, tv<typename S::real_type>(tag, i));
  return s;
}

}  // namespace svelat::simd::testing
