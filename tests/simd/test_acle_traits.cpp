// acle<T> traits and the vector-length contract (paper Sec. V-A/V-B).
#include <gtest/gtest.h>

#include "simd/simd.h"
#include "sve/sve.h"

namespace svelat::simd {
namespace {

TEST(AcleTraits, LaneCounts) {
  EXPECT_EQ((acle<double, kVLB128>::lanes), 2u);
  EXPECT_EQ((acle<double, kVLB256>::lanes), 4u);
  EXPECT_EQ((acle<double, kVLB512>::lanes), 8u);
  EXPECT_EQ((acle<float, kVLB512>::lanes), 16u);
  EXPECT_EQ((acle<half, kVLB512>::lanes), 32u);
}

TEST(AcleTraits, IndexTypesMatchWidth) {
  static_assert(std::is_same_v<acle<double, kVLB512>::index_t, std::uint64_t>);
  static_assert(std::is_same_v<acle<float, kVLB512>::index_t, std::uint32_t>);
  static_assert(std::is_same_v<acle<half, kVLB512>::index_t, std::uint16_t>);
  SUCCEED();
}

TEST(AcleTraits, VecIsOrdinaryAlignedArray) {
  // The core workaround of the paper: the SIMD storage must be an ordinary
  // (sized!) type usable as class member data, unlike ACLE vectors.
  static_assert(sizeof(vec<double, kVLB512>) == kVLB512);
  static_assert(alignof(vec<double, kVLB512>) == kVLB512);
  static_assert(sizeof(vec<float, kVLB128>) == kVLB128);
  static_assert(vec<double, kVLB256>::size == 4);
  SUCCEED();
}

TEST(AcleTraits, Pg1MatchingHardware) {
  sve::VLGuard vl(512);
  const sve::svbool_t pg = acle<double, kVLB512>::pg1();
  for (unsigned i = 0; i < 8; ++i) EXPECT_TRUE(sve::detail::pred_elem<double>(pg, i));
}

TEST(AcleTraits, Pg1AbortsOnMismatchedHardware) {
  // The paper warns that fixed-size binaries "will only be operating
  // correctly on matching SVE hardware" (Sec. IV-D).  Our port fails fast.
  sve::VLGuard vl(1024);
  EXPECT_DEATH((void)(acle<double, kVLB512>::pg1()), "vector length");
}

TEST(AcleTraits, PgVlaSafeOnWiderHardware) {
  // The WHILELT-based predicate covers exactly the vec<T> lanes even on
  // wider hardware -- the VLA escape hatch the paper's port deliberately
  // does not take (Sec. V-B).
  sve::VLGuard vl(1024);
  const sve::svbool_t pg = acle<double, kVLB512>::pg1_vla();
  for (unsigned i = 0; i < 16; ++i)
    EXPECT_EQ(sve::detail::pred_elem<double>(pg, i), i < 8u) << i;
}

TEST(AcleTraits, EvenOddPredicates) {
  // The register level derives the real/imaginary-lane predicates from the
  // caller's hoisted pg1, issuing no PTRUE of its own.
  sve::VLGuard vl(256);
  using R = detail::SveArithRegs<double, kVLB256>;
  const sve::svbool_t pg = acle<double, kVLB256>::pg1();
  const sve::svbool_t even = R::even(pg);
  const sve::svbool_t odd = R::odd(pg);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(sve::detail::pred_elem<double>(even, i), i % 2 == 0) << i;
    EXPECT_EQ(sve::detail::pred_elem<double>(odd, i), i % 2 == 1) << i;
  }
}

TEST(AcleTraits, SwapIndexSwapsAdjacent) {
  sve::VLGuard vl(512);
  const auto idx = acle<double, kVLB512>::swap_index(acle<double, kVLB512>::pg1());
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(idx.lane[i], i ^ 1u) << i;
}

TEST(AcleTraits, XorIndexTables) {
  sve::VLGuard vl(512);
  for (std::size_t d : {1u, 2u, 4u}) {
    const auto idx = acle<double, kVLB512>::xor_index(acle<double, kVLB512>::pg1(), d);
    for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(idx.lane[i], i ^ d) << d << ":" << i;
  }
}

}  // namespace
}  // namespace svelat::simd

// The mismatch demonstration needs the Sec. IV-D kernel from core/kernels.h.
#include "core/kernels.h"

#include <vector>

namespace svelat::simd {
namespace {

TEST(VLMismatch, FixedKernelProcessesOnlyHardwareVector) {
  // Intent: process 4 complex numbers (one 512-bit vector's worth).
  std::vector<kernels::cplx> x(4, {1.0, 1.0}), y(4, {2.0, 0.0}), z(4, {0.0, 0.0});

  {
    sve::VLGuard vl(512);  // matching hardware: all 4 results written
    kernels::mult_cplx_acle_fixed(reinterpret_cast<const double*>(x.data()),
                                  reinterpret_cast<const double*>(y.data()),
                                  reinterpret_cast<double*>(z.data()));
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(z[static_cast<std::size_t>(i)], (kernels::cplx{2.0, 2.0})) << i;
  }
  {
    sve::VLGuard vl(256);  // narrower hardware: only 2 of 4 results written
    std::fill(z.begin(), z.end(), kernels::cplx{0.0, 0.0});
    kernels::mult_cplx_acle_fixed(reinterpret_cast<const double*>(x.data()),
                                  reinterpret_cast<const double*>(y.data()),
                                  reinterpret_cast<double*>(z.data()));
    EXPECT_EQ(z[0], (kernels::cplx{2.0, 2.0}));
    EXPECT_EQ(z[1], (kernels::cplx{2.0, 2.0}));
    EXPECT_EQ(z[2], (kernels::cplx{0.0, 0.0}));  // silently unprocessed
    EXPECT_EQ(z[3], (kernels::cplx{0.0, 0.0}));
  }
}

}  // namespace
}  // namespace svelat::simd
