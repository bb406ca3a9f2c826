// The paper's Sec. IV code examples, verified against scalar references
// across all vector lengths and odd array sizes (predicated tails).
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/kernels.h"
#include "support/aligned.h"
#include "sve/sve.h"
#include "sve_test_util.h"

namespace svelat {
namespace {

using kernels::cplx;
using sve::testing::VLTest;

class PaperKernelTest : public VLTest {};

std::vector<double> real_data(std::size_t n, int tag) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25 * static_cast<double>((tag * 31 + static_cast<int>(i) * 13) % 97) - 12.0;
  return v;
}

std::vector<cplx> cplx_data(std::size_t n, int tag) {
  const auto re = real_data(n, tag);
  const auto im = real_data(n, tag + 100);
  std::vector<cplx> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = {re[i], im[i]};
  return v;
}

TEST_P(PaperKernelTest, MultRealMatchesScalar) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{2 * sve::lanes<double>() + 3}}) {
    const auto x = real_data(n, 1);
    const auto y = real_data(n, 2);
    std::vector<double> z(n, -1.0);
    kernels::mult_real_sve(n, x.data(), y.data(), z.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(z[i], x[i] * y[i]) << n << ":" << i;
  }
}

TEST_P(PaperKernelTest, MultCplxAutovecMatchesScalar) {
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{33},
                        std::size_t{2 * sve::lanes<double>() + 1}}) {
    const auto x = cplx_data(n, 3);
    const auto y = cplx_data(n, 4);
    std::vector<cplx> expect(n), got(n);
    kernels::mult_cplx_scalar(n, x.data(), y.data(), expect.data());
    kernels::mult_cplx_autovec(n, x.data(), y.data(), got.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(got[i].real(), expect[i].real()) << n << ":" << i;
      EXPECT_DOUBLE_EQ(got[i].imag(), expect[i].imag()) << n << ":" << i;
    }
  }
}

TEST_P(PaperKernelTest, MultCplxAcleMatchesScalar) {
  for (std::size_t n : {std::size_t{1}, std::size_t{6}, std::size_t{40},
                        std::size_t{3 * sve::lanes<double>() / 2 + 1}}) {
    const auto x = cplx_data(n, 5);
    const auto y = cplx_data(n, 6);
    std::vector<cplx> expect(n), got(n);
    kernels::mult_cplx_scalar(n, x.data(), y.data(), expect.data());
    kernels::mult_cplx_acle(n, reinterpret_cast<const double*>(x.data()),
                            reinterpret_cast<const double*>(y.data()),
                            reinterpret_cast<double*>(got.data()));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(got[i].real(), expect[i].real()) << n << ":" << i;
      EXPECT_DOUBLE_EQ(got[i].imag(), expect[i].imag()) << n << ":" << i;
    }
  }
}

TEST_P(PaperKernelTest, MultCplxAcleFixedProcessesOneVector) {
  const std::size_t n = kernels::cplx_per_vector();
  const auto x = cplx_data(n, 7);
  const auto y = cplx_data(n, 8);
  std::vector<cplx> expect(n), got(n);
  kernels::mult_cplx_scalar(n, x.data(), y.data(), expect.data());
  kernels::mult_cplx_acle_fixed(reinterpret_cast<const double*>(x.data()),
                                reinterpret_cast<const double*>(y.data()),
                                reinterpret_cast<double*>(got.data()));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(got[i].real(), expect[i].real()) << i;
    EXPECT_DOUBLE_EQ(got[i].imag(), expect[i].imag()) << i;
  }
}

TEST_P(PaperKernelTest, AllStrategiesAgreeBitExactly) {
  // FCMLA and the real-arithmetic strategy compute the same expression
  // (products then add), so for these inputs the results are bit-identical.
  const std::size_t n = 24;
  const auto x = cplx_data(n, 9);
  const auto y = cplx_data(n, 10);
  std::vector<cplx> a(n), b(n);
  kernels::mult_cplx_autovec(n, x.data(), y.data(), a.data());
  kernels::mult_cplx_acle(n, reinterpret_cast<const double*>(x.data()),
                          reinterpret_cast<const double*>(y.data()),
                          reinterpret_cast<double*>(b.data()));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a[i].real(), b[i].real()) << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << i;
  }
}

TEST_P(PaperKernelTest, InstructionMixAcleVsAutovec) {
  // Deterministic dynamic instruction counts for the two strategies
  // (paper Sec. IV-B vs IV-C).  With L = f64 lanes and n complex numbers:
  //   ACLE:    1 dup + ceil(2n/L) iterations of
  //            {cntd, whilelt, 2 ld1, 2 fcmla, st1} = 7
  //   autovec: 1 ptrue + ceil(n/L) iterations of
  //            {cntd, whilelt, 2 ld2, 2 fmul, fmla, fnmls, st2} = 9
  // The FCMLA path accesses hardware complex arithmetic (no ld2/st2
  // structure traffic); the compiler path never emits FCMLA.
  const std::size_t L = sve::lanes<double>();
  const std::size_t n = 16 * L;  // full vectors only, no tail
  const auto x = cplx_data(n, 11);
  const auto y = cplx_data(n, 12);
  std::vector<cplx> z(n);

  sve::CounterScope acle_scope;
  kernels::mult_cplx_acle(n, reinterpret_cast<const double*>(x.data()),
                          reinterpret_cast<const double*>(y.data()),
                          reinterpret_cast<double*>(z.data()));
  const auto acle = acle_scope.delta();

  sve::CounterScope auto_scope;
  kernels::mult_cplx_autovec(n, x.data(), y.data(), z.data());
  const auto autovec = auto_scope.delta();

  const std::size_t acle_iters = (2 * n + L - 1) / L;
  const std::size_t auto_iters = (n + L - 1) / L;
  EXPECT_EQ(acle.total(), 1 + 7 * acle_iters);
  EXPECT_EQ(autovec.total(), 1 + 9 * auto_iters);

  EXPECT_EQ(acle[sve::InsnClass::kFCmla], 2 * acle_iters);
  EXPECT_EQ(acle[sve::InsnClass::kStructLoad], 0u);  // no ld2/st2 on this path
  EXPECT_EQ(autovec[sve::InsnClass::kFCmla], 0u);  // no FCMLA from "the compiler"
  EXPECT_EQ(autovec[sve::InsnClass::kStructLoad], 2 * auto_iters);
  EXPECT_EQ(autovec[sve::InsnClass::kStructStore], auto_iters);
}

TEST_P(PaperKernelTest, FixedVariantHasNoLoopOverhead) {
  const std::size_t n = kernels::cplx_per_vector();
  const auto x = cplx_data(n, 13);
  const auto y = cplx_data(n, 14);
  std::vector<cplx> z(n);

  sve::CounterScope fixed_scope;
  kernels::mult_cplx_acle_fixed(reinterpret_cast<const double*>(x.data()),
                                reinterpret_cast<const double*>(y.data()),
                                reinterpret_cast<double*>(z.data()));
  const auto fixed = fixed_scope.delta();

  sve::CounterScope loop_scope;
  kernels::mult_cplx_acle(n, reinterpret_cast<const double*>(x.data()),
                          reinterpret_cast<const double*>(y.data()),
                          reinterpret_cast<double*>(z.data()));
  const auto loop = loop_scope.delta();

  // Same data processed; the fixed variant spends fewer predicate/loop
  // bookkeeping instructions (ptrue once vs whilelt + cntd per iteration).
  EXPECT_LE(fixed.total(), loop.total());
  EXPECT_EQ(fixed[sve::InsnClass::kFCmla], 2u);
  // Paper Sec. IV-D listing: ptrue, 2 loads, mov(dup), 2 fcmla, 1 store = 7.
  EXPECT_EQ(fixed.total(), 7u);
}

INSTANTIATE_TEST_SUITE_P(AllVL, PaperKernelTest,
                         ::testing::ValuesIn(sve::testing::all_vector_lengths()));

}  // namespace
}  // namespace svelat
