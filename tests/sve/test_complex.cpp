// FCMLA / FCADD tests: the complex-arithmetic core of the paper (Sec. III-D).
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "support/aligned.h"
#include "sve/sve.h"
#include "sve_test_util.h"

namespace svelat::sve {
namespace {

using cplx = std::complex<double>;
using testing::VLTest;

class ComplexTest : public VLTest {};

/// Pack complex values into a register with interleaved (re, im) layout.
svfloat64_t pack(const std::vector<cplx>& zs) {
  svfloat64_t r{};
  for (unsigned i = 0; i < zs.size() && 2 * i + 1 < svfloat64_t::kMaxLanes; ++i) {
    r.lane[2 * i] = zs[i].real();
    r.lane[2 * i + 1] = zs[i].imag();
  }
  return r;
}

cplx unpack(const svfloat64_t& v, unsigned i) {
  return {v.lane[2 * i], v.lane[2 * i + 1]};
}

std::vector<cplx> test_values(unsigned n, int tag) {
  std::vector<cplx> zs(n);
  for (unsigned i = 0; i < n; ++i)
    zs[i] = cplx(0.5 * tag + i, -1.25 * tag + 0.5 * i);
  return zs;
}

TEST_P(ComplexTest, FcmlaPairImplementsComplexMultiply) {
  // z = x * y by concatenating rotations 90 and 0 from a zero accumulator
  // (paper Eq. (2) and the Sec. IV-C listing).
  const unsigned pairs = lanes<double>() / 2;
  const auto xs = test_values(pairs, 1);
  const auto ys = test_values(pairs, 2);
  const svbool_t pg = svptrue_b64();
  const svfloat64_t x = pack(xs), y = pack(ys);
  svfloat64_t z = svcmla_x(pg, svdup_f64(0.), x, y, 90);
  z = svcmla_x(pg, z, x, y, 0);
  for (unsigned i = 0; i < pairs; ++i) {
    const cplx expect = xs[i] * ys[i];
    EXPECT_DOUBLE_EQ(unpack(z, i).real(), expect.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(z, i).imag(), expect.imag()) << i;
  }
}

TEST_P(ComplexTest, FcmlaRotationOrderIrrelevant) {
  const unsigned pairs = lanes<double>() / 2;
  const auto xs = test_values(pairs, 3);
  const auto ys = test_values(pairs, 4);
  const svbool_t pg = svptrue_b64();
  const svfloat64_t x = pack(xs), y = pack(ys);
  svfloat64_t z1 = svcmla_x(pg, svdup_f64(0.), x, y, 90);
  z1 = svcmla_x(pg, z1, x, y, 0);
  svfloat64_t z2 = svcmla_x(pg, svdup_f64(0.), x, y, 0);
  z2 = svcmla_x(pg, z2, x, y, 90);
  for (unsigned i = 0; i < lanes<double>(); ++i)
    EXPECT_DOUBLE_EQ(z1.lane[i], z2.lane[i]) << i;
}

TEST_P(ComplexTest, FcmlaConjugateMultiply) {
  // z = conj(x) * y via rotations 0 and 270 (paper Eq. (2), asterisk case).
  const unsigned pairs = lanes<double>() / 2;
  const auto xs = test_values(pairs, 5);
  const auto ys = test_values(pairs, 6);
  const svbool_t pg = svptrue_b64();
  const svfloat64_t x = pack(xs), y = pack(ys);
  svfloat64_t z = svcmla_x(pg, svdup_f64(0.), x, y, 0);
  z = svcmla_x(pg, z, x, y, 270);
  for (unsigned i = 0; i < pairs; ++i) {
    const cplx expect = std::conj(xs[i]) * ys[i];
    EXPECT_DOUBLE_EQ(unpack(z, i).real(), expect.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(z, i).imag(), expect.imag()) << i;
  }
}

TEST_P(ComplexTest, FcmlaAccumulates) {
  // z += x*y on a non-zero accumulator.
  const unsigned pairs = lanes<double>() / 2;
  const auto xs = test_values(pairs, 7);
  const auto ys = test_values(pairs, 8);
  const auto zs = test_values(pairs, 9);
  const svbool_t pg = svptrue_b64();
  svfloat64_t z = pack(zs);
  z = svcmla_x(pg, z, pack(xs), pack(ys), 90);
  z = svcmla_x(pg, z, pack(xs), pack(ys), 0);
  for (unsigned i = 0; i < pairs; ++i) {
    const cplx expect = zs[i] + xs[i] * ys[i];
    EXPECT_DOUBLE_EQ(unpack(z, i).real(), expect.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(z, i).imag(), expect.imag()) << i;
  }
}

TEST_P(ComplexTest, Fcmla180And270GiveSubtraction) {
  // rot 180 + rot 270 accumulate -(x*y).
  const unsigned pairs = lanes<double>() / 2;
  const auto xs = test_values(pairs, 10);
  const auto ys = test_values(pairs, 11);
  const auto zs = test_values(pairs, 12);
  const svbool_t pg = svptrue_b64();
  svfloat64_t z = pack(zs);
  z = svcmla_x(pg, z, pack(xs), pack(ys), 180);
  z = svcmla_x(pg, z, pack(xs), pack(ys), 270);
  for (unsigned i = 0; i < pairs; ++i) {
    // rot180: re -= xr*yr, im -= xr*yi; rot270: re += xi*yi, im -= xi*yr;
    // together exactly z - x*y.
    const cplx expect = zs[i] - xs[i] * ys[i];
    EXPECT_DOUBLE_EQ(unpack(z, i).real(), expect.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(z, i).imag(), expect.imag()) << i;
  }
}

TEST_P(ComplexTest, FcaddAddsRotatedOperand) {
  const unsigned pairs = lanes<double>() / 2;
  const auto as = test_values(pairs, 13);
  const auto bs = test_values(pairs, 14);
  const svbool_t pg = svptrue_b64();
  const svfloat64_t r90 = svcadd_x(pg, pack(as), pack(bs), 90);
  const svfloat64_t r270 = svcadd_x(pg, pack(as), pack(bs), 270);
  for (unsigned i = 0; i < pairs; ++i) {
    const cplx e90 = as[i] + cplx(0, 1) * bs[i];
    const cplx e270 = as[i] - cplx(0, 1) * bs[i];
    EXPECT_DOUBLE_EQ(unpack(r90, i).real(), e90.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(r90, i).imag(), e90.imag()) << i;
    EXPECT_DOUBLE_EQ(unpack(r270, i).real(), e270.real()) << i;
    EXPECT_DOUBLE_EQ(unpack(r270, i).imag(), e270.imag()) << i;
  }
}

TEST_P(ComplexTest, PredicationGuardsPerElement) {
  // Only the first complex pair active: remaining accumulator lanes unchanged.
  const unsigned nd = lanes<double>();
  const auto xs = test_values(nd / 2, 15);
  const auto ys = test_values(nd / 2, 16);
  svfloat64_t acc = svdup_f64(42.0);
  const svbool_t pg = svwhilelt_b64(0, 2);
  acc = svcmla_x(pg, acc, pack(xs), pack(ys), 90);
  acc = svcmla_x(pg, acc, pack(xs), pack(ys), 0);
  const cplx expect = cplx(42.0, 42.0) + xs[0] * ys[0];
  EXPECT_DOUBLE_EQ(acc.lane[0], expect.real());
  EXPECT_DOUBLE_EQ(acc.lane[1], expect.imag());
  for (unsigned i = 2; i < nd; ++i) EXPECT_EQ(acc.lane[i], 42.0) << i;
}

TEST_P(ComplexTest, FloatPrecision) {
  const unsigned pairs = lanes<float>() / 2;
  svfloat32_t x{}, y{};
  for (unsigned i = 0; i < pairs; ++i) {
    x.lane[2 * i] = 1.0f + i;
    x.lane[2 * i + 1] = 0.5f * i;
    y.lane[2 * i] = 2.0f - i;
    y.lane[2 * i + 1] = -0.25f * i;
  }
  const svbool_t pg = svptrue_b32();
  svfloat32_t z = svcmla_x(pg, svdup_f32(0.f), x, y, 90);
  z = svcmla_x(pg, z, x, y, 0);
  for (unsigned i = 0; i < pairs; ++i) {
    const std::complex<float> xi(x.lane[2 * i], x.lane[2 * i + 1]);
    const std::complex<float> yi(y.lane[2 * i], y.lane[2 * i + 1]);
    const std::complex<float> e = xi * yi;
    EXPECT_FLOAT_EQ(z.lane[2 * i], e.real()) << i;
    EXPECT_FLOAT_EQ(z.lane[2 * i + 1], e.imag()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVL, ComplexTest,
                         ::testing::ValuesIn(testing::all_vector_lengths()));

}  // namespace
}  // namespace svelat::sve
