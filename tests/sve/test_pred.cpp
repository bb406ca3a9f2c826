// Predicate intrinsic tests across all vector lengths.
#include <gtest/gtest.h>

#include "sve/sve.h"
#include "sve_test_util.h"

namespace svelat::sve {
namespace {

using testing::VLTest;

class PredTest : public VLTest {};

TEST_P(PredTest, PtrueActivatesAllElements) {
  const svbool_t pd = svptrue_b64();
  const svbool_t ps = svptrue_b32();
  const svbool_t ph = svptrue_b16();
  for (unsigned i = 0; i < lanes<double>(); ++i)
    EXPECT_TRUE(detail::pred_elem<double>(pd, i)) << i;
  for (unsigned i = 0; i < lanes<float>(); ++i)
    EXPECT_TRUE(detail::pred_elem<float>(ps, i)) << i;
  for (unsigned i = 0; i < lanes<std::uint16_t>(); ++i)
    EXPECT_TRUE(detail::pred_elem<std::uint16_t>(ph, i)) << i;
}

TEST_P(PredTest, PtrueElementGranularity) {
  // ptrue.d sets only the first byte of each 64-bit element, like hardware.
  const svbool_t pd = svptrue_b64();
  for (unsigned b = 0; b < vector_bytes(); ++b) {
    EXPECT_EQ(pd.byte[b], b % 8 == 0) << b;
  }
}

TEST_P(PredTest, PfalseDeactivatesEverything) {
  const svbool_t p = svpfalse_b();
  for (unsigned b = 0; b < vector_bytes(); ++b) EXPECT_FALSE(p.byte[b]);
  EXPECT_FALSE(svptest_any(svptrue_b8(), p));
}

TEST_P(PredTest, WhileltPartial) {
  const unsigned nd = lanes<double>();
  // Ask for 3 elements starting at 0: exactly min(3, nd) active.
  const svbool_t p = svwhilelt_b64(0, 3);
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(p, i), i < 3u) << i;
}

TEST_P(PredTest, WhileltOffset) {
  const unsigned nd = lanes<double>();
  // Elements j with 5 + j < 7 active: j in {0, 1}.
  const svbool_t p = svwhilelt_b64(5, 7);
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(p, i), i < 2u) << i;
}

TEST_P(PredTest, WhileltBeyondEndIsEmpty) {
  const svbool_t p = svwhilelt_b64(10, 10);
  EXPECT_FALSE(svptest_any(svptrue_b8(), p));
}

TEST_P(PredTest, WhileltFullEqualsPtrue) {
  const unsigned nd = lanes<double>();
  const svbool_t a = svwhilelt_b64(0, nd);
  const svbool_t b = svptrue_b64();
  for (unsigned i = 0; i < nd; ++i)
    EXPECT_EQ(detail::pred_elem<double>(a, i), detail::pred_elem<double>(b, i));
}

TEST_P(PredTest, ElementCounts) {
  EXPECT_EQ(svcntb(), vector_bytes());
  EXPECT_EQ(svcnth(), vector_bytes() / 2);
  EXPECT_EQ(svcntw(), vector_bytes() / 4);
  EXPECT_EQ(svcntd(), vector_bytes() / 8);
}

TEST_P(PredTest, CntpCountsActive) {
  const svbool_t pg = svptrue_b64();
  EXPECT_EQ(svcntp_b64(pg, svwhilelt_b64(0, 2)),
            std::min<std::uint64_t>(2, lanes<double>()));
  EXPECT_EQ(svcntp_b64(pg, svptrue_b64()), lanes<double>());
  EXPECT_EQ(svcntp_b64(pg, svpfalse_b()), 0u);
}

TEST_P(PredTest, PredicateLogicals) {
  const svbool_t pg = svptrue_b64();
  const svbool_t a = svwhilelt_b64(0, 3);
  const svbool_t b = svwhilelt_b64(0, 1);
  const svbool_t andp = svand_b_z(pg, a, b);
  const svbool_t orp = svorr_b_z(pg, a, b);
  const svbool_t eorp = sveor_b_z(pg, a, b);
  const svbool_t notb = svnot_b_z(pg, b);
  const unsigned nd = lanes<double>();
  for (unsigned i = 0; i < nd; ++i) {
    const bool ai = i < 3u, bi = i < 1u;
    EXPECT_EQ(detail::pred_elem<double>(andp, i), ai && bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(orp, i), ai || bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(eorp, i), ai != bi) << i;
    EXPECT_EQ(detail::pred_elem<double>(notb, i), !bi) << i;
  }
}

TEST_P(PredTest, PtestFirst) {
  EXPECT_TRUE(svptest_first(svptrue_b64(), svwhilelt_b64(0, 1)));
  EXPECT_FALSE(svptest_first(svptrue_b64(), svpfalse_b()));
}

TEST_P(PredTest, VlaLoopCoversExactlyNElements) {
  // The canonical VLA loop of paper Sec. IV-C: iterate i += svcntd() with
  // pg = whilelt(i, n); every element in [0, n) must be covered exactly once.
  const std::uint64_t n = 2 * lanes<double>() + 3;
  std::vector<unsigned> covered(n, 0);
  for (std::uint64_t i = 0; i < n; i += svcntd()) {
    const svbool_t pg = svwhilelt_b64(i, n);
    for (unsigned j = 0; j < lanes<double>(); ++j)
      if (detail::pred_elem<double>(pg, j)) ++covered[i + j];
  }
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1u) << i;
}

INSTANTIATE_TEST_SUITE_P(AllVL, PredTest,
                         ::testing::ValuesIn(testing::all_vector_lengths()));

}  // namespace
}  // namespace svelat::sve
