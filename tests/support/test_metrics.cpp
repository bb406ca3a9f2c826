// The wall-clock metrics registry: accumulation, rate math, the combined
// rate of several regions and the report.  Rates are machine-dependent,
// so assertions are structural (counts, monotonicity, field presence) --
// never "this kernel reaches X GB/s".
#include <gtest/gtest.h>

#include <string>

#include "support/metrics.h"

namespace svelat::metrics {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(MetricsTest, RegionStatsRateMath) {
  RegionStats s;
  s.calls = 4;
  s.seconds = 2.0;
  s.bytes = 8e9;
  EXPECT_DOUBLE_EQ(s.gb_per_sec(), 4.0);
  EXPECT_DOUBLE_EQ(s.calls_per_sec(), 2.0);

  // A region that never ran (or was timed at zero) reports zero rates,
  // not a division blow-up.
  EXPECT_DOUBLE_EQ(RegionStats{}.gb_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(RegionStats{}.calls_per_sec(), 0.0);
}

TEST_F(MetricsTest, RecordAccumulatesPerRegion) {
  record("alpha", 0.5, 100.0);
  record("alpha", 1.5, 300.0);
  record("beta", 0.25);

  const RegionStats a = get("alpha");
  EXPECT_EQ(a.calls, 2u);
  EXPECT_DOUBLE_EQ(a.seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.bytes, 400.0);
  EXPECT_EQ(get("beta").calls, 1u);
  EXPECT_DOUBLE_EQ(get("beta").bytes, 0.0);
  EXPECT_EQ(get("never-ran").calls, 0u);
}

TEST_F(MetricsTest, CombinedRateSumsBytesAndSecondsBeforeDividing) {
  record("eo", 1.0, 6e9);  // 6 GB/s alone
  record("oe", 3.0, 2e9);  // 0.667 GB/s alone
  // (6e9 + 2e9) B / (1 + 3) s = 2 GB/s, not the 3.33 mean of the two rates.
  EXPECT_DOUBLE_EQ(gb_per_sec({"eo", "oe"}), 2.0);
  // A region that never ran adds neither bytes nor seconds.
  EXPECT_DOUBLE_EQ(gb_per_sec({"eo", "never-ran", "oe"}), 2.0);
  EXPECT_DOUBLE_EQ(gb_per_sec({"never-ran"}), 0.0);
  // A timed region without bytes dilutes the rate with its seconds.
  record("timed", 4.0);
  EXPECT_DOUBLE_EQ(gb_per_sec({"eo", "oe", "timed"}), 1.0);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  record("zeta", 0.1);
  record("alpha", 0.1);
  record("mid", 0.1);
  const auto snap = snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[1].first, "mid");
  EXPECT_EQ(snap[2].first, "zeta");
}

TEST_F(MetricsTest, ScopedTimerRecordsCallsAndBytes) {
  {
    ScopedTimer t("scoped", 128.0);
    t.add_bytes(72.0);
  }
  const RegionStats s = get("scoped");
  EXPECT_EQ(s.calls, 1u);
  EXPECT_GE(s.seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.bytes, 200.0);
}

TEST_F(MetricsTest, ResetClearsTheRegistry) {
  record("gone", 1.0, 1.0);
  ASSERT_EQ(get("gone").calls, 1u);
  reset();
  EXPECT_EQ(get("gone").calls, 0u);
  EXPECT_TRUE(snapshot().empty());
}

TEST_F(MetricsTest, ReportNamesEveryRegion) {
  record("dhop", 0.5, 1e9);
  record("cg_linalg", 0.25);
  const std::string text = report();
  EXPECT_NE(text.find("dhop"), std::string::npos);
  EXPECT_NE(text.find("cg_linalg"), std::string::npos);
  EXPECT_NE(text.find("GB/s"), std::string::npos);
  EXPECT_NE(text.find("calls/s"), std::string::npos);
}

}  // namespace
}  // namespace svelat::metrics
