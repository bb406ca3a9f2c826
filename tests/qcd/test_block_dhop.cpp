// Batched multi-RHS Schur operator kernels, column by column.
//
// qcd/block.h's contract: column j of every batched kernel performs the
// same floating-point operations in the same order as a single-column
// application, so batched applications are BITWISE equal per column --
// including the fused gamma5 (mhat_dag) and fused-diagonal forms.  The
// Schur operator has no other implementation, so its N-wide columns are
// checked against N = 1 (mhat, mhat_dag and mhat_norm2 per column are
// pinned bytewise against the tensor-level reference by DhopOracle,
// test_dhop_variants).
// mhat_norm2's RETURNED pAp value regroups <p, Mhat^dag Mhat p> into
// |Mhat p|^2 through the chunked reduction tree: bitwise equal to
// norm2(Mhat p), eps-equal to the two-pass inner product.
#include "qcd/block.h"

#include <gtest/gtest.h>

#include "lattice/fill.h"
#include "qcd/qcd.h"
#include "sve/sve.h"

namespace svelat::qcd {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Half = HalfLatticeFermion<S>;

template <class FieldT>
bool fields_bitwise(const FieldT& a, const FieldT& b) {
  using vobj = typename FieldT::vector_object;
  for (std::int64_t o = 0; o < a.osites(); ++o) {
    const auto* pa = reinterpret_cast<const double*>(&a[o]);
    const auto* pb = reinterpret_cast<const double*>(&b[o]);
    for (std::size_t k = 0; k < sizeof(vobj) / sizeof(double); ++k)
      if (pa[k] != pb[k]) return false;
  }
  return true;
}

template <int N>
struct BlockDhopFixture {
  BlockDhopFixture()
      : vl(8 * S::vlb),
        grid({4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        gauge(&grid),
        eo((random_gauge(SiteRNG(2018), gauge), gauge), 0.2) {}

  /// A block field plus its per-column sequential twins, on either grid.
  template <class GridP, class BlockT, class ColT>
  void fill(GridP grid_ptr, BlockT& blk, std::vector<ColT>& cols,
            unsigned seed_base) const {
    for (int j = 0; j < N; ++j) {
      cols.emplace_back(grid_ptr);
      gaussian_fill(SiteRNG(seed_base + static_cast<unsigned>(j)), cols.back());
      blk.copy_in_column(j, cols.back());
    }
  }

  sve::VLGuard vl;
  lattice::GridCartesian grid;
  GaugeField<S> gauge;
  SchurEvenOddWilson<S> eo;
};

constexpr int N = 4;

TEST(BlockDhop, SchurNormalOperatorColumnsMatchWidthOneBitwise) {
  BlockDhopFixture<N> f;
  const auto* even = f.eo.even_grid();
  BlockSchurEvenOddWilson<S, N> beo(f.eo);
  BlockSchurEvenOddWilson<S, 1> one(f.eo);
  HalfBlockFermion<S, N> in(even), mid(even), out(even);
  std::vector<Half> cols;
  f.fill(even, in, cols, 20);
  beo.mhat(in, mid);
  beo.mhat_dag(mid, out);

  HalfBlockFermion<S, 1> in1(even), mid1(even), out1(even);
  Half single(even), col(even);
  for (int j = 0; j < N; ++j) {
    in1.copy_in_column(0, cols[static_cast<std::size_t>(j)]);
    one.mhat(in1, mid1);
    one.mhat_dag(mid1, out1);
    out1.copy_out_column(0, single);
    out.copy_out_column(j, col);
    EXPECT_TRUE(fields_bitwise(col, single)) << "col " << j;
  }
}

TEST(BlockDhop, MhatNorm2FusesOperatorAndPapReduction) {
  BlockDhopFixture<N> f;
  const auto* even = f.eo.even_grid();
  BlockSchurEvenOddWilson<S, N> beo(f.eo);
  HalfBlockFermion<S, N> p(even), mp(even), ap(even);
  std::vector<Half> cols;
  f.fill(even, p, cols, 30);

  const std::array<double, N> pap = beo.mhat_norm2(p, mp);
  beo.mhat_dag(mp, ap);

  Half col(even), apc(even);
  for (int j = 0; j < N; ++j) {
    const auto u = static_cast<std::size_t>(j);
    // The fused pAp is bitwise norm2(Mhat p): same per-site |v|^2 values
    // through the same chunked reduction tree...
    mp.copy_out_column(j, col);
    EXPECT_EQ(pap[u], norm2(col)) << "col " << j;
    // ...and eps-equal to the two-pass <p, Mhat^dag Mhat p>.
    ap.copy_out_column(j, apc);
    const double pap_two_pass = std::real(innerProduct(cols[u], apc));
    EXPECT_NEAR(pap[u] / pap_two_pass, 1.0, 1e-12) << "col " << j;
  }
}

}  // namespace
}  // namespace svelat::qcd
