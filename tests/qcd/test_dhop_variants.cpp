// The oracle of the register-resident hopping kernel (qcd/dhop_kernel.h):
// every production form of the Wilson hopping term must equal the
// tensor-level dhop_via_cshift BYTE FOR BYTE.  The comparison is memcmp,
// not norm2(diff) == 0, which cannot see a -0.0 where the reference holds
// +0.0; the point source makes most lanes exact zeros, so signed zeros are
// exercised everywhere.  Minus gamma5 of the point source holds -0 in the
// zero lanes of spins 0-1 and +0 in spins 2-3: there the kernel's fused
// a +- i*x (one FCADD on sve-fcmla) yields a half spinor whose zeros'
// signs differ from the reference's FADD(a, FCADD(0, x)), which the bytes
// must not show.
//
// Forms: WilsonDirac::dhop, BlockSchurEvenOddWilson::dhop_eo / dhop_oe at
// N = 1, mhat / mhat_dag / mhat_norm2 per column, and
// the 2-rank DistributedWilsonDirac's dhop and the Schur operator over it
// (interior and boundary parity sweeps, half faces, the fused diagonal and
// gamma5 hooks).  Backends
// generic, sve-fcmla and sve-real; f64 and f32; VL 128, 256 and 512.  The
// parity and Schur references run the tensor-level hop on zero-padded full
// fields: a site of one parity only reads sites of the other, so the
// padding never enters its arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "lattice/fill.h"
#include "qcd/block.h"
#include "qcd/qcd.h"
#include "sve/sve.h"

namespace svelat::qcd {
namespace {

template <class FieldT>
bool bytes_equal(const FieldT& a, const FieldT& b) {
  if (a.osites() != b.osites()) return false;
  for (std::int64_t o = 0; o < a.osites(); ++o)
    if (std::memcmp(&a[o], &b[o], sizeof(a[o])) != 0) return false;
  return true;
}

template <class vobj, class GridT>
bool bytes_equal(const lattice::BlockLattice<vobj, 1, GridT>& a,
                 const lattice::BlockLattice<vobj, 1, GridT>& b) {
  if (a.osites() != b.osites()) return false;
  for (std::int64_t o = 0; o < a.osites(); ++o)
    if (std::memcmp(&a.at(o, 0), &b.at(o, 0), sizeof(vobj)) != 0) return false;
  return true;
}

enum class Source { kGaussian, kPoint, kMinusGamma5Point };

const char* source_name(Source s) {
  switch (s) {
    case Source::kGaussian: return "gaussian";
    case Source::kPoint: return "point";
    case Source::kMinusGamma5Point: return "-gamma5 point";
  }
  return "?";
}

template <class S>
void fill_source(Source src, LatticeFermion<S>& psi) {
  if (src == Source::kGaussian) {
    gaussian_fill(SiteRNG(43), psi);
    return;
  }
  psi.set_zero();
  auto s = tensor::Zero<typename LatticeFermion<S>::scalar_object>();
  s(2)(1) = typename S::scalar_type(1, 0);
  psi.poke({1, 2, 3, 4}, s);  // an even site, so the Schur checks see it
  if (src == Source::kMinusGamma5Point)
    thread_for(psi.osites(), [&](std::int64_t o) { psi[o] = -gamma5(psi[o]); });
}

constexpr Source kSources[] = {Source::kGaussian, Source::kPoint,
                               Source::kMinusGamma5Point};

/// Single-threaded: the oracle checks arithmetic, which is bitwise
/// thread-count invariant (support/parallel.h), and its thousands of tiny
/// site loops would otherwise spend their time in OpenMP team start-up
/// when ctest runs suites side by side.
template <class S>
class DhopOracle : public ::testing::Test {
 protected:
  using Field = LatticeFermion<S>;
  using Half = HalfLatticeFermion<S>;

  DhopOracle()
      : threads_(1),
        vl_(8 * S::vlb),
        grid_({4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        gauge_(&grid_) {
    random_gauge(SiteRNG(42), gauge_);
  }

  Field source(Source src) {
    Field psi(&grid_);
    fill_source(src, psi);
    return psi;
  }

  Field ref_dhop(const Field& in) {
    Field out(&grid_);
    dhop_via_cshift(gauge_, in, out);
    return out;
  }

  /// Dh restricted to a parity, at tensor level: pad `in` with zeros to
  /// the full lattice, hop, keep the sites of out's parity.
  void ref_dhop_half(const Half& in, Half& out) {
    Field full(&grid_);
    full.set_zero();
    lattice::set_checkerboard(full, in);
    lattice::pick_checkerboard(ref_dhop(full), out);
  }

  ThreadCountGuard threads_;
  sve::VLGuard vl_;
  lattice::GridCartesian grid_;
  GaugeField<S> gauge_;
};

template <typename T, std::size_t VLB, typename P>
using SC = simd::SimdComplex<T, VLB, P>;

using OracleTypes = ::testing::Types<
    SC<double, simd::kVLB128, simd::Generic>, SC<double, simd::kVLB256, simd::Generic>,
    SC<double, simd::kVLB512, simd::Generic>, SC<float, simd::kVLB128, simd::Generic>,
    SC<float, simd::kVLB256, simd::Generic>, SC<float, simd::kVLB512, simd::Generic>,
    SC<double, simd::kVLB128, simd::SveFcmla>, SC<double, simd::kVLB256, simd::SveFcmla>,
    SC<double, simd::kVLB512, simd::SveFcmla>, SC<float, simd::kVLB128, simd::SveFcmla>,
    SC<float, simd::kVLB256, simd::SveFcmla>, SC<float, simd::kVLB512, simd::SveFcmla>,
    SC<double, simd::kVLB128, simd::SveReal>, SC<double, simd::kVLB256, simd::SveReal>,
    SC<double, simd::kVLB512, simd::SveReal>, SC<float, simd::kVLB128, simd::SveReal>,
    SC<float, simd::kVLB256, simd::SveReal>, SC<float, simd::kVLB512, simd::SveReal>>;

struct OracleNames {
  template <class S>
  static std::string GetName(int) {
    std::string backend = S::policy_type::name;
    for (char& c : backend)
      if (c == '-') c = '_';
    return backend + (sizeof(typename S::real_type) == 8 ? "_f64_" : "_f32_") +
           std::to_string(8 * S::vlb);
  }
};

TYPED_TEST_SUITE(DhopOracle, OracleTypes, OracleNames);

TYPED_TEST(DhopOracle, WilsonDiracDhop) {
  using Field = LatticeFermion<TypeParam>;
  const WilsonDirac<TypeParam> dirac(this->gauge_, 0.0);
  for (const Source src : kSources) {
    const Field psi = this->source(src);
    Field out(&this->grid_);
    dirac.dhop(psi, out);
    EXPECT_TRUE(bytes_equal(out, this->ref_dhop(psi))) << source_name(src);
  }
}

TYPED_TEST(DhopOracle, EvenOddDhop) {
  using Field = LatticeFermion<TypeParam>;
  using Half = HalfLatticeFermion<TypeParam>;
  const SchurEvenOddWilson<TypeParam> schur(this->gauge_, 0.0);
  const BlockSchurEvenOddWilson<TypeParam, 1> eo(schur);
  // Dh of a half field into the opposite parity: the operator's
  // dhop_eo / dhop_oe at N = 1.
  const auto hop = [&](const Half& in) {
    const bool to_even = in.grid()->parity() == lattice::kParityOdd;
    HalfBlockFermion<TypeParam, 1> bin(in.grid()),
        bout(to_even ? eo.even_grid() : eo.odd_grid());
    bin.copy_in_column(0, in);
    if (to_even) eo.dhop_eo(bin, bout);
    else eo.dhop_oe(bin, bout);
    Half out(bout.grid());
    bout.copy_out_column(0, out);
    return out;
  };
  for (const Source src : kSources) {
    const Field psi = this->source(src);
    Half in_e(eo.even_grid()), in_o(eo.odd_grid());
    lattice::pick_checkerboard(psi, in_e);
    lattice::pick_checkerboard(psi, in_o);
    Half ref_e(eo.even_grid()), ref_o(eo.odd_grid());
    this->ref_dhop_half(in_o, ref_e);
    this->ref_dhop_half(in_e, ref_o);
    EXPECT_TRUE(bytes_equal(hop(in_o), ref_e)) << "dhop_eo " << source_name(src);
    EXPECT_TRUE(bytes_equal(hop(in_e), ref_o)) << "dhop_oe " << source_name(src);
  }
}

/// Column j of every block form holds source kSources[j].
constexpr int kCols = static_cast<int>(std::size(kSources));

TYPED_TEST(DhopOracle, BlockSchurMhatAndMhatDag) {
  using S = TypeParam;
  using Half = HalfLatticeFermion<S>;
  const SchurEvenOddWilson<S> schur(this->gauge_, 0.2);
  const BlockSchurEvenOddWilson<S, kCols> bop(schur);
  const auto* even = schur.even_grid();
  HalfBlockFermion<S, kCols> in(even), out_mhat(even), out_dag(even), out_norm(even);
  std::vector<Half> cols;
  for (int j = 0; j < kCols; ++j) {
    cols.emplace_back(even);
    lattice::pick_checkerboard(this->source(kSources[j]), cols.back());
    in.copy_in_column(j, cols.back());
  }
  bop.mhat(in, out_mhat);
  bop.mhat_dag(in, out_dag);
  const std::array<double, kCols> norms = bop.mhat_norm2(in, out_norm);

  const double d = schur.diag();
  const S a(typename S::scalar_type(d, 0.0));
  const S b(typename S::scalar_type(-0.25 / d, 0.0));
  // Dh_eo Dh_oe x through two zero-padded tensor-level hops.
  const auto ref_hop2 = [&](const Half& x, Half& out) {
    Half t(schur.odd_grid());
    this->ref_dhop_half(x, t);
    this->ref_dhop_half(t, out);
  };
  Half got(even), hop(even), g5(even);
  std::vector<Half> want_mhat;
  for (int j = 0; j < kCols; ++j) {
    const Half& x = cols[static_cast<std::size_t>(j)];
    want_mhat.emplace_back(even);
    Half& want = want_mhat.back();
    ref_hop2(x, hop);
    thread_for(x.osites(), [&](std::int64_t h) { want[h] = a * x[h] + b * hop[h]; });
    out_mhat.copy_out_column(j, got);
    EXPECT_TRUE(bytes_equal(got, want)) << "mhat " << source_name(kSources[j]);
    out_norm.copy_out_column(j, got);
    EXPECT_TRUE(bytes_equal(got, want)) << "mhat_norm2 " << source_name(kSources[j]);

    Half want_dag(even);
    apply_gamma5(x, g5);
    ref_hop2(g5, hop);
    thread_for(x.osites(),
               [&](std::int64_t h) { want_dag[h] = gamma5(a * g5[h] + b * hop[h]); });
    out_dag.copy_out_column(j, got);
    EXPECT_TRUE(bytes_equal(got, want_dag)) << "mhat_dag " << source_name(kSources[j]);
  }

  // mhat_norm2's pAp: per-site innerProduct of the reference result
  // through the same chunked reduction tree.
  using Acc = lattice::ColumnArray<S, kCols>;
  const Acc acc =
      parallel_reduce(even->osites(), Acc::filled(S::zero()), [&](std::int64_t h) {
        Acc t;
        for (int j = 0; j < kCols; ++j) {
          const auto& v = want_mhat[static_cast<std::size_t>(j)][h];
          t.v[j] = tensor::innerProduct(v, v);
        }
        return t;
      });
  for (int j = 0; j < kCols; ++j)
    EXPECT_EQ(norms[static_cast<std::size_t>(j)], std::real(reduce(acc.v[j])))
        << "mhat_norm2 pAp " << source_name(kSources[j]);
}

TYPED_TEST(DhopOracle, DistributedTwoRankDhop) {
  using S = TypeParam;
  using Field = LatticeFermion<S>;
  using HalfBlock = HalfBlockFermion<S, 1>;
  using DistOp = comms::DistributedWilsonDirac<S>;
  const lattice::Coordinate dims{4, 4, 4, 8};
  const int split = 3;
  const int ranks = 2;
  const double mass = 0.2;
  const lattice::Coordinate layout = comms::split_simd_layout(dims, split, S::Nsimd());
  lattice::GridCartesian global(dims, layout);
  GaugeField<S> gauge(&global);
  random_gauge(SiteRNG(42), gauge);
  const comms::RankDecomposition decomp(dims, split, ranks, layout);
  // The single-rank N = 1 Schur operator: the reference of the
  // distributed one, whose boundary sites read their off-rank neighbours
  // (gamma5 applied on load in mhat_dag) from the ghost half faces.
  const SchurEvenOddWilson<S> schur(gauge, mass);
  const BlockSchurEvenOddWilson<S, 1> bop(schur);

  for (const Source src : kSources) {
    Field psi(&global), want(&global), want_mhat(&global), want_dag(&global);
    fill_source(src, psi);
    dhop_via_cshift(gauge, psi, want);
    HalfBlock in(schur.even_grid()), out(schur.even_grid());
    lattice::pick_checkerboard(psi, in, 0);
    // Even-site results on full fields, so scatter_rank cuts each slab.
    want_mhat.set_zero();
    want_dag.set_zero();
    bop.mhat(in, out);
    lattice::set_checkerboard(want_mhat, out, 0);
    bop.mhat_dag(in, out);
    lattice::set_checkerboard(want_dag, out, 0);
    const double want_pap = bop.mhat_norm2(in, out)[0];

    // One thread per rank over an in-process socket world; site loops run
    // serially inside rank threads.
    comms::SocketWorld world(ranks);
    std::vector<std::array<bool, 4>> equal(ranks);
    set_force_serial(true);
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r)
      threads.emplace_back([&, r] {
        GaugeField<S> u_local(decomp.grid(r));
        for (int mu = 0; mu < lattice::Nd; ++mu)
          u_local.U[static_cast<std::size_t>(mu)] =
              comms::scatter_rank(decomp, gauge.U[static_cast<std::size_t>(mu)], r);
        const Field psi_r = comms::scatter_rank(decomp, psi, r);
        const DistOp op(decomp, world.rank(r), r, u_local, mass);
        std::array<bool, 4>& eq = equal[static_cast<std::size_t>(r)];
        Field out_full(decomp.grid(r));
        op.dhop(psi_r, out_full);
        eq[0] = bytes_equal(out_full, comms::scatter_rank(decomp, want, r));

        const BlockSchurEvenOddWilson<S, 1, DistOp> dop(op);
        HalfBlock in_r(op.even_grid()), out_r(op.even_grid()), ref_r(op.even_grid());
        lattice::pick_checkerboard(psi_r, in_r, 0);
        dop.mhat(in_r, out_r);
        lattice::pick_checkerboard(comms::scatter_rank(decomp, want_mhat, r), ref_r, 0);
        eq[1] = bytes_equal(out_r, ref_r);
        dop.mhat_dag(in_r, out_r);
        lattice::pick_checkerboard(comms::scatter_rank(decomp, want_dag, r), ref_r, 0);
        eq[2] = bytes_equal(out_r, ref_r);
        // The fused pAp through the ring on the half grids.
        eq[3] = dop.mhat_norm2(in_r, out_r)[0] == want_pap;
      });
    for (std::thread& t : threads) t.join();
    set_force_serial(false);
    for (int r = 0; r < ranks; ++r) {
      const std::array<bool, 4>& eq = equal[static_cast<std::size_t>(r)];
      EXPECT_TRUE(eq[0]) << "dhop rank " << r << " " << source_name(src);
      EXPECT_TRUE(eq[1]) << "mhat rank " << r << " " << source_name(src);
      EXPECT_TRUE(eq[2]) << "mhat_dag rank " << r << " " << source_name(src);
      EXPECT_TRUE(eq[3]) << "mhat_norm2 pAp rank " << r << " " << source_name(src);
    }
  }
}

// Per-site instruction ceiling of the production hop at sve-fcmla/512 on
// the bench_dslash lattice (bench/baseline.json's Dhop/fcmla/512 row).  A
// kernel that round-trips its values through memory between operations
// exceeds it several times over.
TEST(DhopKernelCeiling, FcmlaVL512InstructionsPerSite) {
  using S = SC<double, simd::kVLB512, simd::SveFcmla>;
  sve::VLGuard vl(512);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  GaugeField<S> gauge(&grid);
  random_gauge(SiteRNG(2018), gauge);
  LatticeFermion<S> psi(&grid), out(&grid);
  gaussian_fill(SiteRNG(5), psi);
  const WilsonDirac<S> dirac(gauge, 0.0);
  const sve::CounterScope scope;
  dirac.dhop(psi, out);
  const double per_site =
      static_cast<double>(scope.delta().total()) / static_cast<double>(grid.gsites());
  EXPECT_LE(per_site, 154.5);
}

// Per-site instruction ceiling of the Schur normal operator at
// sve-fcmla/512: Mhat^dag Mhat at one right-hand side, four parity sweeps
// with the diagonal and gamma5 fused into them, through both callers of
// the one SchurEvenOddWilson sweep on the same grid -- the single-rank
// hop provider and the one-rank DistributedWilsonDirac (interior and
// boundary site lists, half faces, overlap schedule).  The bound is
// 169,244 instructions over the 512 full-lattice sites: the distributed
// schedule adds no vector instructions.
TEST(DhopKernelCeiling, DistributedSchurMhatDagMhatFcmlaVL512InstructionsPerSite) {
  using S = SC<double, simd::kVLB512, simd::SveFcmla>;
  using DistOp = comms::DistributedWilsonDirac<S>;
  sve::VLGuard vl(512);
  const lattice::Coordinate dims{4, 4, 4, 8};
  const int split = 3;
  const comms::RankDecomposition decomp(
      dims, split, 1, comms::split_simd_layout(dims, split, S::Nsimd()));
  const lattice::GridCartesian* grid = decomp.grid(0);
  GaugeField<S> gauge(grid);
  random_gauge(SiteRNG(2018), gauge);
  LatticeFermion<S> psi(grid);
  gaussian_fill(SiteRNG(5), psi);
  const auto per_site = [&](const auto& bop) {
    HalfBlockFermion<S, 1> in(bop.even_grid()), mid(bop.even_grid()),
        out(bop.even_grid());
    lattice::pick_checkerboard(psi, in, 0);
    const sve::CounterScope scope;
    bop.mhat(in, mid);
    bop.mhat_dag(mid, out);
    return static_cast<double>(scope.delta().total()) /
           static_cast<double>(grid->gsites());
  };
  const SchurEvenOddWilson<S> schur(gauge, 0.2);
  EXPECT_LE(per_site(BlockSchurEvenOddWilson<S, 1>(schur)), 330.5546875)
      << "single-rank SchurEvenOddWilson";
  comms::SimCommunicator comm(1);
  const DistOp op(decomp, comm, 0, gauge, 0.2);
  EXPECT_LE(per_site(BlockSchurEvenOddWilson<S, 1, DistOp>(op)), 330.5546875)
      << "one-rank DistributedWilsonDirac";
}

// Instructions per SIMD vector of the Schur engine's linear algebra at
// sve-fcmla/512 (lattice/block.h), N = 1 and 12 columns on the
// bench_dslash lattice.  A register-resident pass issues its data's loads,
// stores and arithmetic plus a per-site PTRUE, zero, coefficient loads and
// reduction store; a pass that round-trips each operation through
// SimdComplex's memory-level functors issues more than twice the ceiling.
template <int N>
void expect_linalg_ceilings() {
  using S = SC<double, simd::kVLB512, simd::SveFcmla>;
  using Spinor = SpinColourVector<S>;
  using Grid = lattice::GridCartesian;
  using Block = lattice::BlockLattice<Spinor, N>;
  sve::VLGuard vl(512);
  Grid grid({4, 4, 4, 8}, Grid::default_simd_layout(S::Nsimd()));
  Block x(&grid), y(&grid), r(&grid);
  {
    LatticeFermion<S> tmp(&grid);
    for (int j = 0; j < N; ++j) {
      gaussian_fill(SiteRNG(60 + static_cast<unsigned>(j)), tmp);
      x.copy_in_column(j, tmp);
      gaussian_fill(SiteRNG(80 + static_cast<unsigned>(j)), tmp);
      y.copy_in_column(j, tmp);
    }
  }
  std::array<double, N> a;
  for (int j = 0; j < N; ++j) a[static_cast<std::size_t>(j)] = 0.3 + 0.01 * j;
  const auto all = lattice::all_columns<N>();
  const double vectors = static_cast<double>(grid.osites()) * N * Ns * Nc;
  const auto per_vector = [&](auto&& pass) {
    const sve::CounterScope scope;
    pass();
    return static_cast<double>(scope.delta().total()) / vectors;
  };
  EXPECT_LE(per_vector([&] {
              (void)lattice::block_axpy_norm2<Spinor, N, Grid>(r, a, x, y, all);
            }), 10.0)
      << "block_axpy_norm2, N = " << N;
  EXPECT_LE(per_vector([&] {
              lattice::block_xp_update<Spinor, N, Grid>(x, y, r, a, a, all);
            }), 11.5)
      << "block_xp_update, N = " << N;
  EXPECT_LE(per_vector([&] { (void)lattice::block_norm2(x); }), 5.0)
      << "block_norm2, N = " << N;
  EXPECT_LE(per_vector([&] { lattice::block_axpy(r, 0.5, x, y); }), 6.5)
      << "block_axpy, N = " << N;
}

TEST(LinalgCeiling, FcmlaVL512InstructionsPerVector) {
  const ThreadCountGuard one(1);
  expect_linalg_ceilings<1>();
  expect_linalg_ceilings<12>();
}

TEST(DhopVariants, WideVector1024LatticeWorks) {
  // Paper Sec. V-B: wider vectors are possible with extra specialization.
  // The SIMD layer carries 1024-bit vectors; an 8-lane vComplexD lattice
  // must still reproduce the scalar reference.
  using S = simd::SimdComplex<double, simd::kVLB1024, simd::SveFcmla>;
  sve::VLGuard vl(1024);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  GaugeField<S> gauge(&grid);
  random_gauge(SiteRNG(7), gauge);
  LatticeFermion<S> psi(&grid), out(&grid), ref(&grid);
  gaussian_fill(SiteRNG(8), psi);
  const WilsonDirac<S> dirac(gauge, 0.0);
  dirac.dhop(psi, out);
  dhop_reference(gauge, psi, ref);
  EXPECT_LT(norm2(out - ref) / norm2(ref), 1e-24);
}

}  // namespace
}  // namespace svelat::qcd
