// BlockLattice linear algebra: per-column bitwise contracts.
//
// The multi-RHS engine's correctness story rests on these primitives
// reproducing the single-field kernels column by column BITWISE
// (lattice/block.h header): same coefficient splat, same primitives in the
// same order, same deterministic chunked reduction tree.  The masked
// variants must additionally leave frozen columns' bits untouched.
//
// BlockPassOracle holds every register-level pass of lattice/block.h, the
// width-1 functions BiCGSTAB calls included, against its memory-level
// lattice.h twin run on each column as a Lattice, with memcmp (which sees
// a -0.0 where == would not): backends generic, sve-fcmla and sve-real;
// VL 128 and 512 (and sve-fcmla/256 at N = 4); f64 and f32; N = 1 and 12;
// the passes on 1 and on 4 threads against the twin on 1.  The register
// fold behind every norm is held against tensor::innerProduct site by
// site.
#include "lattice/block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lattice/fill.h"
#include "qcd/types.h"
#include "sve/sve.h"

namespace svelat::lattice {
namespace {

template <class S_, int N_>
struct PassConfig {
  using S = S_;
  static constexpr int N = N_;
};

template <class C>
class BlockPassOracle : public ::testing::Test {
 protected:
  using S = typename C::S;
  /// The block width, as the column index type.
  static constexpr std::size_t W = C::N;
  using V = qcd::SpinColourVector<S>;
  using Col = Lattice<V>;
  using Blk = BlockLattice<V, C::N>;
  using Coeffs = std::array<double, W>;

  BlockPassOracle()
      : vl_(8 * S::vlb),
        // Every layout gets at least two reduction chunks.
        grid_({4, 4, 8, 8}, GridCartesian::default_simd_layout(S::Nsimd())) {}

  /// A block of gaussian columns, seeds from `seed`.
  Blk block(unsigned seed) const {
    Blk b(&grid_);
    Col tmp(&grid_);
    for (int j = 0; j < C::N; ++j) {
      gaussian_fill(SiteRNG(seed + static_cast<unsigned>(j)), tmp);
      b.copy_in_column(j, tmp);
    }
    return b;
  }

  Col column(const Blk& b, std::size_t u) const {
    Col c(&grid_);
    b.copy_out_column(static_cast<int>(u), c);
    return c;
  }

  static bool same_bytes(const Col& a, const Col& b) {
    for (std::int64_t o = 0; o < a.osites(); ++o)
      if (std::memcmp(&a[o], &b[o], sizeof(V)) != 0) return false;
    return true;
  }
  template <class T>
  static bool same_bytes(const T& a, const T& b) {
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  }

  static Coeffs coeffs(double base) {
    Coeffs a;
    for (std::size_t u = 0; u < W; ++u) a[u] = base - 0.07 * static_cast<double>(u);
    return a;
  }

  /// Column W / 2 frozen; none at N = 1, whose one column must run.
  static ColumnMask<C::N> one_frozen() {
    ColumnMask<C::N> m = all_columns<C::N>();
    if (W > 1) m[W / 2] = false;
    return m;
  }

  /// Runs `twin` (the lattice.h oracle, on columns of the inputs) on one
  /// thread, then `pass` on `threads` threads, then `check`.
  template <class Twin, class Pass, class Check>
  static void run(int threads, Twin&& twin, Pass&& pass, Check&& check) {
    {
      const ThreadCountGuard guard(1);
      twin();
    }
    {
      const ThreadCountGuard guard(threads);
      pass();
    }
    check();
  }

  sve::VLGuard vl_;
  GridCartesian grid_;
};

template <typename T, std::size_t VLB, typename P, int N>
using PC = PassConfig<simd::SimdComplex<T, VLB, P>, N>;

using simd::Generic;
using simd::kVLB128;
using simd::kVLB512;
using simd::SveFcmla;
using simd::SveReal;

/// Every sve-fcmla configuration; generic and sve-real each at both VLs,
/// precisions and widths, though not in every combination.
using PassConfigs = ::testing::Types<
    PC<double, simd::kVLB256, SveFcmla, 4>,
    PC<double, kVLB128, Generic, 1>, PC<double, kVLB512, Generic, 12>,
    PC<float, kVLB128, Generic, 12>, PC<float, kVLB512, Generic, 1>,
    PC<double, kVLB128, SveFcmla, 1>, PC<double, kVLB128, SveFcmla, 12>,
    PC<double, kVLB512, SveFcmla, 1>, PC<double, kVLB512, SveFcmla, 12>,
    PC<float, kVLB128, SveFcmla, 1>, PC<float, kVLB128, SveFcmla, 12>,
    PC<float, kVLB512, SveFcmla, 1>, PC<float, kVLB512, SveFcmla, 12>,
    PC<double, kVLB128, SveReal, 12>, PC<double, kVLB512, SveReal, 1>,
    PC<float, kVLB128, SveReal, 1>, PC<float, kVLB512, SveReal, 12>>;

struct PassNames {
  template <class C>
  static std::string GetName(int) {
    using S = typename C::S;
    std::string backend = S::policy_type::name;
    for (char& c : backend)
      if (c == '-') c = '_';
    return backend + (sizeof(typename S::real_type) == 8 ? "_f64_" : "_f32_") +
           std::to_string(8 * S::vlb) + "_N" + std::to_string(C::N);
  }
};

TYPED_TEST_SUITE(BlockPassOracle, PassConfigs, PassNames);

constexpr int kThreadCounts[] = {1, 4};

TYPED_TEST(BlockPassOracle, ColumnRoundTripIsExact) {
  const auto b = this->block(5);
  for (std::size_t j = 0; j < TestFixture::W; ++j) {
    typename TestFixture::Col want(&this->grid_);
    gaussian_fill(SiteRNG(5 + static_cast<unsigned>(j)), want);
    EXPECT_TRUE(this->same_bytes(this->column(b, j), want)) << "col " << j;
  }
}

// The register fold every norm runs (tensor/regs.h) against
// tensor::innerProduct, site by site: a site's fold sits far below the
// rounding of a whole-field sum, so the field norms alone would let a
// regrouped fold through.  Spinors (iVector of iVector) and colour
// matrices (iMatrix); the walk's ordinals count the elements in memory
// order.
TYPED_TEST(BlockPassOracle, ElementFoldIsTensorInnerProduct) {
  using S = typename TestFixture::S;
  using R = simd::RegsOf<S>;
  Lattice<qcd::SpinColourVector<S>> x(&this->grid_), y(&this->grid_);
  Lattice<qcd::ColourMatrix<S>> u(&this->grid_), v(&this->grid_);
  gaussian_fill(SiteRNG(210), x);
  gaussian_fill(SiteRNG(220), y);
  gaussian_fill(SiteRNG(230), u);
  gaussian_fill(SiteRNG(240), v);
  const auto fold = [](const auto& a, const auto& b) {
    const typename R::pred pg = R::ptrue();
    const typename R::reg z = R::zero();
    S out;
    const auto term = [&](int, const S& ae, const S& be) {
      return R::mult_conj(pg, z, R::load(pg, ae.raw()), R::load(pg, be.raw()));
    };
    R::store(pg, out.raw(), tensor::fold_elements<R>(pg, term, a, b));
    return out;
  };
  for (std::int64_t o = 0; o < x.osites(); ++o) {
    EXPECT_TRUE(this->same_bytes(fold(x[o], x[o]), tensor::innerProduct(x[o], x[o])))
        << "spinor norm, site " << o;
    EXPECT_TRUE(this->same_bytes(fold(x[o], y[o]), tensor::innerProduct(x[o], y[o])))
        << "spinor product, site " << o;
    EXPECT_TRUE(this->same_bytes(fold(u[o], v[o]), tensor::innerProduct(u[o], v[o])))
        << "matrix product, site " << o;
  }
  int next = 0;
  const auto base = reinterpret_cast<std::uintptr_t>(&x[0]);
  tensor::for_each_element(
      [&](int k, const S& e) {
        EXPECT_EQ(k, next++);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&e) - base,
                  static_cast<std::uintptr_t>(k) * sizeof(S));
      },
      x[0]);
  EXPECT_EQ(next, tensor::element_count<qcd::SpinColourVector<S>>);
}

TYPED_TEST(BlockPassOracle, ElementwisePasses) {
  constexpr std::size_t W = TestFixture::W;
  using Col = typename TestFixture::Col;
  for (const int threads : kThreadCounts) {
    auto x = this->block(10), y = this->block(30), r = this->block(50);
    std::vector<Col> want;
    for (std::size_t j = 0; j < W; ++j) want.push_back(this->column(r, j));
    const auto check = [&](const char* pass, const auto& got) {
      for (std::size_t j = 0; j < W; ++j)
        EXPECT_TRUE(this->same_bytes(this->column(got, j), want[j]))
            << pass << " col " << j << ", " << threads << " threads";
    };
    this->run(
        threads,
        [&] {
          for (Col& w : want) w.set_zero();
        },
        [&] { r.set_zero(); }, [&] { check("set_zero", r); });
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j)
            axpy(want[j], 0.37, this->column(x, j), this->column(y, j));
        },
        [&] { block_axpy(r, 0.37, x, y); }, [&] { check("block_axpy", r); });
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j) {
            want[j] = this->column(x, j);
            want[j] += this->column(y, j);
          }
        },
        [&] { block_add(x, y); }, [&] { check("block_add", x); });
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j) want[j] = 0.61 * this->column(x, j);
        },
        [&] { block_scale(x, 0.61); }, [&] { check("block_scale", x); });
  }
}

TYPED_TEST(BlockPassOracle, NormsAndMaskedCgPasses) {
  constexpr std::size_t W = TestFixture::W;
  constexpr int N = TypeParam::N;
  using V = typename TestFixture::V;
  using Col = typename TestFixture::Col;
  const auto mask = TestFixture::one_frozen();
  for (const int threads : kThreadCounts) {
    auto x = this->block(70), y = this->block(90), r = this->block(110),
         p = this->block(130);
    std::array<double, W> got{}, want{};
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j) want[j] = norm2(this->column(x, j));
        },
        [&] { got = block_norm2(x); },
        [&] {
          EXPECT_TRUE(this->same_bytes(got, want))
              << "block_norm2, " << threads << " threads";
        });
    // r_j = a_j x_j + y_j and |r_j|^2; the frozen column keeps r's bits
    // and reports 0.
    const auto a = TestFixture::coeffs(0.45);
    std::vector<Col> r_want;
    for (std::size_t j = 0; j < W; ++j) r_want.push_back(this->column(r, j));
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j)
            want[j] = mask[j] ? axpy_norm2(r_want[j], a[j], this->column(x, j),
                                           this->column(y, j))
                              : 0.0;
        },
        [&] { got = block_axpy_norm2<V, N, GridCartesian>(r, a, x, y, mask); },
        [&] {
          EXPECT_TRUE(this->same_bytes(got, want))
              << "block_axpy_norm2, " << threads << " threads";
          for (std::size_t j = 0; j < W; ++j)
            EXPECT_TRUE(this->same_bytes(this->column(r, j), r_want[j]))
                << "block_axpy_norm2 col " << j << (mask[j] ? "" : " (frozen)") << ", "
                << threads << " threads";
        });
    // x_j += alpha_j p_j, then p_j = beta_j p_j + r_j from the old p_j.
    const auto alpha = TestFixture::coeffs(0.83), beta = TestFixture::coeffs(0.29);
    std::vector<Col> x_want, p_want;
    this->run(
        threads,
        [&] {
          for (std::size_t j = 0; j < W; ++j) {
            x_want.push_back(this->column(x, j));
            p_want.push_back(this->column(p, j));
            if (!mask[j]) continue;
            axpy(x_want[j], alpha[j], p_want[j], x_want[j]);
            axpy(p_want[j], beta[j], p_want[j], this->column(r, j));
          }
        },
        [&] { block_xp_update<V, N, GridCartesian>(x, p, r, alpha, beta, mask); },
        [&] {
          for (std::size_t j = 0; j < W; ++j) {
            EXPECT_TRUE(this->same_bytes(this->column(x, j), x_want[j]))
                << "block_xp_update x col " << j << ", " << threads << " threads";
            EXPECT_TRUE(this->same_bytes(this->column(p, j), p_want[j]))
                << "block_xp_update p col " << j << ", " << threads << " threads";
          }
        });
  }
}

// The free functions BiCGSTAB calls on a width-1 block, with its complex
// coefficients.
TYPED_TEST(BlockPassOracle, WidthOneKrylovFunctions) {
  if constexpr (TestFixture::W == 1) {
    using Col = typename TestFixture::Col;
    using Z = std::complex<double>;
    const Z alpha(0.31, -0.74), omega(-0.52, 0.18);
    for (const int threads : kThreadCounts) {
      auto x = this->block(150), y = this->block(170), r = this->block(190);
      Col xc = this->column(x, 0), yc = this->column(y, 0), rc = this->column(r, 0);
      decltype(innerProduct(x, y)) ip{}, ip_want{};
      double n{}, n_want{};
      this->run(
          threads, [&] { ip_want = innerProduct(xc, yc); },
          [&] { ip = innerProduct(x, y); },
          [&] {
            EXPECT_TRUE(this->same_bytes(ip, ip_want))
                << "innerProduct, " << threads << " threads";
          });
      this->run(
          threads, [&] { n_want = norm2(xc); }, [&] { n = norm2(x); },
          [&] {
            EXPECT_TRUE(this->same_bytes(n, n_want))
                << "norm2, " << threads << " threads";
          });
      this->run(
          threads, [&] { n_want = axpy_norm2(rc, alpha, xc, yc); },
          [&] { n = axpy_norm2(r, alpha, x, y); },
          [&] {
            EXPECT_TRUE(this->same_bytes(n, n_want))
                << "axpy_norm2, " << threads << " threads";
            EXPECT_TRUE(this->same_bytes(this->column(r, 0), rc))
                << "axpy_norm2 field, " << threads << " threads";
          });
      // In place, as BiCGSTAB calls it: y = omega x + y.
      this->run(
          threads, [&] { axpy(yc, omega, xc, yc); }, [&] { axpy(y, omega, x, y); },
          [&] {
            EXPECT_TRUE(this->same_bytes(this->column(y, 0), yc))
                << "axpy, " << threads << " threads";
          });
    }
  }
}

}  // namespace
}  // namespace svelat::lattice
