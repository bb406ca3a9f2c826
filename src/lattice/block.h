// BlockLattice<vobj, N, GridT>: N right-hand sides stored site-contiguously.
//
// Multi-RHS layout for the block propagator engine: column j of outer site
// o lives at data_[o*N + j], so the N spinors of one site are adjacent in
// memory.  A batched operator sweep loads each gauge link and stencil
// entry ONCE and applies it to all N columns while it is register/cache
// hot -- the dominant dhop memory traffic (links + neighbour indexing)
// amortizes N-fold (qcd/block.h).
//
// The linear algebra of the Schur engine is register-resident like the
// hop kernel (qcd/dhop_kernel.h): each pass works on simd::RegsOf
// registers under one PTRUE per site, loads each operand vector once,
// stores each result at most once and folds its norms in registers.  At
// sve-fcmla/512 and N = 12 that is 9.53 instructions per vector for
// block_axpy_norm2, 11.19 for block_xp_update, 4.44 for block_norm2 and
// 6.02 for block_axpy, where SimdComplex's load-op-store functors issued
// 24, 24, 12 and 12.  Every pass applies the primitives of its lattice.h
// twin in the same order, so the memory-level full-lattice passes of
// lattice.h are its bitwise oracle (tests/lattice/test_block.cpp).
//
// Per-column reductions reuse the deterministic chunked tree of
// support/parallel.h with an element-wise ColumnArray accumulator: column
// j's floating-point grouping is exactly the grouping the single-field
// innerProduct/norm2 would produce, so per-column results are BITWISE
// identical at every width N -- which is why column j of a 12-wide batched
// solve equals the single (N = 1) solve of that column bit for bit
// (docs/ARCHITECTURE.md, "Multi-RHS").  On a rank's half grid the same
// tree runs over every rank's sites through the grid's ReduceRing
// (ring_reduce), so a distributed Schur solve sees the single-rank scalars.
#pragma once

#include <array>
#include <complex>

#include "lattice/lattice.h"
#include "lattice/red_black.h"
#include "tensor/regs.h"

namespace svelat::lattice {

/// Per-column accumulator for block reductions: parallel_reduce needs
/// copy construction and operator+=; element-wise += keeps each column's
/// summation tree independent of its siblings.
template <class T, int N>
struct ColumnArray {
  T v[N];

  ColumnArray& operator+=(const ColumnArray& o) {
    for (int j = 0; j < N; ++j) v[j] += o.v[j];
    return *this;
  }
  static ColumnArray filled(const T& z) {
    ColumnArray a;
    for (int j = 0; j < N; ++j) a.v[j] = z;
    return a;
  }
};

/// The ring a reduction over `grid`'s sites runs on: a rank's half grid
/// carries one (lattice/red_black.h); without it ring_reduce is
/// parallel_reduce.
inline const ReduceRing* reduce_ring(const GridCartesian*) { return nullptr; }
inline const ReduceRing* reduce_ring(const GridRedBlackCartesian* grid) {
  return grid->ring();
}

/// Which columns a masked block kernel touches.  Frozen (inactive) columns
/// are left bit-for-bit untouched -- the mechanism that lets a stalled
/// right-hand side sit out the remaining iterations without perturbing
/// its siblings.
template <int N>
using ColumnMask = std::array<bool, N>;

template <int N>
constexpr ColumnMask<N> all_columns() {
  ColumnMask<N> m{};
  for (int j = 0; j < N; ++j) m[j] = true;
  return m;
}

template <class vobj, int N, class GridT = GridCartesian>
class BlockLattice {
 public:
  static constexpr int block_size = N;
  using vector_object = vobj;
  using scalar_object = tensor::scalar_object_t<vobj>;
  using simd_type = tensor::scalar_element_t<vobj>;
  using grid_type = GridT;
  using column_type = Lattice<vobj, GridT>;

  explicit BlockLattice(const GridT* grid)
      : grid_(grid), data_(static_cast<std::size_t>(grid->osites()) * N) {
    SVELAT_ASSERT_MSG(grid->isites() == simd_type::Nsimd(),
                      "grid SIMD layout does not match the vector object's lane count");
  }

  const GridT* grid() const { return grid_; }
  std::int64_t osites() const { return grid_->osites(); }

  /// The N contiguous column objects of outer site o.
  vobj* site(std::int64_t o) { return data_.data() + static_cast<std::size_t>(o) * N; }
  const vobj* site(std::int64_t o) const {
    return data_.data() + static_cast<std::size_t>(o) * N;
  }

  /// A width-1 block field indexes like a Lattice: site o's one column.
  vobj& operator[](std::int64_t o) requires(N == 1) { return at(o, 0); }
  const vobj& operator[](std::int64_t o) const requires(N == 1) { return at(o, 0); }

  vobj& at(std::int64_t o, int j) {
    return data_[static_cast<std::size_t>(o) * N + static_cast<std::size_t>(j)];
  }
  const vobj& at(std::int64_t o, int j) const {
    return data_[static_cast<std::size_t>(o) * N + static_cast<std::size_t>(j)];
  }

  /// Every element of every column stored from one zero register.
  void set_zero() {
    using R = simd::RegsOf<simd_type>;
    thread_for(osites(), [&](std::int64_t o) {
      const typename R::pred pg = R::ptrue();
      const typename R::reg z = R::zero();
      vobj* row = site(o);
      for (int j = 0; j < N; ++j)
        tensor::for_each_element([&](int, simd_type& e) { R::store(pg, e.raw(), z); },
                                 row[j]);
    });
  }

  /// Gather a single-field right-hand side into column j.
  void copy_in_column(int j, const column_type& src) {
    SVELAT_ASSERT_MSG(*src.grid() == *grid_, "column lives on a different grid");
    thread_for(osites(), [&](std::int64_t o) { at(o, j) = src[o]; });
  }

  /// Scatter column j back into a single field.
  void copy_out_column(int j, column_type& dst) const {
    SVELAT_ASSERT_MSG(*dst.grid() == *grid_, "column lives on a different grid");
    thread_for(osites(), [&](std::int64_t o) { dst[o] = at(o, j); });
  }

  void check_same(const BlockLattice& o) const {
    SVELAT_ASSERT_MSG(*grid_ == *o.grid_, "block lattices live on different grids");
  }

 private:
  const GridT* grid_;
  AlignedVector<vobj> data_;
};

// Each pass below hoists, per outer site, one PTRUE and, where it
// multiplies, one zero register.  It applies the register primitive that
// its lattice.h twin's SimdComplex functor wraps, with the same operands
// in the same order (`coeff * x + y` is add(mult(z, c, x), y), never a
// mac), and folds norms with tensor::fold_elements, in innerProduct's
// grouping.

namespace detail {

/// Per-column coefficient splats, made once per call; a pass loads each
/// into a register once per site.
template <class S, class C, std::size_t N>
std::array<S, N> splats(const std::array<C, N>& a) {
  std::array<S, N> out;
  for (std::size_t u = 0; u < N; ++u) out[u] = S{typename S::scalar_type(a[u])};
  return out;
}

/// The per-column sums of a reducing pass: term(pg, z, o, j) is column j's
/// register sum over outer site o's elements (frozen columns add zero),
/// stored once per site and summed over the sites through the grid's
/// chunked tree.
template <class S, int N, class GridT, class TermF>
ColumnArray<S, N> column_sums(const GridT* grid, const ColumnMask<N>& active,
                              TermF&& term) {
  using R = simd::RegsOf<S>;
  using Acc = ColumnArray<S, N>;
  const Acc zero = Acc::filled(S::zero());
  return ring_reduce(reduce_ring(grid), grid->osites(), zero, [&](std::int64_t o) {
    const typename R::pred pg = R::ptrue();
    const typename R::reg z = R::zero();
    Acc t = zero;
    for (int j = 0; j < N; ++j)
      if (active[static_cast<std::size_t>(j)])
        R::store(pg, t.v[j].raw(), term(pg, z, o, j));
    return t;
  });
}

/// The real part of each column's lane sum.
template <class S, int N>
std::array<double, N> real_sums(const ColumnArray<S, N>& acc) {
  std::array<double, N> out;
  for (int j = 0; j < N; ++j)
    out[static_cast<std::size_t>(j)] = std::real(reduce(acc.v[j]));
  return out;
}

}  // namespace detail

/// x_j += y_j for every column (block analogue of Lattice::operator+=).
template <class vobj, int N, class GridT>
void block_add(BlockLattice<vobj, N, GridT>& x, const BlockLattice<vobj, N, GridT>& y) {
  x.check_same(y);
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  thread_for(x.osites(), [&](std::int64_t o) {
    const typename R::pred pg = R::ptrue();
    const vobj* ys = y.site(o);
    vobj* xs = x.site(o);
    for (int j = 0; j < N; ++j)
      tensor::for_each_element(
          [&](int, S& xe, const S& ye) {
            const typename R::reg xv = R::load(pg, xe.raw());
            const typename R::reg yv = R::load(pg, ye.raw());
            R::store(pg, xe.raw(), R::add(pg, xv, yv));
          },
          xs[j], ys[j]);
  });
}

/// Copy every column: r_j = x_j.
template <class vobj, int N, class GridT>
void block_copy(BlockLattice<vobj, N, GridT>& r, const BlockLattice<vobj, N, GridT>& x) {
  r.check_same(x);
  thread_for(x.osites(), [&](std::int64_t o) {
    const vobj* xs = x.site(o);
    vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j) rs[j] = xs[j];
  });
}

/// Per-column axpy with one shared scalar coefficient: r_j = a x_j + y_j
/// for all N columns (the Schur prologue/epilogue shape).
template <class vobj, int N, class GridT, typename C>
void block_axpy(BlockLattice<vobj, N, GridT>& r, const C& a,
                const BlockLattice<vobj, N, GridT>& x,
                const BlockLattice<vobj, N, GridT>& y) {
  x.check_same(y);
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const S coeff{typename S::scalar_type(a)};
  thread_for(x.osites(), [&](std::int64_t o) {
    const typename R::pred pg = R::ptrue();
    const typename R::reg z = R::zero();
    const typename R::reg c = R::load(pg, coeff.raw());
    const vobj* xs = x.site(o);
    const vobj* ys = y.site(o);
    vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j)
      tensor::for_each_element(
          [&](int, const S& xe, const S& ye, S& re) {
            const typename R::reg cx = R::mult(pg, z, c, R::load(pg, xe.raw()));
            R::store(pg, re.raw(), R::add(pg, cx, R::load(pg, ye.raw())));
          },
          xs[j], ys[j], rs[j]);
  });
}

/// x_j = a x_j for every column (block analogue of `a * x`).
template <class vobj, int N, class GridT, typename C>
void block_scale(BlockLattice<vobj, N, GridT>& x, const C& a) {
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const S coeff{typename S::scalar_type(a)};
  thread_for(x.osites(), [&](std::int64_t o) {
    const typename R::pred pg = R::ptrue();
    const typename R::reg z = R::zero();
    const typename R::reg c = R::load(pg, coeff.raw());
    vobj* xs = x.site(o);
    for (int j = 0; j < N; ++j)
      tensor::for_each_element(
          [&](int, S& xe) {
            R::store(pg, xe.raw(), R::mult(pg, z, c, R::load(pg, xe.raw())));
          },
          xs[j]);
  });
}

/// Per-column |a_j|^2.  Column j's chunked summation tree is identical to
/// norm2(column j) -- bitwise equal results, any N.
template <class vobj, int N, class GridT>
std::array<double, N> block_norm2(const BlockLattice<vobj, N, GridT>& a) {
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const auto term = [&](const auto& pg, const auto& z, std::int64_t o, int j) {
    return tensor::fold_elements<R>(
        pg,
        [&](int, const S& e) {
          const typename R::reg v = R::load(pg, e.raw());
          return R::mult_conj(pg, z, v, v);
        },
        a.at(o, j));
  };
  return detail::real_sums(detail::column_sums<S, N>(a.grid(), all_columns<N>(), term));
}

/// Masked fused update-and-norm: r_j = a_j x_j + y_j and |r_j|^2 in one
/// pass for active columns (the CG residual-update tail); frozen columns
/// keep their bits and report 0.  `a` holds real or complex coefficients.
template <class vobj, int N, class GridT, typename C>
std::array<double, N> block_axpy_norm2(BlockLattice<vobj, N, GridT>& r,
                                       const std::array<C, N>& a,
                                       const BlockLattice<vobj, N, GridT>& x,
                                       const BlockLattice<vobj, N, GridT>& y,
                                       const ColumnMask<N>& active) {
  x.check_same(y);
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const std::array<S, N> coeff = detail::splats<S>(a);
  return detail::real_sums(detail::column_sums<S, N>(
      x.grid(), active, [&](const auto& pg, const auto& z, std::int64_t o, int j) {
        const typename R::reg c = R::load(pg, coeff[static_cast<std::size_t>(j)].raw());
        return tensor::fold_elements<R>(
            pg,
            [&](int, const S& xe, const S& ye, S& re) {
              const typename R::reg cx = R::mult(pg, z, c, R::load(pg, xe.raw()));
              const typename R::reg v = R::add(pg, cx, R::load(pg, ye.raw()));
              R::store(pg, re.raw(), v);
              return R::mult_conj(pg, z, v, v);
            },
            x.at(o, j), y.at(o, j), r.at(o, j));
      }));
}

/// Masked fused CG tail: x_j += alpha_j p_j and p_j = beta_j p_j + r_j in
/// one pass, reading the pre-update p once per site (the deferred-x form
/// of the two sequential axpy calls).  Per-column arithmetic is the exact
/// expression shape of lattice::axpy (coeff * x + y), so column results
/// stay bitwise identical to the sequential recurrence.  Frozen columns
/// keep their bits.
template <class vobj, int N, class GridT>
void block_xp_update(BlockLattice<vobj, N, GridT>& x, BlockLattice<vobj, N, GridT>& p,
                     const BlockLattice<vobj, N, GridT>& r,
                     const std::array<double, N>& alpha,
                     const std::array<double, N>& beta, const ColumnMask<N>& active) {
  x.check_same(p);
  x.check_same(r);
  using S = typename BlockLattice<vobj, N, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const std::array<S, N> ca = detail::splats<S>(alpha), cb = detail::splats<S>(beta);
  thread_for(x.osites(), [&](std::int64_t o) {
    const typename R::pred pg = R::ptrue();
    const typename R::reg z = R::zero();
    vobj* xs = x.site(o);
    vobj* ps = p.site(o);
    const vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j) {
      const auto u = static_cast<std::size_t>(j);
      if (!active[u]) continue;
      const typename R::reg a = R::load(pg, ca[u].raw());
      const typename R::reg b = R::load(pg, cb[u].raw());
      tensor::for_each_element(
          [&](int, S& xe, S& pe, const S& re) {
            const typename R::reg po = R::load(pg, pe.raw());
            const typename R::reg ap = R::mult(pg, z, a, po);
            R::store(pg, xe.raw(), R::add(pg, ap, R::load(pg, xe.raw())));
            const typename R::reg bp = R::mult(pg, z, b, po);
            R::store(pg, pe.raw(), R::add(pg, bp, R::load(pg, re.raw())));
          },
          xs[j], ps[j], rs[j]);
    }
  });
}

// Width-1 block fields are single fields to the generic Krylov loops
// (solver/bicgstab.h over BlockSchurEvenOddWilson<S, 1>).  These are the
// free functions those loops call: the passes above at N = 1, and the one
// inner product, each computing the bits lattice.h's twin computes over
// the column as a Lattice (through the grid's ring, if any).

template <class vobj, class GridT, typename C>
void axpy(BlockLattice<vobj, 1, GridT>& r, const C& a,
          const BlockLattice<vobj, 1, GridT>& x, const BlockLattice<vobj, 1, GridT>& y) {
  block_axpy(r, a, x, y);
}

/// sum_x conj(a_x) . b_x: each operand loaded once, mult_conj(a, b) folded
/// per site.
template <class vobj, class GridT>
auto innerProduct(const BlockLattice<vobj, 1, GridT>& a,
                  const BlockLattice<vobj, 1, GridT>& b) {
  a.check_same(b);
  using S = typename BlockLattice<vobj, 1, GridT>::simd_type;
  using R = simd::RegsOf<S>;
  const auto term = [&](const auto& pg, const auto& z, std::int64_t o, int) {
    return tensor::fold_elements<R>(
        pg,
        [&](int, const S& ae, const S& be) {
          const typename R::reg av = R::load(pg, ae.raw());
          return R::mult_conj(pg, z, av, R::load(pg, be.raw()));
        },
        a[o], b[o]);
  };
  return reduce(detail::column_sums<S, 1>(a.grid(), all_columns<1>(), term).v[0]);
}

template <class vobj, class GridT>
double norm2(const BlockLattice<vobj, 1, GridT>& a) {
  return block_norm2(a)[0];
}

template <class vobj, class GridT, typename C>
double axpy_norm2(BlockLattice<vobj, 1, GridT>& r, const C& a,
                  const BlockLattice<vobj, 1, GridT>& x,
                  const BlockLattice<vobj, 1, GridT>& y) {
  return block_axpy_norm2<vobj, 1, GridT>(r, std::array<C, 1>{a}, x, y,
                                          all_columns<1>())[0];
}

/// Extract one parity of a full field into column j of a half block field.
template <class vobj, int N>
void pick_checkerboard(const Lattice<vobj>& full,
                       BlockLattice<vobj, N, GridRedBlackCartesian>& half, int j) {
  const GridRedBlackCartesian* rb = half.grid();
  SVELAT_ASSERT_MSG(*rb->full_grid() == *full.grid(),
                    "checkerboard does not view this full grid");
  thread_for(rb->osites(),
             [&](std::int64_t h) { half.at(h, j) = full[rb->full_osite(h)]; });
}

/// Deposit column j of a half block field into the matching parity of a
/// full field.
template <class vobj, int N>
void set_checkerboard(Lattice<vobj>& full,
                      const BlockLattice<vobj, N, GridRedBlackCartesian>& half, int j) {
  const GridRedBlackCartesian* rb = half.grid();
  SVELAT_ASSERT_MSG(*rb->full_grid() == *full.grid(),
                    "checkerboard does not view this full grid");
  thread_for(rb->osites(),
             [&](std::int64_t h) { full[rb->full_osite(h)] = half.at(h, j); });
}

}  // namespace svelat::lattice
