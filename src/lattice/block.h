// BlockLattice<vobj, N, GridT>: N right-hand sides stored site-contiguously.
//
// Multi-RHS layout for the block propagator engine: column j of outer site
// o lives at data_[o*N + j], so the N spinors of one site are adjacent in
// memory.  A batched operator sweep loads each gauge link and stencil
// entry ONCE and applies it to all N columns while it is register/cache
// hot -- the dominant dhop memory traffic (links + neighbour indexing)
// amortizes N-fold (qcd/block.h).
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

  void set_zero() {
    thread_for(osites(), [&](std::int64_t o) {
      vobj* row = site(o);
      for (int j = 0; j < N; ++j) tensor::zeroit(row[j]);
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

/// r_j = x_j - y_j for every column (block analogue of lattice::sub).
template <class vobj, int N, class GridT>
void block_sub(BlockLattice<vobj, N, GridT>& r, const BlockLattice<vobj, N, GridT>& x,
               const BlockLattice<vobj, N, GridT>& y) {
  x.check_same(y);
  thread_for(x.osites(), [&](std::int64_t o) {
    const vobj* xs = x.site(o);
    const vobj* ys = y.site(o);
    vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j) rs[j] = xs[j] - ys[j];
  });
}

/// x_j += y_j for every column (block analogue of Lattice::operator+=).
template <class vobj, int N, class GridT>
void block_add(BlockLattice<vobj, N, GridT>& x, const BlockLattice<vobj, N, GridT>& y) {
  x.check_same(y);
  thread_for(x.osites(), [&](std::int64_t o) {
    const vobj* ys = y.site(o);
    vobj* xs = x.site(o);
    for (int j = 0; j < N; ++j) xs[j] += ys[j];
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
  using simd_type = typename BlockLattice<vobj, N, GridT>::simd_type;
  const simd_type coeff{typename simd_type::scalar_type(a)};
  thread_for(x.osites(), [&](std::int64_t o) {
    const vobj* xs = x.site(o);
    const vobj* ys = y.site(o);
    vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j) rs[j] = coeff * xs[j] + ys[j];
  });
}

/// Per-column |a_j|^2.  Column j's chunked summation tree is identical to
/// norm2(column j) -- bitwise equal results, any N.
template <class vobj, int N, class GridT>
std::array<double, N> block_norm2(const BlockLattice<vobj, N, GridT>& a) {
  using simd_type = typename BlockLattice<vobj, N, GridT>::simd_type;
  using Acc = ColumnArray<simd_type, N>;
  const auto term = [&](std::int64_t o) {
    const vobj* as = a.site(o);
    Acc t;
    for (int j = 0; j < N; ++j) t.v[j] = tensor::innerProduct(as[j], as[j]);
    return t;
  };
  const Acc acc = ring_reduce(reduce_ring(a.grid()), a.osites(),
                              Acc::filled(simd_type::zero()), term);
  std::array<double, N> out;
  for (int j = 0; j < N; ++j)
    out[static_cast<std::size_t>(j)] = std::real(reduce(acc.v[j]));
  return out;
}

/// Masked fused update-and-norm: r_j = a_j x_j + y_j and |r_j|^2 in one
/// pass for active columns (the CG residual-update tail); frozen columns
/// keep their bits and report 0.
template <class vobj, int N, class GridT>
std::array<double, N> block_axpy_norm2(BlockLattice<vobj, N, GridT>& r,
                                       const std::array<double, N>& a,
                                       const BlockLattice<vobj, N, GridT>& x,
                                       const BlockLattice<vobj, N, GridT>& y,
                                       const ColumnMask<N>& active) {
  x.check_same(y);
  using simd_type = typename BlockLattice<vobj, N, GridT>::simd_type;
  using Acc = ColumnArray<simd_type, N>;
  std::array<simd_type, N> coeff;
  for (int j = 0; j < N; ++j)
    coeff[static_cast<std::size_t>(j)] =
        simd_type{typename simd_type::scalar_type(a[static_cast<std::size_t>(j)])};
  const auto term = [&](std::int64_t o) {
    const vobj* xs = x.site(o);
    const vobj* ys = y.site(o);
    vobj* rs = r.site(o);
    Acc t = Acc::filled(simd_type::zero());
    for (int j = 0; j < N; ++j) {
      if (!active[static_cast<std::size_t>(j)]) continue;
      const vobj v = coeff[static_cast<std::size_t>(j)] * xs[j] + ys[j];
      rs[j] = v;
      t.v[j] = tensor::innerProduct(v, v);
    }
    return t;
  };
  const Acc acc = ring_reduce(reduce_ring(x.grid()), x.osites(),
                              Acc::filled(simd_type::zero()), term);
  std::array<double, N> out;
  for (int j = 0; j < N; ++j)
    out[static_cast<std::size_t>(j)] = std::real(reduce(acc.v[j]));
  return out;
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
  using simd_type = typename BlockLattice<vobj, N, GridT>::simd_type;
  std::array<simd_type, N> ca, cb;
  for (int j = 0; j < N; ++j) {
    ca[static_cast<std::size_t>(j)] =
        simd_type{typename simd_type::scalar_type(alpha[static_cast<std::size_t>(j)])};
    cb[static_cast<std::size_t>(j)] =
        simd_type{typename simd_type::scalar_type(beta[static_cast<std::size_t>(j)])};
  }
  thread_for(x.osites(), [&](std::int64_t o) {
    vobj* xs = x.site(o);
    vobj* ps = p.site(o);
    const vobj* rs = r.site(o);
    for (int j = 0; j < N; ++j) {
      if (!active[static_cast<std::size_t>(j)]) continue;
      const vobj po = ps[j];
      xs[j] = ca[static_cast<std::size_t>(j)] * po + xs[j];
      ps[j] = cb[static_cast<std::size_t>(j)] * po + rs[j];
    }
  });
}

// Width-1 block fields are single fields to the generic Krylov loops
// (solver/bicgstab.h over BlockSchurEvenOddWilson<S, 1>).  These are the
// free functions those loops call, each lattice.h's per-site expression
// through the same reduction tree (over the grid's ring, if any), so a loop
// over a width-1 block computes the bits it would compute over the column
// as a Lattice.

template <class vobj, class GridT>
void sub(BlockLattice<vobj, 1, GridT>& r, const BlockLattice<vobj, 1, GridT>& x,
         const BlockLattice<vobj, 1, GridT>& y) {
  block_sub(r, x, y);
}

template <class vobj, class GridT, typename C>
void axpy(BlockLattice<vobj, 1, GridT>& r, const C& a,
          const BlockLattice<vobj, 1, GridT>& x, const BlockLattice<vobj, 1, GridT>& y) {
  block_axpy(r, a, x, y);
}

template <class vobj, class GridT>
auto innerProduct(const BlockLattice<vobj, 1, GridT>& a,
                  const BlockLattice<vobj, 1, GridT>& b) {
  a.check_same(b);
  using simd_type = typename BlockLattice<vobj, 1, GridT>::simd_type;
  const auto term = [&](std::int64_t o) {
    return tensor::innerProduct(a.at(o, 0), b.at(o, 0));
  };
  const simd_type acc =
      ring_reduce(reduce_ring(a.grid()), a.osites(), simd_type::zero(), term);
  return reduce(acc);
}

template <class vobj, class GridT>
double norm2(const BlockLattice<vobj, 1, GridT>& a) {
  return std::real(innerProduct(a, a));
}

template <class vobj, class GridT, typename C>
double axpy_norm2(BlockLattice<vobj, 1, GridT>& r, const C& a,
                  const BlockLattice<vobj, 1, GridT>& x,
                  const BlockLattice<vobj, 1, GridT>& y) {
  x.check_same(y);
  using simd_type = typename BlockLattice<vobj, 1, GridT>::simd_type;
  const simd_type coeff{typename simd_type::scalar_type(a)};
  const auto term = [&](std::int64_t o) {
    const vobj v = coeff * x.at(o, 0) + y.at(o, 0);
    r.at(o, 0) = v;
    return tensor::innerProduct(v, v);
  };
  const simd_type acc =
      ring_reduce(reduce_ring(x.grid()), x.osites(), simd_type::zero(), term);
  return std::real(reduce(acc));
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
