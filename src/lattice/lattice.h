// Lattice<vobj, GridT>: a field of vectorized site objects over a grid.
//
// Storage is one vobj per *outer* site; SIMD lane l of each vobj belongs to
// virtual node l (paper Fig. 1).  Site-wise arithmetic maps directly onto
// the SIMD abstraction layer; global reductions reduce over lanes at the
// end.  peek/poke address *global* coordinates, hiding the layout; a
// coordinate outside [0, fdimensions()) aborts instead of wrapping.
//
// GridT defaults to the full-lattice GridCartesian; any type satisfying
// the same indexing concept (osites/isites/outer_index/inner_index/
// global_coor/operator==) works -- in particular GridRedBlackCartesian
// (lattice/red_black.h) gives half-checkerboard fields that store only
// one parity at half the memory.
#pragma once

#include <complex>

#include "lattice/cartesian.h"
#include "support/aligned.h"
#include "support/parallel.h"
#include "tensor/lane_ops.h"
#include "tensor/tensor.h"

namespace svelat::lattice {

template <class vobj, class GridT = GridCartesian>
class Lattice {
 public:
  using vector_object = vobj;
  using scalar_object = tensor::scalar_object_t<vobj>;
  using simd_type = tensor::scalar_element_t<vobj>;
  using grid_type = GridT;

  explicit Lattice(const GridT* grid)
      : grid_(grid), data_(static_cast<std::size_t>(grid->osites())) {
    SVELAT_ASSERT_MSG(grid->isites() == simd_type::Nsimd(),
                      "grid SIMD layout does not match the vector object's lane count");
  }

  const GridT* grid() const { return grid_; }
  std::int64_t osites() const { return grid_->osites(); }

  vobj& operator[](std::int64_t osite) { return data_[static_cast<std::size_t>(osite)]; }
  const vobj& operator[](std::int64_t osite) const {
    return data_[static_cast<std::size_t>(osite)];
  }

  /// Scalar site object at a global coordinate.
  scalar_object peek(const Coordinate& global) const {
    check_in_grid(global);
    const std::int64_t o = grid_->outer_index(global);
    const unsigned l = grid_->inner_index(global);
    return tensor::peek_lane(data_[static_cast<std::size_t>(o)], l);
  }

  /// Overwrite the site at a global coordinate.
  void poke(const Coordinate& global, const scalar_object& s) {
    check_in_grid(global);
    const std::int64_t o = grid_->outer_index(global);
    const unsigned l = grid_->inner_index(global);
    tensor::poke_lane(data_[static_cast<std::size_t>(o)], l, s);
  }

  void set_zero() {
    thread_for(osites(), [&](std::int64_t o) {
      tensor::zeroit(data_[static_cast<std::size_t>(o)]);
    });
  }

  // --- site-wise arithmetic ---------------------------------------------------
  friend Lattice operator+(const Lattice& a, const Lattice& b) {
    a.check_same(b);
    Lattice r(a.grid_);
    thread_for(a.osites(), [&](std::int64_t o) { r[o] = a[o] + b[o]; });
    return r;
  }
  friend Lattice operator-(const Lattice& a, const Lattice& b) {
    a.check_same(b);
    Lattice r(a.grid_);
    thread_for(a.osites(), [&](std::int64_t o) { r[o] = a[o] - b[o]; });
    return r;
  }
  friend Lattice operator-(const Lattice& a) {
    Lattice r(a.grid_);
    thread_for(a.osites(), [&](std::int64_t o) { r[o] = -a[o]; });
    return r;
  }
  Lattice& operator+=(const Lattice& o) {
    check_same(o);
    thread_for(osites(),
               [&](std::int64_t i) { data_[static_cast<std::size_t>(i)] += o[i]; });
    return *this;
  }
  Lattice& operator-=(const Lattice& o) {
    check_same(o);
    thread_for(osites(),
               [&](std::int64_t i) { data_[static_cast<std::size_t>(i)] -= o[i]; });
    return *this;
  }

  /// Scalar coefficient (complex or real, broadcast over sites and lanes).
  template <typename S>
  friend Lattice operator*(const S& s, const Lattice& a) {
    Lattice r(a.grid_);
    const simd_type coeff(s);  // splat once
    thread_for(a.osites(), [&](std::int64_t o) { r[o] = coeff * a[o]; });
    return r;
  }

  void check_same(const Lattice& o) const {
    SVELAT_ASSERT_MSG(*grid_ == *o.grid_, "lattices live on different grids");
  }

 private:
  /// The grid's index maps take components modulo and divided by the
  /// extents: an out-of-grid coordinate would land on another site, or
  /// outside the field.
  void check_in_grid(const Coordinate& global) const {
    const Coordinate& dims = grid_->fdimensions();
    for (int mu = 0; mu < Nd; ++mu)
      SVELAT_ASSERT_MSG(global[mu] >= 0 && global[mu] < dims[mu],
                        ("coordinate " + to_string(global) + " lies outside the " +
                         to_string(dims) + " lattice")
                            .c_str());
  }

  const GridT* grid_;
  AlignedVector<vobj> data_;
};

/// r = x - y without the temporary the binary operator- would allocate --
/// the solver hot paths (residual setup, true-residual checks) run through
/// this so a warm solve constructs no fields.  Same per-site arithmetic as
/// operator-: results are bitwise identical.
template <class vobj, class GridT>
void sub(Lattice<vobj, GridT>& r, const Lattice<vobj, GridT>& x,
         const Lattice<vobj, GridT>& y) {
  x.check_same(y);
  thread_for(x.osites(), [&](std::int64_t o) { r[o] = x[o] - y[o]; });
}

/// axpy: r = a*x + y  (a is a scalar coefficient) -- the CG workhorse.
template <class vobj, class GridT, typename S>
void axpy(Lattice<vobj, GridT>& r, const S& a, const Lattice<vobj, GridT>& x,
          const Lattice<vobj, GridT>& y) {
  x.check_same(y);
  using simd_type = typename Lattice<vobj, GridT>::simd_type;
  const simd_type coeff{typename simd_type::scalar_type(a)};
  thread_for(x.osites(), [&](std::int64_t o) { r[o] = coeff * x[o] + y[o]; });
}

/// Global inner product: sum_x conj(a_x) . b_x, reduced over lanes.
/// Chunked deterministic reduction: bitwise independent of thread count.
template <class vobj, class GridT>
auto innerProduct(const Lattice<vobj, GridT>& a, const Lattice<vobj, GridT>& b) {
  a.check_same(b);
  using simd_type = typename Lattice<vobj, GridT>::simd_type;
  const simd_type acc = parallel_reduce(
      a.osites(), simd_type::zero(),
      [&](std::int64_t o) { return tensor::innerProduct(a[o], b[o]); });
  return reduce(acc);
}

/// Global squared norm.
template <class vobj, class GridT>
double norm2(const Lattice<vobj, GridT>& a) {
  return std::real(innerProduct(a, a));
}

/// Fused r = a*x + y followed by |r|^2 in a single pass over the field --
/// the per-iteration tail of CG/BiCGSTAB (update the residual, then take
/// its norm) without re-reading r.  Same deterministic reduction tree as
/// innerProduct, so the result matches axpy + norm2 run separately.
template <class vobj, class GridT, typename S>
double axpy_norm2(Lattice<vobj, GridT>& r, const S& a, const Lattice<vobj, GridT>& x,
                  const Lattice<vobj, GridT>& y) {
  x.check_same(y);
  using simd_type = typename Lattice<vobj, GridT>::simd_type;
  const simd_type coeff{typename simd_type::scalar_type(a)};
  const simd_type acc =
      parallel_reduce(x.osites(), simd_type::zero(), [&](std::int64_t o) {
        const vobj v = coeff * x[o] + y[o];
        r[o] = v;
        return tensor::innerProduct(v, v);
      });
  return std::real(reduce(acc));
}

}  // namespace svelat::lattice
