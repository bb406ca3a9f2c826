// SimdComplex<T, VLB, Policy>: value-semantic wrapper over vec<T, VLB>
// holding VLB/(2*sizeof(T)) complex numbers, analogous to Grid's vComplexD
// / vComplexF types.
//
// This is the type the tensor and lattice layers are built on: one
// SimdComplex holds the same tensor element for Nsimd() different virtual
// nodes (paper Fig. 1).
#pragma once

#include <complex>
#include <iosfwd>
#include <sstream>

#include "simd/ops.h"

namespace svelat::simd {

template <typename T, std::size_t VLB, typename Policy>
class SimdComplex {
 public:
  using scalar_type = std::complex<T>;
  using real_type = T;
  using vector_type = vec<T, VLB>;
  using policy_type = Policy;
  using O = Ops<Policy>;

  static constexpr std::size_t vlb = VLB;

  /// Number of complex scalars per vector = number of virtual nodes.
  static constexpr unsigned Nsimd() {
    return static_cast<unsigned>(vector_type::size / 2);
  }

  SimdComplex() = default;

  /// Broadcast a complex scalar to all lanes.
  SimdComplex(scalar_type s)  // NOLINT(google-explicit-constructor): Grid-style splat
      : data_(O::template splat_complex<T, VLB>(s.real(), s.imag())) {}
  SimdComplex(T re, T im) : data_(O::template splat_complex<T, VLB>(re, im)) {}

  static SimdComplex zero() { return SimdComplex(O::template zero<T, VLB>()); }

  /// Lane access (complex units), used by layout code and tests.
  scalar_type lane(unsigned i) const { return {data_.v[2 * i], data_.v[2 * i + 1]}; }
  void set_lane(unsigned i, scalar_type s) {
    data_.v[2 * i] = s.real();
    data_.v[2 * i + 1] = s.imag();
  }

  const vector_type& raw() const { return data_; }
  vector_type& raw() { return data_; }

  // --- arithmetic -----------------------------------------------------------
  friend SimdComplex operator+(const SimdComplex& a, const SimdComplex& b) {
    return SimdComplex(O::add(a.data_, b.data_));
  }
  friend SimdComplex operator-(const SimdComplex& a, const SimdComplex& b) {
    return SimdComplex(O::sub(a.data_, b.data_));
  }
  friend SimdComplex operator*(const SimdComplex& a, const SimdComplex& b) {
    return SimdComplex(O::mult_complex(a.data_, b.data_));
  }
  friend SimdComplex operator-(const SimdComplex& a) {
    return SimdComplex(O::neg(a.data_));
  }

  SimdComplex& operator+=(const SimdComplex& o) { return *this = *this + o; }
  SimdComplex& operator-=(const SimdComplex& o) { return *this = *this - o; }
  SimdComplex& operator*=(const SimdComplex& o) { return *this = *this * o; }

  /// Real-scalar scaling.
  friend SimdComplex operator*(T s, const SimdComplex& a) {
    return SimdComplex(O::scale(a.data_, s));
  }
  friend SimdComplex operator*(const SimdComplex& a, T s) { return s * a; }

  /// Fused accumulate: this += x * y (maps to 2 FCMLA on the fcmla backend).
  void mac(const SimdComplex& x, const SimdComplex& y) {
    data_ = O::mac_complex(data_, x.data_, y.data_);
  }

  /// Fused accumulate with conjugated first factor: this += conj(x) * y.
  void mac_conj(const SimdComplex& x, const SimdComplex& y) {
    data_ = O::mac_conj_complex(data_, x.data_, y.data_);
  }

  friend SimdComplex conjugate(const SimdComplex& a) {
    return SimdComplex(O::conj(a.data_));
  }
  friend SimdComplex timesI(const SimdComplex& a) {
    return SimdComplex(O::times_i(a.data_));
  }
  friend SimdComplex timesMinusI(const SimdComplex& a) {
    return SimdComplex(O::times_minus_i(a.data_));
  }
  friend SimdComplex mult_conj(const SimdComplex& a, const SimdComplex& b) {
    return SimdComplex(O::mult_conj_complex(a.data_, b.data_));
  }

  /// Sum over lanes.
  friend scalar_type reduce(const SimdComplex& a) {
    return O::reduce_complex(a.data_);
  }

  /// Block-exchange permute: swaps groups of `d` complex lanes (d a power
  /// of two), the Fig. 1 boundary permutation.  d is in complex units.
  friend SimdComplex permute_blocks(const SimdComplex& a, unsigned d) {
    return SimdComplex(O::permute_xor(a.data_, 2 * static_cast<std::size_t>(d)));
  }

  friend bool operator==(const SimdComplex& a, const SimdComplex& b) {
    for (std::size_t i = 0; i < vector_type::size; ++i)
      if (a.data_.v[i] != b.data_.v[i]) return false;
    return true;
  }
  friend bool operator!=(const SimdComplex& a, const SimdComplex& b) { return !(a == b); }

  friend std::ostream& operator<<(std::ostream& os, const SimdComplex& a) {
    os << '<';
    for (unsigned i = 0; i < Nsimd(); ++i) {
      if (i) os << ", ";
      os << a.lane(i).real() << (a.lane(i).imag() < 0 ? "" : "+")
         << a.lane(i).imag() << 'i';
    }
    return os << '>';
  }

 private:
  explicit SimdComplex(const vector_type& v) : data_(v) {}

  vector_type data_;
};

/// The register level (Ops<P>::Regs, ops.h) of SimdComplex type S: its
/// backend's primitives at its real type and vector length.  Kernels that
/// keep S values in registers (qcd/dhop_kernel.h, lattice/block.h) compute
/// with these.
template <class S>
using RegsOf = typename Ops<typename S::policy_type>::template Regs<typename S::real_type,
                                                                    S::vlb>;

/// The Grid-style aliases at the three paper vector lengths.
template <typename Policy>
using vComplexD128 = SimdComplex<double, kVLB128, Policy>;
template <typename Policy>
using vComplexD256 = SimdComplex<double, kVLB256, Policy>;
template <typename Policy>
using vComplexD512 = SimdComplex<double, kVLB512, Policy>;
template <typename Policy>
using vComplexF512 = SimdComplex<float, kVLB512, Policy>;

}  // namespace svelat::simd
