// Functor layer: the machine-specific operations of Grid's abstraction
// (paper Sec. II-C): arithmetic of real and complex numbers, permutations
// of vector elements, load/store, and reductions -- in three backends
// (see policy.h).
//
// Data convention: a vec<T> holds size/2 complex numbers with real parts in
// even lanes and imaginary parts in odd lanes, the layout FCMLA expects
// (paper Sec. III-D).
//
// Two levels per backend:
//
//   Ops<P>::Regs<T, VLB>   register-level primitives.  Operands and results
//                          are `reg` values (sve::svreg on the SVE backends,
//                          vec<T> on the generic one) that live only in
//                          function locals, and every primitive takes the
//                          one predicate its caller hoisted (`ptrue()`),
//                          like `pg1` in the Sec. V-C listing.  Kernels that
//                          keep values in registers across many operations
//                          (the hop kernel of qcd/dhop_kernel.h, the
//                          linear algebra of lattice/block.h) are written
//                          against this level, named simd::RegsOf<S> for a
//                          SimdComplex type S (simd_complex.h).  Besides
//                          the memory-level operations it has the fused
//                          forms add_times_i(pg, a, x) = a + i*x and
//                          add_times_minus_i(pg, a, x) = a - i*x, the
//                          +-i terms of the hop's spin projection and
//                          reconstruction: one FCADD on sve-fcmla, add
//                          composed with times_i elsewhere.
//   Ops<P>::add(x, y), ... memory-level functors on vec<T> arrays, the API
//                          of SimdComplex: each is a load-op-store wrapper
//                          over the register level with a single predicate.
//
// Both levels run the same primitive, so a value computed in registers is
// bitwise the value the memory-level functor stores.
#pragma once

#include <complex>

#include "simd/acle.h"
#include "simd/policy.h"
#include "simd/vec.h"

namespace svelat::simd {

template <class Policy>
struct Ops;

namespace detail {

// ---------------------------------------------------------------------------
// Generic backend: plain scalar loops (Table I "generic C/C++" row).  Its
// "register" is the vec<T> array itself and it has no predication, so the
// predicate argument is an empty stand-in.
// ---------------------------------------------------------------------------
struct NoPred {};

/// N-register tuple of the generic backend (the sve::svregx analogue).
template <typename T, std::size_t VLB, unsigned N>
struct VecTuple {
  vec<T, VLB> reg[N];
};

template <typename T, std::size_t VLB>
struct GenericRegs {
  using reg = vec<T, VLB>;
  using pred = NoPred;
  template <unsigned N>
  using tuple = VecTuple<T, VLB, N>;
  static constexpr std::size_t n = reg::size;

  static pred ptrue() { return {}; }
  static reg load(pred, const vec<T, VLB>& x) { return x; }
  static void store(pred, vec<T, VLB>& out, const reg& r) { out = r; }

  static reg zero() {
    reg r;
    for (std::size_t i = 0; i < n; ++i) r.v[i] = T{};
    return r;
  }

  static reg splat_complex(pred, T re, T im) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = re;
      r.v[i + 1] = im;
    }
    return r;
  }

  static reg add(pred, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; ++i) r.v[i] = x.v[i] + y.v[i];
    return r;
  }

  static reg sub(pred, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; ++i) r.v[i] = x.v[i] - y.v[i];
    return r;
  }

  static reg neg(pred, const reg& x) {
    reg r;
    for (std::size_t i = 0; i < n; ++i) r.v[i] = -x.v[i];
    return r;
  }

  static reg scale(pred, const reg& x, T s) {
    reg r;
    for (std::size_t i = 0; i < n; ++i) r.v[i] = x.v[i] * s;
    return r;
  }

  /// x * y.  `z` (a hoisted zero()) is unused here; the SVE backends start
  /// their FCMLA/FCADD forms from it.
  static reg mult(pred, const reg& /*z*/, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = x.v[i] * y.v[i] - x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = x.v[i] * y.v[i + 1] + x.v[i + 1] * y.v[i];
    }
    return r;
  }

  /// acc + x * y.  Evaluation order matches the FCMLA path (rotation 90
  /// then 0) so all backends produce bit-identical results.
  static reg mac(pred, const reg& acc, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = (acc.v[i] - x.v[i + 1] * y.v[i + 1]) + x.v[i] * y.v[i];
      r.v[i + 1] = (acc.v[i + 1] + x.v[i + 1] * y.v[i]) + x.v[i] * y.v[i + 1];
    }
    return r;
  }

  /// conj(x) * y.
  static reg mult_conj(pred, const reg& /*z*/, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = x.v[i] * y.v[i] + x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = x.v[i] * y.v[i + 1] - x.v[i + 1] * y.v[i];
    }
    return r;
  }

  /// acc + conj(x) * y, in the order of the FCMLA path (rotation 0 then 270).
  static reg mac_conj(pred, const reg& acc, const reg& x, const reg& y) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = (acc.v[i] + x.v[i] * y.v[i]) + x.v[i + 1] * y.v[i + 1];
      r.v[i + 1] = (acc.v[i + 1] + x.v[i] * y.v[i + 1]) - x.v[i + 1] * y.v[i];
    }
    return r;
  }

  static reg times_i(pred, const reg& /*z*/, const reg& x) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = -x.v[i + 1];
      r.v[i + 1] = x.v[i];
    }
    return r;
  }

  static reg times_minus_i(pred, const reg& /*z*/, const reg& x) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = x.v[i + 1];
      r.v[i + 1] = -x.v[i];
    }
    return r;
  }

  /// a + i*x and a - i*x: add composed with times_i / times_minus_i (whose
  /// zero operand this backend ignores).
  static reg add_times_i(pred pg, const reg& a, const reg& x) {
    return add(pg, a, times_i(pg, a, x));
  }
  static reg add_times_minus_i(pred pg, const reg& a, const reg& x) {
    return add(pg, a, times_minus_i(pg, a, x));
  }

  static reg conj(pred, const reg& x) {
    reg r;
    for (std::size_t i = 0; i < n; i += 2) {
      r.v[i] = x.v[i];
      r.v[i + 1] = -x.v[i + 1];
    }
    return r;
  }

  /// Lane permutation i -> i XOR d (d a power of two, in real lanes),
  /// applied in place to every register passed.
  template <class... Regs>
  static void permute_xor(pred, std::size_t d, Regs&... x) {
    SVELAT_DEBUG_ASSERT(d < n);
    (permute_one(x, d), ...);
  }

  static std::complex<T> reduce_complex(pred, const reg& x) {
    T re{}, im{};
    for (std::size_t i = 0; i < n; i += 2) {
      re += x.v[i];
      im += x.v[i + 1];
    }
    return {re, im};
  }

 private:
  static void permute_one(reg& x, std::size_t d) {
    const reg src = x;
    // Masking keeps the subscript provably in bounds (size is a power of
    // two; callers only pass valid d).
    for (std::size_t i = 0; i < n; ++i) x.v[i] = src.v[(i ^ d) & (n - 1)];
  }
};

// ---------------------------------------------------------------------------
// Shared ACLE register arithmetic (real operations, used by both SVE
// backends).  Even/odd predicates and TBL index vectors are derived from
// the caller's predicate, never from a fresh PTRUE.
// ---------------------------------------------------------------------------
template <typename T, std::size_t VLB>
struct SveArithRegs {
  using A = acle<T, VLB>;
  using reg = sve::svreg<T>;
  using pred = sve::svbool_t;
  template <unsigned N>
  using tuple = sve::svregx<T, N>;

  /// The one PTRUE of a kernel (checks the simulated VL against VLB).
  static pred ptrue() { return A::pg1(); }
  static reg load(const pred& pg, const vec<T, VLB>& x) { return sve::svld1(pg, x.v); }
  static void store(const pred& pg, vec<T, VLB>& out, const reg& r) {
    sve::svst1(pg, out.v, r);
  }

  static reg zero() { return A::zero(); }

  static reg splat_complex(const pred& pg, T re, T im) {
    // dup the real part everywhere, then overwrite odd lanes (merge) with
    // the imaginary part.
    const reg v = sve::svdup<T>(re);
    return sve::svsel(even(pg), v, sve::svdup<T>(im));
  }

  static reg add(const pred& pg, const reg& x, const reg& y) {
    return sve::svadd_x(pg, x, y);
  }
  static reg sub(const pred& pg, const reg& x, const reg& y) {
    return sve::svsub_x(pg, x, y);
  }
  static reg neg(const pred& pg, const reg& x) { return sve::svneg_x(pg, x); }
  static reg scale(const pred& pg, const reg& x, T s) {
    return sve::svmul_x(pg, x, sve::svdup<T>(s));
  }

  /// Negate the imaginary (odd) lanes: one predicated FNEG.
  static reg conj(const pred& pg, const reg& x) { return sve::svneg_x(odd(pg), x); }

  /// Lane permutation i -> i XOR d (d a power of two, in real lanes),
  /// applied in place to every register passed.  Swapping the two halves
  /// is EXT by half the vector; any other distance is one TBL per register
  /// from a single index load.
  template <class... Regs>
  static void permute_xor(const pred& pg, std::size_t d, Regs&... x) {
    if (2 * d == A::lanes) {
      ((x = sve::svext(x, x, A::lanes / 2)), ...);
    } else {
      const typename A::ivt idx = A::xor_index(pg, d);
      ((x = sve::svtbl(x, idx)), ...);
    }
  }

  static std::complex<T> reduce_complex(const pred& pg, const reg& x) {
    return {sve::svaddv(even(pg), x), sve::svaddv(odd(pg), x)};
  }

  /// Even lanes (real parts) / odd lanes (imaginary parts) of pg.
  static pred even(const pred& pg) { return sve::svtrn1_b<T>(pg, sve::svpfalse_b()); }
  static pred odd(const pred& pg) { return sve::svtrn1_b<T>(sve::svpfalse_b(), pg); }
};

// ---------------------------------------------------------------------------
// SveFcmla registers: hardware complex arithmetic (Sec. V-C).
// ---------------------------------------------------------------------------
template <typename T, std::size_t VLB>
struct FcmlaRegs : SveArithRegs<T, VLB> {
  using typename SveArithRegs<T, VLB>::reg;
  using typename SveArithRegs<T, VLB>::pred;

  /// The MultComplex listing of Sec. V-C: two FCMLAs from a zero
  /// accumulator (`z`, hoisted by the caller).
  static reg mult(const pred& pg, const reg& z, const reg& x, const reg& y) {
    return mac(pg, z, x, y);
  }
  static reg mac(const pred& pg, const reg& acc, const reg& x, const reg& y) {
    return sve::svcmla_x(pg, sve::svcmla_x(pg, acc, x, y, 90), x, y, 0);
  }

  /// conj(x)*y: rotations 0 and 270 (paper Eq. (2), conjugate case).
  static reg mult_conj(const pred& pg, const reg& z, const reg& x, const reg& y) {
    return mac_conj(pg, z, x, y);
  }
  static reg mac_conj(const pred& pg, const reg& acc, const reg& x, const reg& y) {
    return sve::svcmla_x(pg, sve::svcmla_x(pg, acc, x, y, 0), x, y, 270);
  }

  /// i*x = 0 + i*x: a single FCADD #90 against the zero vector `z`.
  static reg times_i(const pred& pg, const reg& z, const reg& x) {
    return sve::svcadd_x(pg, z, x, 90);
  }
  static reg times_minus_i(const pred& pg, const reg& z, const reg& x) {
    return sve::svcadd_x(pg, z, x, 270);
  }

  /// a + i*x and a - i*x: one FCADD #90 / #270 on the accumulator.
  static reg add_times_i(const pred& pg, const reg& a, const reg& x) {
    return sve::svcadd_x(pg, a, x, 90);
  }
  static reg add_times_minus_i(const pred& pg, const reg& a, const reg& x) {
    return sve::svcadd_x(pg, a, x, 270);
  }
};

// ---------------------------------------------------------------------------
// SveReal registers: complex arithmetic from real instructions + permutes
// (Sec. V-E alternative; higher instruction count by design).
// ---------------------------------------------------------------------------
template <typename T, std::size_t VLB>
struct SveRealRegs : SveArithRegs<T, VLB> {
  using Base = SveArithRegs<T, VLB>;
  using typename Base::A;
  using typename Base::pred;
  using typename Base::reg;

  static reg mult(const pred& pg, const reg& z, const reg& x, const reg& y) {
    return mac_impl(pg, z, x, y, /*conjugate_x=*/false);
  }
  static reg mac(const pred& pg, const reg& acc, const reg& x, const reg& y) {
    return mac_impl(pg, acc, x, y, /*conjugate_x=*/false);
  }
  static reg mult_conj(const pred& pg, const reg& z, const reg& x, const reg& y) {
    return mac_impl(pg, z, x, y, /*conjugate_x=*/true);
  }
  static reg mac_conj(const pred& pg, const reg& acc, const reg& x, const reg& y) {
    return mac_impl(pg, acc, x, y, /*conjugate_x=*/true);
  }

  /// Swap lanes (TBL) then negate the new real (even) lanes.
  static reg times_i(const pred& pg, const reg& /*z*/, const reg& x) {
    return sve::svneg_x(Base::even(pg), sve::svtbl(x, A::swap_index(pg)));
  }
  static reg times_minus_i(const pred& pg, const reg& /*z*/, const reg& x) {
    return sve::svneg_x(Base::odd(pg), sve::svtbl(x, A::swap_index(pg)));
  }

  /// a + i*x and a - i*x: times_i / times_minus_i (whose zero operand this
  /// backend ignores) then one FADD, the Sec. V-E cost.
  static reg add_times_i(const pred& pg, const reg& a, const reg& x) {
    return Base::add(pg, a, times_i(pg, a, x));
  }
  static reg add_times_minus_i(const pred& pg, const reg& a, const reg& x) {
    return Base::add(pg, a, times_minus_i(pg, a, x));
  }

 private:
  /// Complex multiply-accumulate from real instructions, evaluating in the
  /// exact order of the FCMLA rotation pairs so results stay bit-identical
  /// across backends:
  ///   x_re2 = trn1(x, x)           -- (xr, xr) pairs
  ///   x_im2 = trn2(x, x)           -- (xi, xi) pairs
  ///   y_sw  = tbl(y, swap)         -- (yi, yr) pairs
  ///   plain:  r = acc;  r -= x_im2*y_sw (even); r += x_im2*y_sw (odd);
  ///           r += x_re2*y            [rot 90 then rot 0]
  ///   conj:   r = acc;  r += x_re2*y;  r += x_im2*y_sw (even);
  ///           r -= x_im2*y_sw (odd)    [rot 0 then rot 270]
  /// Cost: 2 TRN + 1 index load + 1 TBL + 3 predicate ops + 3 FMLA-class
  /// ops versus 2 FCMLA -- the "higher instruction count" of paper Sec. V-E.
  static reg mac_impl(const pred& pg, const reg& acc, const reg& x, const reg& y,
                      bool conjugate_x) {
    const pred none = sve::svpfalse_b();
    const pred even = sve::svtrn1_b<T>(pg, none);
    const pred odd = sve::svtrn1_b<T>(none, pg);
    const reg x_re2 = sve::svtrn1(x, x);
    const reg x_im2 = sve::svtrn2(x, x);
    const reg y_sw = sve::svtbl(y, A::swap_index(pg));

    reg r = acc;
    if (!conjugate_x) {
      r = sve::svmls_x(even, r, x_im2, y_sw);
      r = sve::svmla_x(odd, r, x_im2, y_sw);
      r = sve::svmla_x(pg, r, x_re2, y);
    } else {
      r = sve::svmla_x(pg, r, x_re2, y);
      r = sve::svmla_x(even, r, x_im2, y_sw);
      r = sve::svmls_x(odd, r, x_im2, y_sw);
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// Memory-level functors: load, one register primitive, store, all under
// a single predicate.
// ---------------------------------------------------------------------------
template <template <typename, std::size_t> class RegsT>
struct MemoryOps {
  template <typename T, std::size_t VLB>
  using Regs = RegsT<T, VLB>;

  template <typename T, std::size_t VLB>
  static vec<T, VLB> zero() {
    using R = Regs<T, VLB>;
    vec<T, VLB> out;
    R::store(R::ptrue(), out, R::zero());
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> splat_complex(T re, T im) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::splat_complex(pg, re, im));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> add(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::add(pg, R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> sub(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::sub(pg, R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> neg(const vec<T, VLB>& x) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::neg(pg, R::load(pg, x)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> scale(const vec<T, VLB>& x, T s) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::scale(pg, R::load(pg, x), s));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::mult(pg, R::zero(), R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                 const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::mac(pg, R::load(pg, acc), R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mult_conj_complex(const vec<T, VLB>& x, const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::mult_conj(pg, R::zero(), R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> mac_conj_complex(const vec<T, VLB>& acc, const vec<T, VLB>& x,
                                      const vec<T, VLB>& y) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out,
             R::mac_conj(pg, R::load(pg, acc), R::load(pg, x), R::load(pg, y)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_i(const vec<T, VLB>& x) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::times_i(pg, R::zero(), R::load(pg, x)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> times_minus_i(const vec<T, VLB>& x) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::times_minus_i(pg, R::zero(), R::load(pg, x)));
    return out;
  }

  template <typename T, std::size_t VLB>
  static vec<T, VLB> conj(const vec<T, VLB>& x) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    vec<T, VLB> out;
    R::store(pg, out, R::conj(pg, R::load(pg, x)));
    return out;
  }

  /// Lane permutation i -> i XOR d (d a power of two, in real lanes).
  template <typename T, std::size_t VLB>
  static vec<T, VLB> permute_xor(const vec<T, VLB>& x, std::size_t d) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    typename R::reg r = R::load(pg, x);
    R::permute_xor(pg, d, r);
    vec<T, VLB> out;
    R::store(pg, out, r);
    return out;
  }

  template <typename T, std::size_t VLB>
  static std::complex<T> reduce_complex(const vec<T, VLB>& x) {
    using R = Regs<T, VLB>;
    const auto pg = R::ptrue();
    return R::reduce_complex(pg, R::load(pg, x));
  }
};

}  // namespace detail

/// Table I "generic C/C++" row: plain loops.
template <>
struct Ops<Generic> : detail::MemoryOps<detail::GenericRegs> {};

/// Hardware complex arithmetic (FCMLA/FCADD, Sec. V-C).
template <>
struct Ops<SveFcmla> : detail::MemoryOps<detail::FcmlaRegs> {};

/// Complex arithmetic from real instructions + permutes (Sec. V-E).
template <>
struct Ops<SveReal> : detail::MemoryOps<detail::SveRealRegs> {};

}  // namespace svelat::simd
