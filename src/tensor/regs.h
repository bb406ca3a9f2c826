// Register-level walks over nested tensors, for kernels that keep a site's
// values in registers (simd/ops.h Ops<P>::Regs, simd::RegsOf) instead of
// sending each SIMD element through SimdComplex's memory-level functors:
//
//   for_each_element(f, t, ts...)          f(k, t_k, ts_k...) for every SIMD
//                                          element of t in memory order, k its
//                                          ordinal, the same-shaped ts in
//                                          lockstep
//   fold_elements<R>(pg, term, t, ts...)   the register sum of
//                                          term(k, t_k, ts_k...) over the same
//                                          walk, grouped as innerProduct
//                                          groups its sum
//
// fold_elements adds with R::add level by level, exactly as the
// innerProduct recursion of tensor.h does: an iVector sums its entries'
// folds left to right from entry 0, an iMatrix its entries' folds in row
// order from (0, 0), so a spinor's norm is folded colour first, then spin.
// With term(k, x) = R::mult_conj(pg, z, x_k, x_k) the fold is the value
// innerProduct(x, x) computes, bit for bit: the same primitive on the same
// operands in the same order.
#pragma once

#include <type_traits>

#include "tensor/tensor.h"

namespace svelat::tensor {

/// Number of SIMD elements of a tensor nesting (1 for the scalar itself).
template <class T>
inline constexpr int element_count = 1;
template <class T>
inline constexpr int element_count<iScalar<T>> = element_count<T>;
template <class T, int N>
inline constexpr int element_count<iVector<T, N>> = N * element_count<T>;
template <class T, int N>
inline constexpr int element_count<iMatrix<T, N>> = N * N * element_count<T>;

namespace detail {

template <class T>
inline constexpr bool is_scalar_v = false;
template <class T>
inline constexpr bool is_scalar_v<iScalar<T>> = true;
template <class T>
inline constexpr bool is_vector_v = false;
template <class T, int N>
inline constexpr bool is_vector_v<iVector<T, N>> = true;
template <class T>
inline constexpr bool is_matrix_v = false;
template <class T, int N>
inline constexpr bool is_matrix_v<iMatrix<T, N>> = true;

/// The elements of t (and ts) from ordinal k on: Fold combines the parts
/// of each level, Leaf handles one element.
template <class Fold, class Leaf, class T, class... Ts>
inline auto walk(int k, const Fold& fold, Leaf& leaf, T& t, Ts&... ts) {
  using U = std::remove_const_t<T>;
  if constexpr (is_scalar_v<U>) {
    return walk(k, fold, leaf, t._internal, ts._internal...);
  } else if constexpr (is_vector_v<U>) {
    constexpr int stride = element_count<std::remove_cvref_t<decltype(t._internal[0])>>;
    return fold(U::size, [&](int i) {
      return walk(k + i * stride, fold, leaf, t._internal[i], ts._internal[i]...);
    });
  } else if constexpr (is_matrix_v<U>) {
    constexpr int n = U::size;
    constexpr int stride =
        element_count<std::remove_cvref_t<decltype(t._internal[0][0])>>;
    return fold(n * n, [&](int e) {
      return walk(k + e * stride, fold, leaf, t._internal[e / n][e % n],
                  ts._internal[e / n][e % n]...);
    });
  } else {
    return leaf(k, t, ts...);
  }
}

}  // namespace detail

/// f(k, t_k, ts_k...) for every SIMD element of t, in memory order.
template <class F, class T, class... Ts>
inline void for_each_element(F&& f, T& t, Ts&... ts) {
  const auto visit = [](int n, const auto& part) {
    for (int i = 0; i < n; ++i) part(i);
  };
  detail::walk(0, visit, f, t, ts...);
}

/// The register sum of term(k, t_k, ts_k...) over every SIMD element of t,
/// grouped as tensor::innerProduct groups its sum (header comment).
template <class R, class F, class T, class... Ts>
inline typename R::reg fold_elements(const typename R::pred& pg, F&& term, T& t,
                                     Ts&... ts) {
  const auto sum = [&pg](int n, const auto& part) {
    typename R::reg r = part(0);
    for (int i = 1; i < n; ++i) r = R::add(pg, r, part(i));
    return r;
  };
  return detail::walk(0, sum, term, t, ts...);
}

}  // namespace svelat::tensor
