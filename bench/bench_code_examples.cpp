// L1-L4 -- the four kernels of paper Sec. IV, measured across vector
// lengths: wall time per element plus the dynamic SVE instruction count
// per element (the ArmIE-style metric; absolute wall time is simulator
// time, the instruction counts are architecture-level facts).
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "core/kernels.h"
#include "support/aligned.h"
#include "sve/sve.h"

namespace {

using namespace svelat;
using kernels::cplx;

constexpr std::size_t kN = 1024;  // complex elements (or doubles for L1)

struct Buffers {
  AlignedVector<double> xr, yr, zr;
  AlignedVector<cplx> xc, yc, zc;

  Buffers() : xr(2 * kN), yr(2 * kN), zr(2 * kN), xc(kN), yc(kN), zc(kN) {
    for (std::size_t i = 0; i < 2 * kN; ++i) {
      xr[i] = 0.5 + 0.25 * static_cast<double>(i % 17);
      yr[i] = -1.0 + 0.125 * static_cast<double>(i % 23);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      xc[i] = {xr[2 * i], xr[2 * i + 1]};
      yc[i] = {yr[2 * i], yr[2 * i + 1]};
    }
  }
};

Buffers& buffers() {
  static Buffers b;
  return b;
}

void set_vl(benchmark::State& state) {
  sve::set_vector_length(static_cast<unsigned>(state.range(0)));
}

void report(benchmark::State& state, std::size_t elements_per_iter,
            const sve::InsnCounters& delta, std::size_t iters) {
  state.SetItemsProcessed(static_cast<std::int64_t>(elements_per_iter * iters));
  state.counters["insns/elem"] = benchmark::Counter(
      static_cast<double>(delta.total()) /
      static_cast<double>(elements_per_iter * iters));
  state.counters["fcmla/elem"] = benchmark::Counter(
      static_cast<double>(delta[sve::InsnClass::kFCmla]) /
      static_cast<double>(elements_per_iter * iters));
  state.counters["mem/elem"] = benchmark::Counter(
      static_cast<double>(delta.memory_insns()) /
      static_cast<double>(elements_per_iter * iters));
}

void L1_mult_real_vla(benchmark::State& state) {
  set_vl(state);
  auto& b = buffers();
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    kernels::mult_real_sve(2 * kN, b.xr.data(), b.yr.data(), b.zr.data());
    benchmark::DoNotOptimize(b.zr.data());
    ++iters;
  }
  report(state, 2 * kN, scope.delta(), iters);
}

void L2_mult_cplx_autovec(benchmark::State& state) {
  set_vl(state);
  auto& b = buffers();
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    kernels::mult_cplx_autovec(kN, b.xc.data(), b.yc.data(), b.zc.data());
    benchmark::DoNotOptimize(b.zc.data());
    ++iters;
  }
  report(state, kN, scope.delta(), iters);
}

void L3_mult_cplx_acle_vla(benchmark::State& state) {
  set_vl(state);
  auto& b = buffers();
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    kernels::mult_cplx_acle(kN, b.xr.data(), b.yr.data(), b.zr.data());
    benchmark::DoNotOptimize(b.zr.data());
    ++iters;
  }
  report(state, kN, scope.delta(), iters);
}

void L4_mult_cplx_acle_fixed(benchmark::State& state) {
  set_vl(state);
  auto& b = buffers();
  // One hardware vector per call: iterate over the buffer in vector steps.
  const std::size_t per_vec = kernels::cplx_per_vector();
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + per_vec <= kN; i += per_vec)
      kernels::mult_cplx_acle_fixed(&b.xr[2 * i], &b.yr[2 * i], &b.zr[2 * i]);
    benchmark::DoNotOptimize(b.zr.data());
    ++iters;
  }
  report(state, (kN / per_vec) * per_vec, scope.delta(), iters);
}

void L0_mult_cplx_scalar(benchmark::State& state) {
  // Scalar std::complex loop: no SVE at all, the pre-vectorization baseline.
  auto& b = buffers();
  std::size_t iters = 0;
  for (auto _ : state) {
    kernels::mult_cplx_scalar(kN, b.xc.data(), b.yc.data(), b.zc.data());
    benchmark::DoNotOptimize(b.zc.data());
    ++iters;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kN * iters));
}

}  // namespace

BENCHMARK(L0_mult_cplx_scalar);
BENCHMARK(L1_mult_real_vla)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
BENCHMARK(L2_mult_cplx_autovec)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
BENCHMARK(L3_mult_cplx_acle_vla)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
BENCHMARK(L4_mult_cplx_acle_fixed)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_MAIN();
