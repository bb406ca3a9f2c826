// Ablation -- two design choices of the hopping-term implementation:
//
//  (a) stencil tables + fused neighbour fetch (WilsonDirac::dhop, the
//      production path, Grid's CartesianStencil design) versus
//      materializing all eight shifted fields with Cshift
//      (dhop_via_cshift): measures what the stencil buys in temporaries
//      and memory traffic.
//
//  (b) PTRUE fixed-size predication versus WHILELT VLA predication for the
//      Sec. IV complex-multiply kernel: measures the loop-bookkeeping
//      overhead the paper's fixed-size port avoids (Sec. IV-D).
#include <benchmark/benchmark.h>

#include "core/svelat.h"

namespace {

using namespace svelat;

template <typename S>
struct Setup {
  Setup()
      : vl(8 * S::vlb),
        grid({4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        gauge(&grid),
        dirac((qcd::random_gauge(SiteRNG(2018), gauge), gauge), 0.0),
        in(&grid),
        out(&grid) {
    gaussian_fill(SiteRNG(5), in);
  }
  sve::VLGuard vl;
  lattice::GridCartesian grid;
  qcd::GaugeField<S> gauge;
  qcd::WilsonDirac<S> dirac;
  qcd::LatticeFermion<S> in, out;
};

template <typename S>
void bench_dhop_stencil(benchmark::State& state) {
  Setup<S> s;
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    s.dirac.dhop(s.in, s.out);
    benchmark::DoNotOptimize(s.out[0]);
    ++iters;
  }
  const double sites = static_cast<double>(s.grid.gsites()) * static_cast<double>(iters);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(scope.delta().total()) / sites);
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

template <typename S>
void bench_dhop_cshift(benchmark::State& state) {
  Setup<S> s;
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    qcd::dhop_via_cshift(s.gauge, s.in, s.out);
    benchmark::DoNotOptimize(s.out[0]);
    ++iters;
  }
  const double sites = static_cast<double>(s.grid.gsites()) * static_cast<double>(iters);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(scope.delta().total()) / sites);
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

// (b) predication strategy on the raw kernel: ptrue-fixed vs whilelt-VLA.
void bench_kernel_fixed_ptrue(benchmark::State& state) {
  sve::set_vector_length(static_cast<unsigned>(state.range(0)));
  const std::size_t n = 512;  // complex numbers, multiple of every VL
  AlignedVector<double> x(2 * n, 1.5), y(2 * n, -0.5), z(2 * n);
  const std::size_t per_vec = kernels::cplx_per_vector();
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + per_vec <= n; i += per_vec)
      kernels::mult_cplx_acle_fixed(&x[2 * i], &y[2 * i], &z[2 * i]);
    benchmark::DoNotOptimize(z.data());
    ++iters;
  }
  state.counters["insns/elem"] = benchmark::Counter(
      static_cast<double>(scope.delta().total()) / static_cast<double>(iters * n));
  state.SetItemsProcessed(static_cast<std::int64_t>(iters * n));
}

void bench_kernel_vla_whilelt(benchmark::State& state) {
  sve::set_vector_length(static_cast<unsigned>(state.range(0)));
  const std::size_t n = 512;
  AlignedVector<double> x(2 * n, 1.5), y(2 * n, -0.5), z(2 * n);
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    kernels::mult_cplx_acle(n, x.data(), y.data(), z.data());
    benchmark::DoNotOptimize(z.data());
    ++iters;
  }
  state.counters["insns/elem"] = benchmark::Counter(
      static_cast<double>(scope.delta().total()) / static_cast<double>(iters * n));
  state.SetItemsProcessed(static_cast<std::int64_t>(iters * n));
}

using D512F = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using D256F = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using D512G = simd::SimdComplex<double, simd::kVLB512, simd::Generic>;
constexpr auto kMs = benchmark::kMillisecond;

}  // namespace

BENCHMARK(bench_dhop_stencil<D512F>)->Name("DhopStencil/fcmla/512")->Unit(kMs);
BENCHMARK(bench_dhop_cshift<D512F>)->Name("DhopCshift/fcmla/512")->Unit(kMs);
BENCHMARK(bench_dhop_stencil<D256F>)->Name("DhopStencil/fcmla/256")->Unit(kMs);
BENCHMARK(bench_dhop_cshift<D256F>)->Name("DhopCshift/fcmla/256")->Unit(kMs);
BENCHMARK(bench_dhop_stencil<D512G>)->Name("DhopStencil/generic/512")->Unit(kMs);
BENCHMARK(bench_dhop_cshift<D512G>)->Name("DhopCshift/generic/512")->Unit(kMs);

BENCHMARK(bench_kernel_fixed_ptrue)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
BENCHMARK(bench_kernel_vla_whilelt)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

BENCHMARK_MAIN();
