// E1 -- Wilson hopping-term (Eq. 1) throughput: the Benchmark_dslash
// analogue for this framework.  Reports the conventional 1320 flop/site
// rate (simulated wall-clock) and the dynamic instruction count per site
// for every vector length and backend.  The architecture-level shape to
// verify: instructions/site halve as the vector doubles; the FCMLA
// backend needs fewer instructions than the real-arithmetic alternative.
#include <benchmark/benchmark.h>

#include "core/svelat.h"

namespace {

using namespace svelat;

template <typename S>
struct DslashSetup {
  DslashSetup()
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
void bench_dhop(benchmark::State& state) {
  DslashSetup<S> setup;
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    setup.dirac.dhop(setup.in, setup.out);
    benchmark::DoNotOptimize(setup.out[0]);
    ++iters;
  }
  const auto d = scope.delta();
  const double sites =
      static_cast<double>(setup.grid.gsites()) * static_cast<double>(iters);
  state.counters["Mflop/s"] = benchmark::Counter(
      qcd::kDhopFlopsPerSite * sites / 1e6, benchmark::Counter::kIsRate);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(d.total()) / sites);
  state.counters["fcmla/site"] =
      benchmark::Counter(static_cast<double>(d[sve::InsnClass::kFCmla]) / sites);
  state.counters["perm/site"] =
      benchmark::Counter(static_cast<double>(d[sve::InsnClass::kPermute]) / sites);
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

// Parity-restricted hopping term on half-checkerboard fields: the Schur
// operator's Dh_eo at one right-hand side, which writes V/2 sites from
// V/2-site operands.  insns/site stays at the full-dhop level (same shared
// site arithmetic); insns/apply -- and with it the traffic of one Schur
// Mhat -- halves relative to the zero-padded full-lattice application.
template <typename S>
void bench_dhop_eo(benchmark::State& state) {
  DslashSetup<S> setup;
  const qcd::SchurEvenOddWilson<S> schur(setup.gauge, 0.0);
  const qcd::BlockSchurEvenOddWilson<S, 1> eo(schur);
  qcd::HalfBlockFermion<S, 1> in_o(eo.odd_grid()), out_e(eo.even_grid());
  lattice::pick_checkerboard(setup.in, in_o, 0);
  sve::CounterScope scope;
  std::size_t iters = 0;
  for (auto _ : state) {
    eo.dhop_eo(in_o, out_e);
    benchmark::DoNotOptimize(out_e.at(0, 0));
    ++iters;
  }
  const auto d = scope.delta();
  const double sites =
      static_cast<double>(eo.even_grid()->gsites()) * static_cast<double>(iters);
  state.counters["Mflop/s"] = benchmark::Counter(
      qcd::kDhopFlopsPerSite * sites / 1e6, benchmark::Counter::kIsRate);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(d.total()) / sites);
  state.counters["insns/apply"] =
      benchmark::Counter(static_cast<double>(d.total()) / static_cast<double>(iters));
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

using D128G = simd::SimdComplex<double, simd::kVLB128, simd::Generic>;
using D256G = simd::SimdComplex<double, simd::kVLB256, simd::Generic>;
using D512G = simd::SimdComplex<double, simd::kVLB512, simd::Generic>;
using D128F = simd::SimdComplex<double, simd::kVLB128, simd::SveFcmla>;
using D256F = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using D512F = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using D128R = simd::SimdComplex<double, simd::kVLB128, simd::SveReal>;
using D256R = simd::SimdComplex<double, simd::kVLB256, simd::SveReal>;
using D512R = simd::SimdComplex<double, simd::kVLB512, simd::SveReal>;
using F512F = simd::SimdComplex<float, simd::kVLB512, simd::SveFcmla>;

}  // namespace

BENCHMARK(bench_dhop<D128G>)->Name("Dhop/generic/128")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D256G>)->Name("Dhop/generic/256")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D512G>)->Name("Dhop/generic/512")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D128F>)->Name("Dhop/fcmla/128")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D256F>)->Name("Dhop/fcmla/256")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D512F>)->Name("Dhop/fcmla/512")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D128R>)->Name("Dhop/real/128")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D256R>)->Name("Dhop/real/256")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<D512R>)->Name("Dhop/real/512")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop<F512F>)->Name("Dhop/fcmla/512f")->Unit(benchmark::kMillisecond);

BENCHMARK(bench_dhop_eo<D128G>)
    ->Name("DhopEO/generic/128")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop_eo<D512G>)
    ->Name("DhopEO/generic/512")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop_eo<D128F>)->Name("DhopEO/fcmla/128")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop_eo<D512F>)->Name("DhopEO/fcmla/512")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop_eo<D512R>)->Name("DhopEO/real/512")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_dhop_eo<F512F>)->Name("DhopEO/fcmla/512f")->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
