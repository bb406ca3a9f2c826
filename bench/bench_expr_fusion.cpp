// Ablation -- expression-template fusion (paper Sec. II-C: Grid's
// abstraction layer is built on C++ template expressions).  Compares the
// fused single-pass evaluation of  r = a*x + y - i*z  against the eager
// operator chain that materializes temporaries, and the fused reduction
// against materialize-then-reduce.
#include <benchmark/benchmark.h>

#include "core/svelat.h"
#include "lattice/expr.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Field = lattice::Lattice<tensor::iVector<S, 3>>;

struct Setup {
  Setup()
      : grid({8, 8, 8, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        a(&grid),
        b(&grid),
        c(&grid),
        r(&grid) {
    sve::set_vector_length(512);
    gaussian_fill(SiteRNG(1), a);
    gaussian_fill(SiteRNG(2), b);
    gaussian_fill(SiteRNG(3), c);
  }
  lattice::GridCartesian grid;
  Field a, b, c, r;
};

Setup& setup() {
  static Setup s;
  return s;
}

const std::complex<double> kAlpha{0.5, -1.0};

void bench_eager_chain(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  std::size_t iters = 0;
  sve::CounterScope scope;
  for (auto _ : state) {
    // Three eager passes with two full temporaries.
    Field t1 = kAlpha * s.a;
    Field t2 = t1 + s.b;
    for (std::int64_t o = 0; o < s.grid.osites(); ++o)
      s.r[o] = t2[o] - tensor::timesI(s.c[o]);
    benchmark::DoNotOptimize(s.r[0]);
    ++iters;
  }
  const double sites = static_cast<double>(s.grid.gsites()) * static_cast<double>(iters);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(scope.delta().total()) / sites);
  state.counters["checksum"] = benchmark::Counter(norm2(s.r));
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

void bench_fused_expr(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  std::size_t iters = 0;
  sve::CounterScope scope;
  for (auto _ : state) {
    using namespace lattice::expr;
    eval_into(s.r, kAlpha * ref(s.a) + ref(s.b) - timesI(ref(s.c)));
    benchmark::DoNotOptimize(s.r[0]);
    ++iters;
  }
  const double sites = static_cast<double>(s.grid.gsites()) * static_cast<double>(iters);
  state.counters["insns/site"] =
      benchmark::Counter(static_cast<double>(scope.delta().total()) / sites);
  state.counters["checksum"] = benchmark::Counter(norm2(s.r));
  state.SetItemsProcessed(static_cast<std::int64_t>(sites));
}

void bench_eager_inner_product(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  std::size_t iters = 0;
  std::complex<double> ip{};
  for (auto _ : state) {
    Field t = kAlpha * s.b;
    Field u = t + s.c;
    ip = innerProduct(s.a, u);
    benchmark::DoNotOptimize(ip);
    ++iters;
  }
  state.counters["checksum"] = benchmark::Counter(std::abs(ip));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(s.grid.gsites() * static_cast<std::int64_t>(iters)));
}

void bench_fused_inner_product(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  std::size_t iters = 0;
  std::complex<double> ip{};
  for (auto _ : state) {
    using namespace lattice::expr;
    ip = inner_product(s.a, kAlpha * ref(s.b) + ref(s.c));
    benchmark::DoNotOptimize(ip);
    ++iters;
  }
  state.counters["checksum"] = benchmark::Counter(std::abs(ip));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(s.grid.gsites() * static_cast<std::int64_t>(iters)));
}

}  // namespace

BENCHMARK(bench_eager_chain)->Name("Axpy3/eager")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_fused_expr)->Name("Axpy3/fused-expr")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_eager_inner_product)
    ->Name("InnerProd/eager")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bench_fused_inner_product)
    ->Name("InnerProd/fused-expr")
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
