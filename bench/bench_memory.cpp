// Supporting -- memory-path benchmark (Grid's Benchmark_memory analogue):
// regular, streaming (non-temporal) and prefetching copies of fermion
// fields, plus field fill.  Paper Sec. II-C lists "load, store, memory
// prefetch, streaming memory access" among the machine-specific
// operations every Grid port must provide.
#include <benchmark/benchmark.h>

#include "core/svelat.h"
#include "lattice/memory_ops.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

struct Setup {
  Setup()
      : grid({8, 8, 8, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd())),
        src(&grid),
        dst(&grid) {
    sve::set_vector_length(512);
    gaussian_fill(SiteRNG(1), src);
    dst.set_zero();
  }
  lattice::GridCartesian grid;
  Field src, dst;
};

Setup& setup() {
  static Setup s;
  return s;
}

void bench_copy(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  const std::size_t bytes =
      static_cast<std::size_t>(s.grid.gsites()) * qcd::Ns * qcd::Nc * 2 * sizeof(double);
  std::size_t iters = 0;
  for (auto _ : state) {
    lattice::copy_field(s.dst, s.src);
    benchmark::DoNotOptimize(s.dst[0]);
    ++iters;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(2 * bytes * iters));  // rd + wr
  state.counters["checksum"] = benchmark::Counter(norm2(s.dst));
}

void bench_stream_copy(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  const std::size_t bytes =
      static_cast<std::size_t>(s.grid.gsites()) * qcd::Ns * qcd::Nc * 2 * sizeof(double);
  std::size_t iters = 0;
  sve::CounterScope scope;
  for (auto _ : state) {
    lattice::stream_copy_field(s.dst, s.src);
    benchmark::DoNotOptimize(s.dst[0]);
    ++iters;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(2 * bytes * iters));
  // All memory traffic must be on the non-temporal opcodes.
  state.counters["ld+st"] = benchmark::Counter(
      static_cast<double>(scope.delta().memory_insns()) / static_cast<double>(iters));
  state.counters["checksum"] = benchmark::Counter(norm2(s.dst));
}

void bench_prefetch_copy(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  const std::size_t bytes =
      static_cast<std::size_t>(s.grid.gsites()) * qcd::Ns * qcd::Nc * 2 * sizeof(double);
  std::size_t iters = 0;
  for (auto _ : state) {
    lattice::prefetch_copy_field(s.dst, s.src);
    benchmark::DoNotOptimize(s.dst[0]);
    ++iters;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(2 * bytes * iters));
  state.counters["checksum"] = benchmark::Counter(norm2(s.dst));
}

void bench_splat(benchmark::State& state) {
  sve::set_vector_length(512);
  auto& s = setup();
  const std::size_t bytes =
      static_cast<std::size_t>(s.grid.gsites()) * qcd::Ns * qcd::Nc * 2 * sizeof(double);
  std::size_t iters = 0;
  for (auto _ : state) {
    lattice::splat_field(s.dst, 1.0);
    benchmark::DoNotOptimize(s.dst[0]);
    ++iters;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes * iters));  // write only
  state.counters["checksum"] = benchmark::Counter(norm2(s.dst));
}

void bench_memcpy_baseline(benchmark::State& state) {
  // Host memcpy: the roofline for any simulated copy path.
  auto& s = setup();
  const std::size_t bytes =
      static_cast<std::size_t>(s.grid.gsites()) * qcd::Ns * qcd::Nc * 2 * sizeof(double);
  std::size_t iters = 0;
  for (auto _ : state) {
    std::memcpy(&s.dst[0], &s.src[0], bytes);
    benchmark::DoNotOptimize(s.dst[0]);
    ++iters;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(2 * bytes * iters));
}

}  // namespace

BENCHMARK(bench_copy)->Name("Memory/copy")->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_stream_copy)->Name("Memory/stream-copy")->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_prefetch_copy)
    ->Name("Memory/prefetch-copy")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_splat)->Name("Memory/splat")->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_memcpy_baseline)
    ->Name("Memory/memcpy-baseline")
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
