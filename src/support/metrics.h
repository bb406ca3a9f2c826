// Wall-clock metrics: a scoped timer registry with byte accounting.
//
// The repo's portable performance currency is simulated SVE instruction
// counts (sve/sve_counters.h) -- deterministic, machine-independent,
// right for the paper's per-kernel claims, and blind to threading, NUMA,
// allocation and wire time.  This layer adds the second axis: real
// monotonic-clock time per named region, plus the bytes a region moved
// where they are counted (SVGF file bytes, wire bytes) or, for the hop
// sweeps alone, the traffic model that bench/e2e's hop GB/s reads.
// Wall-clock figures are machine-dependent by nature: they are NEVER
// gated or baselined, only reported.
//
// Usage at a call site:
//
//   metrics::ScopedTimer t("svgf_save");
//   ... the work ...
//   t.add_bytes(bytes_written);
//
// Each region accumulates calls / seconds / bytes in a global registry;
// metrics::report() renders the table, and metrics::get()/snapshot()/
// gb_per_sec() expose the numbers programmatically (the measurement
// service reports per-job deltas from them).
//
// Timing never touches field data or the SVE simulator, so numerical
// results and instruction counts do not depend on it.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace svelat::metrics {

/// Accumulated cost of one named region.  bytes are whatever the call
/// site attached (0 when a region attaches none).
struct RegionStats {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  double bytes = 0.0;

  double gb_per_sec() const { return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0; }
  double calls_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  }
};

/// Accumulate one completed region invocation (thread-safe).
void record(const char* region, double seconds, double bytes = 0.0);

/// Stats of one region (zeros when the region never ran).
RegionStats get(const std::string& region);

/// All regions, sorted by name (stable across runs for reporting).
std::vector<std::pair<std::string, RegionStats>> snapshot();

/// Combined GB/s of a set of regions: their bytes and seconds summed
/// before dividing (a region that never ran adds nothing; 0 when none ran).
double gb_per_sec(std::initializer_list<const char*> regions);

/// Drop all accumulated stats (per-job deltas in the measurement service).
void reset();

/// Human-readable table: one line per region with calls, seconds, GB/s,
/// calls/s.  Empty registry renders a one-line note.
std::string report();

/// RAII region timer.  Construction samples the monotonic clock;
/// destruction records the elapsed seconds plus the attached bytes into
/// the registry.  Bytes can be attached at construction or counted while
/// the region is open (add_bytes -- e.g. a receive that learns its wire
/// size as it runs).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* region, double bytes = 0.0)
      : region_(region), bytes_(bytes), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - start_;
    record(region_, dt.count(), bytes_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void add_bytes(double b) { bytes_ += b; }

 private:
  const char* region_;
  double bytes_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace svelat::metrics
