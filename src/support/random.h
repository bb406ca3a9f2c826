// Layout-independent parallel random numbers.
//
// The Sec. V-D verification requires that a field filled "randomly" is
// *identical* no matter which SVE vector length or SIMD backend laid the
// data out in memory.  Grid achieves this with one RNG per lattice site;
// we use a counter-based construction instead: every drawn number is a pure
// function of (seed, site, slot).  That makes fills reproducible across
// vector lengths, backends, and thread counts, which is exactly the
// property the cross-VL bit-identity tests rely on.
#pragma once

#include <cstdint>

namespace svelat {

/// SplitMix64 finalizer; a high-quality 64-bit mixing function.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless counter-based generator: draws are keyed, not sequenced.
class SiteRNG {
 public:
  explicit SiteRNG(std::uint64_t seed)
      : seed_(splitmix64(seed ^ 0xa076'1d64'78bd'642full)) {}

  /// Uniform 64-bit integer for (site, slot).
  std::uint64_t bits(std::uint64_t site, std::uint64_t slot) const {
    // Two rounds of mixing decorrelate site and slot contributions.
    return splitmix64(splitmix64(seed_ + 0x632b'e59b'd9b4'e019ull * site) +
                      0x9e37'79b9'7f4a'7c15ull * (slot + 1));
  }

  /// Uniform double in [0, 1).
  double uniform(std::uint64_t site, std::uint64_t slot) const {
    return static_cast<double>(bits(site, slot) >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(std::uint64_t site, std::uint64_t slot, double lo, double hi) const {
    return lo + (hi - lo) * uniform(site, slot);
  }

  /// Standard normal deviate via Box-Muller (deterministic per key).
  double gaussian(std::uint64_t site, std::uint64_t slot) const;

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace svelat
