#include "support/metrics.h"

#include <cstdio>
#include <map>
#include <mutex>

namespace svelat::metrics {

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, RegionStats>& registry() {
  static std::map<std::string, RegionStats> r;
  return r;
}

}  // namespace

void record(const char* region, double seconds, double bytes) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  RegionStats& s = registry()[region];
  ++s.calls;
  s.seconds += seconds;
  s.bytes += bytes;
}

RegionStats get(const std::string& region) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(region);
  return it == registry().end() ? RegionStats{} : it->second;
}

double gb_per_sec(std::initializer_list<const char*> regions) {
  RegionStats sum;
  for (const char* name : regions) {
    const RegionStats s = get(name);
    sum.bytes += s.bytes;
    sum.seconds += s.seconds;
  }
  return sum.gb_per_sec();
}

std::vector<std::pair<std::string, RegionStats>> snapshot() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return {registry().begin(), registry().end()};  // std::map: already name-sorted
}

void reset() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
}

std::string report() {
  const auto rows = snapshot();
  if (rows.empty()) return "metrics: no regions recorded\n";
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %8s %10s %9s %10s\n", "region", "calls",
                "seconds", "GB/s", "calls/s");
  out += line;
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof(line), "%-18s %8llu %10.4f %9.3f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(s.calls), s.seconds, s.gb_per_sec(),
                  s.calls_per_sec());
    out += line;
  }
  return out;
}

}  // namespace svelat::metrics
