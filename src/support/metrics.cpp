#include "support/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

bool env_default() {
#if !SVELAT_METRICS_ENABLED
  return false;
#else
  const char* v = std::getenv("SVELAT_METRICS");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "OFF") == 0);
#endif
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> on{env_default()};
  return on;
}

}  // namespace

bool enabled() {
#if !SVELAT_METRICS_ENABLED
  return false;
#else
  return enabled_flag().load(std::memory_order_relaxed);
#endif
}

void set_enabled(bool on) {
  enabled_flag().store(on && SVELAT_METRICS_ENABLED, std::memory_order_relaxed);
}

void record(const char* region, double seconds, double bytes) {
  if (!enabled()) return;  // the runtime switch silences direct record() too
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

std::string report_json() {
  const auto rows = snapshot();
  std::string out = "{\"regions\": [";
  char buf[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, s] = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"calls\": %llu, \"seconds\": %.6f, "
                  "\"bytes\": %.0f, \"gb_per_sec\": %.4f}",
                  i == 0 ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(s.calls), s.seconds, s.bytes,
                  s.gb_per_sec());
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace svelat::metrics
