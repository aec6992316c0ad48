#include "report.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "stats.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void time_setups(const std::function<void()>& prepare, unsigned min_count, double min_s,
                 std::vector<double>& times) {
  const Clock::time_point start = Clock::now();
  for (unsigned n = 0; n < min_count || seconds_since(start) < min_s; ++n) {
    const Clock::time_point t0 = Clock::now();
    prepare();
    times.push_back(seconds_since(t0));
  }
}

std::vector<double> run_cycles(double seconds, unsigned min_cycles,
                               const std::function<void(unsigned)>& cycle) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  for (unsigned i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    cycle(i);
    times.push_back(seconds_since(t0));
    if (times.size() >= min_cycles && seconds_since(start) + times.back() > seconds) break;
  }
  return times;
}

void add_end_to_end(Outcome& out, double setup_s, double throughput_per_s) {
  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("throughput", throughput_per_s, "1/s");
}

void add_trace_overhead(Outcome& out, double coverage, double traced_s, double untraced_s) {
  out.metric("trace.coverage", coverage, "ratio");
  out.metric("trace.overhead_s", traced_s - untraced_s, "s");
  out.detail("trace.traced_wall_s", traced_s, "s");
  out.detail("trace.untraced_wall_s", untraced_s, "s");
}

}  // namespace perfbench
