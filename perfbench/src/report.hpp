// Shared vocabulary of the benchmark's workloads: run options, the
// outcome each workload fills, and the helpers that turn it into the
// printed result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement window of one run
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  bool tiny = false;      ///< seconds-scale inputs for the self-test
  unsigned threads = 4;   ///< fan-out threads and server-worker bound: min(4, cores)
  std::string out_dir = ".";  ///< cache files, sockets, traces
  std::string git_sha = "none";
  std::string source_digest = "none";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload produced.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the final result line: end-to-end in an untraced run,
  /// per-layer in a traced one.
  std::vector<Metric> metrics;
  /// The workload's own named metrics (the end-to-end numbers specific to
  /// it, or traced-run extras), printed by name on a detail line.
  std::vector<Metric> details;
  /// Canonical text of the simulated statistics (fronts, objectives,
  /// stream bytes, predictions, served results); its hash is the digest
  /// a speed-only change must leave unchanged.
  std::string digest_text;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an output check; a failing check makes the run incorrect and
  /// is reported on stderr.
  void check(bool ok, const std::string& what);
};

/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string digest_hex(const std::string& text);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string fmt(double v);

/// Setup timing. The host's speed drifts by tens of percent over seconds,
/// so setups timed in one burst before the measurement see one moment of
/// it. Each workload therefore times a lead of setups before it measures
/// and, where it measures in cycles, more setups before every cycle
/// (outside the cycle's own timing). setup_s is the median of all of them,
/// taken over the same stretch of time as the run's throughput.
inline constexpr unsigned kSetupLeadRepeats = 9;
inline constexpr double kSetupLeadSeconds = 0.5;
inline constexpr double kSetupCycleSeconds = 0.05;

/// Runs `prepare` at least `min_count` times and until `min_s` seconds have
/// passed, and appends the wall time of each run to `times`. The state of
/// the last run is what the workload then uses.
void time_setups(const std::function<void()>& prepare, unsigned min_count, double min_s,
                 std::vector<double>& times);

/// Repeats `cycle` (one fixed unit of work) while another cycle of the
/// last cycle's length still fits into `seconds`, and at least
/// `min_cycles` times. Returns the wall time of each cycle.
[[nodiscard]] std::vector<double> run_cycles(double seconds, unsigned min_cycles,
                                             const std::function<void(unsigned)>& cycle);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(Outcome& out, double setup_s, double throughput_per_s);

/// Traced-run bookkeeping every workload reports: span coverage of the
/// traced phases and traced-minus-untraced wall time.
void add_trace_overhead(Outcome& out, double coverage, double traced_s, double untraced_s);

}  // namespace perfbench
