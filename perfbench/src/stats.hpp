// Sample statistics of the benchmark: medians, the percentile rule, and
// open-loop latency accounting timed from each request's due time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of an ascending sample; 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

/// A latency sample summarized by the benchmark's percentile rule: the
/// median, and the highest of the standard percentiles that still has at
/// least ten samples beyond it, with the sample count that supports it.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when the sample supports no tail percentile
  double tail = 0.0;
};

inline constexpr std::size_t kSamplesBeyondTail = 10;

/// True when percentile `p` has at least kSamplesBeyondTail samples
/// strictly above its nearest rank.
inline bool supports_percentile(double p, std::size_t n) {
  return n > 0 && n - nearest_rank(p, n) >= kSamplesBeyondTail;
}

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  for (const double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (!supports_percentile(p, samples.size())) break;
    s.tail_percentile = p;
    s.tail = percentile_sorted(samples, p);
  }
  return s;
}

/// One request of an open-loop schedule, in seconds from the schedule
/// start: when it was due, when the generator actually sent it, and when
/// its reply arrived. `ok` is false for retry, deadline and error replies.
struct OpenLoopRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = true;
};

/// Due time of request `i` of a fixed-rate schedule.
inline double due_time_s(std::uint64_t i, double rate_per_s) {
  return static_cast<double>(i) / rate_per_s;
}

struct OpenLoopAccount {
  /// Latency of every request measured from its due time, ascending; a
  /// failed request counts as missing every limit (+infinity).
  std::vector<double> latency_ms;
  std::uint64_t failed = 0;
  double generator_lag_p50_ms = 0.0;  ///< how late requests went out (median)
  double generator_lag_max_ms = 0.0;
};

/// Times each request from its due time, not from its send time: a stall
/// that delays later sends shows up in their latency instead of being
/// hidden by the late send.
inline OpenLoopAccount account_open_loop(const std::vector<OpenLoopRecord>& records) {
  OpenLoopAccount a;
  std::vector<double> lag;
  lag.reserve(records.size());
  a.latency_ms.reserve(records.size());
  for (const OpenLoopRecord& r : records) {
    const double late_ms = std::max(0.0, (r.sent_s - r.due_s) * 1e3);
    lag.push_back(late_ms);
    a.generator_lag_max_ms = std::max(a.generator_lag_max_ms, late_ms);
    if (r.ok) {
      a.latency_ms.push_back((r.done_s - r.due_s) * 1e3);
    } else {
      ++a.failed;
      a.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  std::sort(a.latency_ms.begin(), a.latency_ms.end());
  a.generator_lag_p50_ms = median(std::move(lag));
  return a;
}

}  // namespace perfbench
