// Unit tests of the benchmark's own statistics and tracing:
//   * the percentile rule (median + highest percentile with >= 10 samples
//     beyond it, with the sample count),
//   * open-loop latency accounting from the due time,
//   * span parents and coverage.
// Run: perfbench_tests (exit 0 = all passed). `python3 perfbench/run.py
// --selftest` builds and runs it, then every workload in tiny mode.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted input
  return v;
}

void test_median() {
  expect(near(median({}), 0.0), "median of nothing is 0");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median averages the middle pair");
}

void test_percentile_rule() {
  // 19 samples: p90 has rank 18, one sample beyond -> no tail percentile.
  Summary s = summarize(one_to(19));
  expect(s.samples == 19, "sample count reported");
  expect(near(s.p50, 10.0), "p50 of 1..19");
  expect(s.tail_percentile == 0.0, "19 samples support no tail percentile");

  // 100 samples: p90 = 90 with 10 beyond; p99 would leave 1 -> p90.
  s = summarize(one_to(100));
  expect(near(s.tail_percentile, 90.0) && near(s.tail, 90.0), "100 samples -> p90");

  // 1000 samples: p99 (rank 990) has exactly 10 beyond; p99.9 has 1.
  s = summarize(one_to(1000));
  expect(near(s.tail_percentile, 99.0) && near(s.tail, 990.0), "1000 samples -> p99");
  expect(!supports_percentile(99.0, 999), "999 samples leave 9 beyond p99");
  expect(supports_percentile(99.0, 1000), "1000 samples leave 10 beyond p99");

  // 10000 samples -> p99.9.
  s = summarize(one_to(10000));
  expect(near(s.tail_percentile, 99.9) && near(s.tail, 9990.0), "10000 samples -> p99.9");
  expect(near(percentile_sorted({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0), "nearest-rank p50");
}

void test_due_time_accounting() {
  // Four requests due every 1 ms. The generator stalls for 4 ms after the
  // first: requests 1..3 go out late, back to back, each answered in
  // 0.1 ms. Timed from the send, the stall vanishes (all 0.1 ms); timed
  // from the due time, it lands on the requests it delayed.
  const std::vector<OpenLoopRecord> recs = {
      {due_time_s(0, 1000.0), 0.0000, 0.0001, true},
      {due_time_s(1, 1000.0), 0.0050, 0.0051, true},
      {due_time_s(2, 1000.0), 0.0051, 0.0052, true},
      {due_time_s(3, 1000.0), 0.0052, 0.0053, true},
  };
  const OpenLoopAccount a = account_open_loop(recs);
  const std::vector<double> expected_ms = {0.1, 2.3, 3.2, 4.1};
  expect(a.latency_ms.size() == 4, "one latency per request");
  for (std::size_t i = 0; i < expected_ms.size() && i < a.latency_ms.size(); ++i) {
    expect(std::fabs(a.latency_ms[i] - expected_ms[i]) < 1e-6, "latency measured from due time");
  }
  expect(std::fabs(a.generator_lag_max_ms - 4.0) < 1e-6, "generator lag reports the stall");
  expect(a.failed == 0, "no failures");

  // A failed (retry/deadline/error) request counts as missing every limit.
  const OpenLoopAccount b = account_open_loop({{0.0, 0.0, 0.0001, true}, {0.001, 0.001, 0.0011, false}});
  expect(b.failed == 1, "failed reply counted");
  expect(std::isinf(b.latency_ms.back()), "failed reply ranks above every latency");
}

void test_tracer() {
  Tracer t;
  {
    Tracer::Scope root(&t, "root");
    { Tracer::Scope a(&t, "child", 7); std::this_thread::sleep_for(std::chrono::milliseconds(2)); }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto spans = t.spans();
  expect(spans.size() == 2, "two spans recorded");
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[1].id == 7, "child knows its parent and id");
  const double cov = t.coverage("root");
  expect(cov > 0.2 && cov < 0.8, "coverage is the children's share of the root");
  expect(t.count("child") == 1 && t.total_s("child") > 0.0015, "span totals");
  { Tracer::Scope off(nullptr, "ignored"); }
  expect(t.spans().size() == 2, "a null tracer records nothing");
}

}  // namespace

int main() {
  test_median();
  test_percentile_rule();
  test_due_time_accounting();
  test_tracer();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
