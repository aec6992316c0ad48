// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own files, around the calls
// it makes into each library layer: a name, start, end, the span that was
// open on the same thread when it began (its parent), and a request id
// shared by the spans of one request. Nothing is written until the run
// ends; write_chrome() then emits Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
//
// A null Tracer* means tracing is off: Scope then records nothing, so the
// untraced runs that produce the end-to-end metrics carry no span cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< static string
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index into spans(), -1 for a root
    unsigned tid = 0;
    std::uint64_t id = 0;  ///< request id (0 = none)
  };

  /// RAII span; a no-op when the tracer is null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records an already finished interval as a child of the calling
  /// thread's open span (used where the interval is only known afterwards,
  /// e.g. the GEMM between a scheduler's decide and observe).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id = 0);

  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Total seconds of the spans called `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Number of spans called `name`.
  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Share of the time of the spans called `root` that their direct
  /// children cover (0 when there is no such span).
  [[nodiscard]] double coverage(std::string_view root) const;
  /// Durations (seconds) of the spans called `name`.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const;

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds);
  /// returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  int open(const char* name, std::uint64_t id);
  void close(int index);

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

}  // namespace perfbench
