#include "trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Index of the span currently open on this thread (-1 = none).
thread_local int t_open_span = -1;

unsigned thread_number() {
  return static_cast<unsigned>(std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = t_open_span;
  index_ = tracer_->open(name, id);
  t_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(index_);
  t_open_span = saved_parent_;
}

int Tracer::open(const char* name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.parent = t_open_span;
  s.tid = thread_number();
  s.id = id;
  std::lock_guard<std::mutex> lock(mutex_);
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = now;
}

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t id) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = t_open_span;
  s.tid = thread_number();
  s.id = id;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::total_s(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::size_t Tracer::count(std::string_view name) const { return durations_s(name).size(); }

std::vector<double> Tracer::durations_s(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

double Tracer::coverage(std::string_view root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double root_s = 0.0;
  double child_s = 0.0;
  for (const Span& s : spans_) {
    if (root == s.name) root_s += seconds_between(s.start, s.end);
    if (s.parent >= 0 && root == spans_[static_cast<std::size_t>(s.parent)].name) {
      child_s += seconds_between(s.start, s.end);
    }
  }
  return root_s > 0.0 ? child_s / root_s : 0.0;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", \"ts\": " << us(s.start)
        << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
