// Benchmark entry point: runs one workload and prints its result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// stdout: a provenance line, a detail line (the workload's named metrics
// and output digest), and last the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics the
// workload measured (--trace 1); run.py checks them against BENCHMARK.json.
// A traced run also writes Chrome trace-event JSON into the output
// directory. --tiny selects the self-test's seconds-scale inputs. Exit 1
// when an output check fails, 2 on bad usage or an exception (no result
// printed then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dse16_surrogate|dse8_cache|apps|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--tiny") o.tiny = true;
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--git-sha") o.git_sha = value();
    else if (a == "--source-digest") o.source_digest = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  // Fan-out is fixed at min(4, cores) and recorded in the provenance line.
  o.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(o.out_dir);
  return o;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? fmt(m.value).c_str() : "null", m.unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;
  Outcome out;
  try {
    if (opts.workload == "dse16_surrogate") out = run_dse16_surrogate(opts, tr);
    else if (opts.workload == "dse8_cache") out = run_dse8_cache(opts, tr);
    else if (opts.workload == "apps") out = run_apps(opts, tr);
    else if (opts.workload == "serve_mixed") out = run_serve_mixed(opts, tr);
    else usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 2;
  }
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (opts.trace) {
    const std::string path =
        opts.out_dir + "/trace-" + opts.workload + "-seed" + std::to_string(opts.seed) + ".json";
    if (tracer.write_chrome(path)) std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  }

  std::printf("{\"provenance\": {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"axmult_native\": %d, "
              "\"cores\": %u, \"threads\": %u, \"seed\": %llu, \"workload\": \"%s\", "
              "\"trace\": %d, \"tiny\": %d, \"seconds\": %s}}\n",
              opts.git_sha.c_str(), opts.source_digest.c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE, std::thread::hardware_concurrency(),
              opts.threads, static_cast<unsigned long long>(opts.seed), opts.workload.c_str(),
              opts.trace ? 1 : 0, opts.tiny ? 1 : 0, fmt(opts.seconds).c_str());
  std::printf("{\"workload\": \"%s\", \"digest\": \"%s\", \"details\": ", opts.workload.c_str(),
              digest_hex(out.digest_text).c_str());
  print_metrics(out.details);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics(out.metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
