// The benchmark's four workloads. Each builds its inputs from
// Options::seed, measures for Options::seconds, checks the library's
// outputs and fills an Outcome (see README.md beside this directory for
// the metrics and why each workload exists).
#pragma once

#include "report.hpp"

namespace perfbench {

/// Surrogate-screened DSE over the wide16 space (analytic error,
/// surrogate_seed screening and the sampled fallback dominate).
Outcome run_dse16_surrogate(const Options& opts, Tracer* tracer);

/// Cold evaluation of distinct paper8 configs into a file-backed EvalCache,
/// then a read-only resume pass (exhaustive error + hardware cost dominate).
Outcome run_dse8_cache(const Options& opts, Tracer* tracer);

/// JPEG encode/decode, adaptive JPEG encode and adaptive NN classification.
Outcome run_apps(const Options& opts, Tracer* tracer);

/// In-process axserve daemon under a closed-loop then an open-loop client.
Outcome run_serve_mixed(const Options& opts, Tracer* tracer);

}  // namespace perfbench
