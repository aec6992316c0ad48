#!/usr/bin/env python3
"""Builds the axmult benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dse16_surrogate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles the library and the benchmark into
``$CARGO_TARGET_DIR/perfbench`` (``.bench_build/perfbench`` when the
variable is unset); later calls only re-check the build. Build output goes
to stderr, so the last line of stdout is always the benchmark's JSON
result.

BENCHMARK.json is the one list of metric names and units. The result line
is checked against it: an untraced run reports exactly its ``end_to_end``
metrics, and a traced run reports its ``per_layer`` metrics, where a layer
the workload does not exercise reads 0. A metric that is not listed, or
that carries another unit, fails the run without a result line.

``--selftest`` runs the benchmark's unit tests and then every workload in
its tiny mode, through the same checks. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dse16_surrogate", "dse8_cache", "apps", "serve_mixed"]
RUN_TIMEOUT_S = 175
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(targets):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        log(f"configuring in {os.path.relpath(bdir, ROOT)}")
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    for target in targets:
        if not run_quiet(["cmake", "--build", bdir, "--target", target, "-j", str(BUILD_JOBS)]):
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def source_digest():
    """SHA-256 over every file of src/ and perfbench/: names the measured code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def listed_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for a run, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def conform(result, listed, fill_missing):
    """Puts the result's metrics into BENCHMARK.json's order. Returns an error
    message when a metric is not listed, has another unit, or is missing and
    `fill_missing` is off (with it on, a missing metric reads 0)."""
    got = result.get("metrics")
    if not isinstance(got, dict):
        return "the result has no metrics object"
    for name, metric in got.items():
        if name not in listed:
            return f"metric {name} is not listed in BENCHMARK.json"
        if metric.get("unit") != listed[name]:
            return f"metric {name} has unit {metric.get('unit')!r}, not {listed[name]!r}"
    ordered = {}
    for name, unit in listed.items():
        if name in got:
            ordered[name] = got[name]
        elif fill_missing:
            ordered[name] = {"value": 0.0, "unit": unit}
        else:
            return f"metric {name} is missing"
    result["metrics"] = ordered
    return None


def run_binary(cmd):
    """Runs a program with its stdout captured; returns (exit code, stdout).
    A program that overruns RUN_TIMEOUT_S is killed and reported as code 3."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{os.path.basename(cmd[0])} overran {RUN_TIMEOUT_S} s; killed")
        proc.kill()
        proc.communicate()
        return 3, ""
    return proc.returncode, out


def run_workload(cmd, trace):
    """Runs one workload and prints its lines, the result line last once it
    conforms to BENCHMARK.json. Returns the exit code: the program's (1 when
    an output check failed), or 2 or more when there is no valid result."""
    code, out = run_binary(cmd)
    lines = out.splitlines()
    if code not in (0, 1) or not lines:
        sys.stderr.write(out)
        log(f"the benchmark program exited with {code} and no result")
        return code if code > 1 else 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    error = "the last line is not a JSON result" if not isinstance(result, dict) else \
        conform(result, listed_metrics(trace), fill_missing=trace)
    if error is not None:
        sys.stderr.write(out)
        log(error)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the unit tests, then every workload in tiny mode")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    targets = ["perfbench", "perfbench_tests"] if args.selftest else ["perfbench"]
    if not build(targets):
        log("build failed")
        return 2
    bdir = build_dir()
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--out-dir", out_dir, "--git-sha", git_sha(), "--source-digest", source_digest()]
    binary = os.path.join(bdir, "perfbench")

    if args.selftest:
        code, out = run_binary([os.path.join(bdir, "perfbench_tests")])
        sys.stderr.write(out)
        if code != 0:
            return code
        for workload in WORKLOADS:
            for trace in (0, 1):
                code = run_workload([binary, "--workload", workload, "--seed", str(args.seed),
                                     "--seconds", "1", "--trace", str(trace), "--tiny"] + common,
                                    trace)
                if code != 0:
                    log(f"tiny {workload} --trace {trace} failed")
                    return code
        log("selftest passed")
        return 0

    return run_workload([binary, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)] + common,
                        args.trace)


if __name__ == "__main__":
    sys.exit(main())
