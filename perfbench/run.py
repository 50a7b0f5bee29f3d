#!/usr/bin/env python3
"""Benchmark entry point: build ecnsim from source, run one workload, print
the result JSON as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The simulator libraries under
src/ and the benchmark under perfbench/ are configured and built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; the result is refused (exit 1) unless the
emitted names are exactly that list.

peak_rss_mb is the median peak resident memory of RSS_PROBES fresh
processes that each run the workload once, untraced: getrusage's maximum
RSS covers a whole process, so it is only per-workload in a fresh one.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
RSS_PROBES = 3
# Wall-time budget for everything after the build; a child still running
# at the deadline is killed and the invocation fails.
RUN_TIMEOUT_S = 170
# Variables that change what a run does or install an invariant checker in
# every Simulator; the timed legs run with them removed.
PINNED_ENV = ("ECNSIM_INVARIANTS", "ECNSIM_OBS", "ECNSIM_LOG")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail("ecnsim sources not found at " + SRC_DIR + "; run from a source checkout", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out


def pinned_env():
    """The environment for the benchmark processes, with PINNED_ENV removed."""
    env = dict(os.environ)
    found = [k + "=" + env.pop(k) for k in PINNED_ENV if k in env]
    print("perfbench: pinned environment: removed " + (", ".join(found) if found else "nothing"),
          file=sys.stderr)
    return env


def benchmark_lists():
    """End-to-end and per-layer metric names from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def rss_probes(exe, args, env, deadline):
    """peak_rss_mb samples and (digest, failure) per probe process."""
    samples, outcomes = [], []
    for _ in range(RSS_PROBES):
        p = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                            "--rss-probe"], env=env, capture_output=True, text=True,
                           timeout=deadline - time.monotonic())
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            outcomes.append((None, "probe exited with code %d" % p.returncode))
            continue
        r = json.loads(p.stdout.strip().splitlines()[-1])
        samples.append(r["max_rss_kb"] / 1024.0)
        outcomes.append((r["digest"], r["failure"]))
    return samples, outcomes


def run(args):
    out = build()
    exe = os.path.join(out, "perfbench")
    env = pinned_env()
    end_to_end, per_layer = benchmark_lists()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    rss, outcomes = ([], []) if args.trace else rss_probes(exe, args, env, deadline)
    p = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env=env, capture_output=True, text=True,
                       timeout=deadline - time.monotonic())
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("benchmark exited with code %d" % p.returncode)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    digest = next((l.split(": ")[1] for l in lines if l.startswith("reference digest: ")), None)

    if not args.trace:
        for probe_digest, why in outcomes:
            result["attempted"] += 1
            if why or probe_digest is None or "0x%016x" % probe_digest != digest:
                result["failed"] += 1
                print("perfbench: rss probe failed: " + (why or "digest differs"),
                      file=sys.stderr)
        if not rss:
            fail("no peak_rss_mb sample")
        result["metrics"]["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        print("peak_rss_mb samples: %d" % len(rss))
        result["correct"] = result["correct"] and result["failed"] == 0

    expected = per_layer if args.trace else end_to_end
    if sorted(result["metrics"]) != sorted(expected):
        fail("emitted metrics %s differ from BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)))
    print(json.dumps(result))


def selftest():
    out = build()
    env = pinned_env()
    rc = subprocess.run([os.path.join(out, "perfbench_selftest")], env=env).returncode
    sys.exit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")
    run(args)


if __name__ == "__main__":
    main()
