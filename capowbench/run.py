#!/usr/bin/env python3
"""capow-bench: build the benchmark from source, then run it.

    python3 capowbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 capowbench/run.py --smoke

Run from the repository root. The first run configures and builds
capowbench/ (which pulls in the capow library one level up) into
.bench_build/capowbench; later runs rebuild incrementally. Build output
goes to stderr; stdout carries the benchmark's report, whose last line
is one JSON object with the keys correct, attempted, failed and metrics.

--smoke is the benchmark's own test: every workload runs a few calls
with tracing off and on, and the run fails unless every end-to-end and
per-layer metric named in BENCHMARK.json prints with its unit,
error_rate is 0 and the ledger conserves.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "capowbench")
BINARY = os.path.join(BUILD, "capow-bench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ["gemm_dense", "recursive_simd", "small_mixed", "dist_p4"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "capow")):
        sys.exit("capow-bench: the capow sources are not next to the "
                 "benchmark (expected CMakeLists.txt and src/capow in %s)"
                 % ROOT)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "capow-bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    os.makedirs(OUT, exist_ok=True)


def run_binary(workload, seed, seconds, trace, smoke=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", OUT]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_binary(workload, 1, 1, trace, smoke=True)
            out = proc.stdout
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                failures.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            lines = out.splitlines()
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s: %s missing or wrong unit in the "
                                    "result" % (label, m["name"]))
                if not any(l.split()[:1] == [m["name"]] and
                           l.split()[2:3] == [m["unit"]] for l in lines):
                    failures.append("%s: %s not printed with its unit"
                                    % (label, m["name"]))
            if result["failed"] != 0 or not result["correct"]:
                failures.append("%s: %d of %d calls failed"
                                % (label, result["failed"],
                                   result["attempted"]))
            if trace == 0 and not any(
                    l.split()[:2] == ["error_rate", "0"] for l in lines):
                failures.append("%s: error_rate is not 0" % label)
            if trace == 1 and "ledger conservation: ok" not in out:
                failures.append("%s: ledger does not conserve" % label)
            if trace == 1 and not any(l.startswith("replay drift: none")
                                      for l in lines):
                failures.append("%s: the replay no longer matches the "
                                "library" % label)
            if "check self-test: ok" not in lines:
                failures.append("%s: the checker accepted a wrong C" % label)
            print("smoke %-28s %s" % (label, "ok" if not any(
                f.startswith(label) for f in failures) else "FAILED"))
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
