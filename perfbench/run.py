#!/usr/bin/env python3
"""Runs one workload of the arrangement-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the repository root. On first use it configures and builds
perfbench/ (which compiles the library from src/) into perfbench/build/.
The workload knobs are constants of perfbench_driver (perfbench/src/
workloads.h); perfbench/workloads.json records them, and a run whose
reported params disagree with that record fails. perfbench_driver's table
and the result file perfbench/out/result-<workload>-seed<n>-trace<t>.json
carry every metric with its unit and sample count plus the stamp (nproc,
build type, AVX2, compiler, source digest, seed, workload parameters). The
last line of standard output is the JSON object
{"correct", "attempted", "failed", "metrics"}: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs()])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))


# The inputs of the build and of a run; recorded results and build or run
# outputs are left out, so the same code always gets the same digest.
DIGEST_INPUTS = ("src", "perfbench/src", "perfbench/tests",
                 "perfbench/CMakeLists.txt", "perfbench/run.py",
                 "perfbench/workloads.json")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = []
    for top in DIGEST_INPUTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            files.extend(os.path.join(dirpath, n) for n in filenames)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def params_disagree(recorded, reported):
    """Names of the knobs whose reported value differs from workloads.json."""
    bad = []
    for key, value in sorted(recorded.items()):
        got = reported.get(key)
        try:
            same = got is not None and float(got) == float(value)
        except (TypeError, ValueError):
            same = str(got) == str(value)
        if not same:
            bad.append("%s (recorded %s, reported %s)" % (key, value, got))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own arithmetic tests")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.workload not in workloads:
        fail("unknown --workload %r (have: %s)" %
             (args.workload, ", ".join(sorted(workloads))))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(
        OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % seconds, "--trace=%d" % args.trace,
           "--out=" + result_path, "--out_dir=" + os.path.relpath(OUT, ROOT)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0 or not os.path.exists(result_path):
        fail("driver failed with exit code %d" % done.returncode)

    with open(result_path) as f:
        result = json.load(f)
    result["stamp"]["git_sha"] = git_sha()
    result["stamp"]["source_sha256"] = source_digest()
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    group = "per_layer" if args.trace else "end_to_end"
    measured = result[group]
    metrics, correct = {}, bool(result["correct"])
    for knob in params_disagree(workloads[args.workload]["params"],
                                result["params"]):
        print("perfbench: workloads.json disagrees with perfbench_driver: " +
              knob, file=sys.stderr)
        correct = False
    for spec in bench[group]:
        m = measured.get(spec["name"])
        if m is None or m["value"] is None:
            print("perfbench: metric %s not measured" % spec["name"],
                  file=sys.stderr)
            correct = False
            continue
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    print("result: " + os.path.relpath(result_path, ROOT))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
