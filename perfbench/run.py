#!/usr/bin/env python3
"""Builds and runs pmiot's end-to-end benchmark.

    python3 perfbench/run.py --workload fleet|campaign|arena --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which compiles the libraries under
src/) into .bench_build/; later runs only rebuild what changed. Each run
works in its own directory under .bench_run/, removed afterwards, so no
checkpoint or result file lands in the tree; a traced run keeps its last
round's spans as .bench_run/<workload>-spans.json (Chrome trace events).

The last line of stdout is the benchmark's JSON result. Exit status is 0
only when the build succeeded, the benchmark exited cleanly and printed a
well-formed result naming every metric BENCHMARK.json lists.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "pmiot_perfbench")
WORKLOADS = ("fleet", "campaign", "arena")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pmiot sources (src/CMakeLists.txt) next to perfbench/", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", target,
                   "-j", str(cpu_count())]
    if subprocess.call(compile_cmd, stdout=sys.stderr) != 0:
        fail("build failed")


def source_stamp():
    """Commit if the checkout is a git repository, plus a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit or "unknown", digest.hexdigest()[:12]


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_result(lines, trace):
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    if result["attempted"] < 1:
        fail("no op attempted")
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        fail("metrics differ from BENCHMARK.json: "
             + " ".join(sorted(set(expected) ^ set(result["metrics"]))))
    return result


def self_test():
    build("perfbench_tests")
    sys.exit(subprocess.call([os.path.join(BUILD_DIR, "perfbench_tests")]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        fail("--workload is required", 2)

    build("pmiot_perfbench")
    commit, digest = source_stamp()
    print("source: commit=%s src_sha256=%s" % (commit, digest), flush=True)

    workdir = os.path.join(RUN_DIR, "%s-%d" % (args.workload, os.getpid()))
    spans_kept = os.path.join(RUN_DIR, "%s-spans.json" % args.workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PMIOT_THREADS"] = str(cpu_count())
    env["PMIOT_METRICS"] = "1" if args.trace else "0"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # A traced run's spans outlive the run; everything else goes.
        spans = os.path.join(workdir, "spans.json")
        if os.path.isfile(spans):
            os.replace(spans, spans_kept)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("benchmark exited with status %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").splitlines()
    parse_result(lines, args.trace)
    print("\n".join(lines[:-1]))
    if args.trace:
        print("spans written to %s" % os.path.relpath(spans_kept, ROOT))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
