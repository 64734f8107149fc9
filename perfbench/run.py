#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It builds the benchmark binary (see
CMakeLists.txt here, which compiles the simulator's src/ tree) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then runs it with the same arguments (once per workload for
`all`). Its stdout passes through; its last line is the result
JSON, checked here against BENCHMARK.json before it is printed. Exit
status: 0 when every operation of every run succeeded; non-zero when one
failed, and without a result line when the sources are missing, the
build fails or a run misbehaves.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-read", "kv-write", "splash16")

# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "service.hh")):
        fail(f"simulator sources not found under {ROOT}/src", 2)
    if not shutil.which("cmake"):
        fail("cmake not found", 2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", bdir, "--target", "twoclock",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "twoclock")


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Why a twoclock result line breaks the result format, or None."""
    try:
        doc = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(doc, dict) or \
            set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1 or \
            not isinstance(doc["failed"], int) or doc["failed"] < 0:
        return "attempted/failed are not counts"
    want = expected_metrics(trace)
    got = doc["metrics"]
    if set(got) != {name for name, _ in want}:
        return "metric names differ from BENCHMARK.json"
    for name, unit in want:
        m = got[name]
        if m.get("unit") != unit or \
                not isinstance(m.get("value"), (int, float)):
            return f"metric {name} lacks a numeric value in {unit}"
    return None


def run_one(exe, workload, args):
    """Run twoclock once; print its output; return its exit status."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"twoclock did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    why = check_result(lines[-1], args.trace == 1)
    if why:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{why} (twoclock exit status {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60", 2)

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_one(exe, workload, args))
    sys.exit(status)


if __name__ == "__main__":
    main()
