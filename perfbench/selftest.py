#!/usr/bin/env python3
"""The benchmark's own test: reduced-size runs of every workload.

    python3 perfbench/selftest.py

Builds twoclock the way run.py does, then runs every workload twice
in each mode (--trace 0 and --trace 1) with a reduced kv request count,
and checks that

  - every run succeeds and its result line carries exactly the metrics
    BENCHMARK.json names for its mode, each with its unit;
  - all four runs of a workload print the same simulated-result digest
    (two runs agree, and tracing changes no simulated result);
  - the untraced run prints every virtual end-to-end result that
    applies to the workload, with its unit, and the request count
    behind each kv percentile.

Exits 0 when every check holds, 1 otherwise.
"""

import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py next to this file)

REQUESTS = "4000"  # kv requests per run; splash16 keeps its sizes

VIRTUAL = {
    "kv-read": ["virt_mean_us", "virt_p50_us", "virt_p99_us",
                "virt_p999_us"],
    "kv-write": ["virt_mean_us", "virt_p50_us", "virt_p99_us",
                 "virt_p999_us"],
    "splash16": ["virt_par_ms"],
}


def drive(exe, workload, trace):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--requests", REQUESTS]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)


def human_line(stdout, name):
    """The rest of the human-readable line reporting `name`, or None."""
    m = re.search(rf"^{re.escape(name)}\s+(\S.*)$", stdout, re.M)
    return m.group(1) if m else None


def check_workload(exe, workload):
    problems = []
    digests = set()
    for trace in (0, 1):
        for attempt in (1, 2):
            p = drive(exe, workload, trace)
            tag = f"{workload} trace={trace} run {attempt}"
            if p.returncode != 0:
                problems.append(f"{tag}: exit status {p.returncode}")
            lines = p.stdout.rstrip("\n").split("\n")
            why = run.check_result(lines[-1], trace == 1)
            if why:
                problems.append(f"{tag}: {why}")
            digest = human_line(p.stdout, "digest")
            if not digest:
                problems.append(f"{tag}: no digest line")
            digests.add(digest)
            if trace == 1:
                continue
            for name in VIRTUAL[workload]:
                line = human_line(p.stdout, name)
                unit = name.rsplit("_", 1)[1]
                if not line or line.split()[1] != unit:
                    problems.append(f"{tag}: {name} not printed in {unit}")
                elif workload != "splash16" and \
                        f"{REQUESTS} requests" not in line:
                    problems.append(f"{tag}: {name} lacks its request "
                                    f"count")
    if len(digests) != 1:
        problems.append(f"{workload}: digests differ: {sorted(digests)}")
    return problems


def main():
    exe = run.build()
    problems = []
    for workload in run.WORKLOADS:
        found = check_workload(exe, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
