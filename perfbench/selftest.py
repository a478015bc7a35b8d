#!/usr/bin/env python3
"""Self-checks for the pipeline benchmark. Run from the repository root.

    python3 perfbench/selftest.py determinism [--seconds 2]
    python3 perfbench/selftest.py spread --workload reproduce [--seeds 10]

determinism: for every workload, two runs of one seed must print the same
deterministic counts (guest cycles, snaps, records, clusters, divergences,
probe overhead) and a run of another seed must print different ones. Each
run must also pass its own output checks.

spread: runs one workload once per seed, one run after another, and
prints for each end-to-end metric its median and the distance between its
first and third quartile as a share of the median, next to the bound in
BENCHMARK.json. A steady benchmark keeps every spread but setup_s below a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet_storm", "diagnose_batch", "reproduce")


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} failed:\n{r.stderr[-2000:]}")
    counts = next((l for l in lines if l.startswith("determinism:")), "")
    return json.loads(lines[-1]), counts


def determinism(a):
    ok = True
    for w in WORKLOADS:
        first, c1 = run(w, 11, a.seconds)
        second, c2 = run(w, 11, a.seconds)
        _, other = run(w, 12, a.seconds)
        good = (first["correct"] and second["correct"] and c1 == c2
                and c1 != other and c1 != "")
        ok &= good
        print(f"{w}: {'ok' if good else 'FAILED'}\n  seed 11: {c1}\n"
              f"  seed 11: {c2}\n  seed 12: {other}")
    return 0 if ok else 1


def spread(a):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(1, a.seeds + 1):
        result, _ = run(a.workload, seed, a.seconds or spec["run_seconds"])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: outputs failed their checks")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    steady = True
    print(f"{a.workload}: {a.seeds} seeds")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("inf")
        good = name == "setup_s" or share < bounds[name] / 3
        steady &= good
        print(f"  {name:14s} median {med:14.4f}  spread {share:7.4f}  "
              f"bound {bounds[name]:.2f}  {'ok' if good else 'WIDE'}  "
              f"[{' '.join(f'{v:.4g}' for v in vs)}]")
    return 0 if steady else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("determinism")
    d.add_argument("--seconds", type=float, default=2)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True, choices=WORKLOADS)
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--seconds", type=float, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    a = p.parse_args()
    return determinism(a) if a.cmd == "determinism" else spread(a)


if __name__ == "__main__":
    sys.exit(main())
