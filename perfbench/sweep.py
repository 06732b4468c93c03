"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 1-10] [--seconds S]
                               [--record LABEL]

For every end-to-end metric of every workload this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median, which must stay under a
third of the metric's bound in ``BENCHMARK.json``.  ``--record LABEL``
appends the figures, with the machine and one traced run per workload (first
seed), to the trajectory in ``perfbench/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS, WORKLOADS  # noqa: E402


def machine() -> dict:
    """What the figures were measured on, read from lscpu and /sys only."""
    model = None
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True)
    for line in lscpu.stdout.splitlines():
        if line.startswith("Model name:"):
            model = line.split(":", 1)[1].strip()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        def read(name):
            return (index / name).read_text().strip()
        caches["L%s %s" % (read("level"), read("type"))] = read("size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pinned_threads": {var: "1" for var in THREAD_VARS},
    }


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def run(workload: str, seed: int, seconds: int, trace: int):
    """(ok, metrics as name -> value, stdout) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    ok = proc.returncode == 0 and last["correct"]
    return ok, {k: m["value"] for k, m in last["metrics"].items()}, proc.stdout + proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failures = 0
    figures, traced = {}, {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in args.seeds:
            ok, metrics, out = run(workload, seed, seconds, 0)
            if not ok:
                failures += 1
                print("%s seed %d FAILED:\n%s" % (workload, seed, out[-3000:]))
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % kv for kv in metrics.items())), flush=True)
        figures[workload] = {name: summary(v) for name, v in values.items()}
        if args.record:
            ok, traced[workload], out = run(workload, args.seeds[0], seconds, 1)
            if not ok:
                failures += 1
                print("%s traced run FAILED:\n%s" % (workload, out[-3000:]))
        for name, s in figures[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print("  %-12s %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f (bound %s)%s" % (
                workload, name, s["median"], s["q1"], s["q3"], s["spread"], bound, flag))

    if args.record:
        path = HERE / "record.json"
        record = json.loads(path.read_text())
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        record["trajectory"].append({
            "label": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "commit": commit.stdout.strip() if commit.returncode == 0 else None,
            "machine": machine(),
            "run_seconds": seconds,
            "seeds": args.seeds,
            "workloads": figures,
            "per_layer": {"seed": args.seeds[0], "metrics": traced},
        })
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
