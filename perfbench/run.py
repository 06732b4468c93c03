"""wavediff benchmark: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``).  Without ``--workload`` every workload runs in turn.  All three
are closed-loop batch jobs: one unit of work at a time in a single process,
the next unit only after the previous one finished.

Units run in fresh worker processes (``worker.py``), so set-up time and
peak RSS are those a user pays.  With ``--trace 0`` workers run back to back
until ``--seconds`` of measured work are done, with at least five set-ups,
and the end-to-end metrics are medians over units (``wall_s``, ``cpu_s``,
``items_per_s``) or over workers (``setup_s``, ``peak_rss_mb``).  With
``--trace 1`` one untraced and one traced worker run for half the time each;
the traced one gives the per-layer metrics and the difference of the two
median unit times is ``trace.overhead_s``.

End-to-end times are in reference seconds: each measured time is rescaled by
the calibration workload of ``calib.py``, run in the same worker just before
and after it, because the speed of one core of a shared machine drifts by
tens of percent over minutes.  The raw median wall time and the calibration
scale are printed too.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any output check failed and 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "orders-chain", "calc-batch")
ITEM_NAMES = {"pipeline": "pipeline_runs_per_s", "orders-chain": "samples_per_s",
              "calc-batch": "queries_per_s"}
# BLAS / OpenMP pools; one thread keeps timings steady on a shared 2-core box
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up varies more than the units do, so it is sampled in extra workers
MIN_SETUPS = 5
DEADLINE_S = 170.0
TMP = Path(".bench_tmp")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Run:
    """Workers of one workload and seed, and what they reported."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()
        self.dir = TMP / ("%s-%d-%d" % (workload, seed, os.getpid()))
        self.results = []  # per worker: reported dict, or None when it crashed
        self.errors = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, seconds: float, setup_only=False, trace=False, max_units=0) -> dict | None:
        i = len(self.results)
        out = self.dir / ("worker-%d.json" % i)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", "%.3f" % seconds,
               "--max-units", str(max_units), "--workdir", str(self.dir / ("w%d" % i)),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", "--spans", str(TMP / ("spans-%s-%d.json" % (self.workload, self.seed)))]
        try:
            proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                                  timeout=max(5.0, DEADLINE_S - self.elapsed()))
            res = json.loads(out.read_text()) if proc.returncode == 0 else None
            if res is None:
                self.errors.append("worker exit %d: %s" % (proc.returncode, proc.stderr[-2000:]))
        except subprocess.TimeoutExpired:
            res = None
            self.errors.append("worker timed out")
        self.results.append(res)
        return res

    def units(self) -> list:
        return [u for r in self.results if r for u in r["units"]]

    def tally(self) -> tuple[int, int]:
        """(attempted, failed): units, plus one failed attempt per crashed
        worker; a worker whose outputs differ from the first worker's fails
        all its units."""
        attempted = failed = 0
        ref = next((r["fingerprint"] for r in self.results if r and r["units"]), None)
        for r in self.results:
            if r is None:
                attempted += 1
                failed += 1
                continue
            mismatch = bool(r["units"]) and r["fingerprint"] != ref
            if mismatch:
                self.errors.append("outputs differ between workers of seed %d" % self.seed)
            attempted += len(r["units"])
            failed += sum(1 for u in r["units"] if u["fails"] or mismatch)
        return attempted, failed

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def scaled(u: dict, key: str) -> float:
    return u[key] * u["scale"]


def measure(run: Run) -> dict:
    """Untraced workers until ``seconds`` of work are done; end-to-end metrics."""
    max_units = 1 if run.workload == "pipeline" else 0
    per_worker = run.seconds / MIN_SETUPS
    while run.elapsed() < run.seconds:
        run.worker(min(per_worker, max(run.seconds - run.elapsed(), 0.001)), max_units=max_units)
    workers = [r for r in run.results if r and r["units"]]
    while sum(1 for r in run.results if r) < MIN_SETUPS and run.elapsed() < DEADLINE_S / 2:
        run.worker(0, setup_only=True)
    units = run.units()
    if not units:
        return {}
    setups = [r["setup_s"] * r["setup_scale"] for r in run.results if r]
    wall = statistics.median(scaled(u, "wall_s") for u in units)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(scaled(u, "cpu_s") for u in units), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in workers), "MB"),
        "items_per_s": (workers[0]["items"] / wall, "1/s"),
    }


def measure_traced(run: Run) -> dict:
    """One untraced and one traced worker; per-layer metrics and overhead."""
    max_units = 1 if run.workload == "pipeline" else 0
    plain = run.worker(run.seconds / 2, max_units=max_units)
    traced = run.worker(run.seconds / 2, trace=True, max_units=max_units)
    if not (plain and plain["units"] and traced and "metrics" in traced):
        return {}
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
    overhead = (statistics.median(scaled(u, "wall_s") for u in traced["units"])
                - statistics.median(scaled(u, "wall_s") for u in plain["units"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def describe(run: Run, metrics: dict, attempted: int, failed: int) -> None:
    print("== %s  seed %d  (%d units in %d workers, %.1f s)" % (
        run.workload, run.seed, len(run.units()), len(run.results), run.elapsed()))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %14.6g %s" % (name, value, unit))
    walls = sorted(scaled(u, "wall_s") for u in run.units())
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        n = len(walls)
        # highest whole percentile with at least ten samples above it
        tail = next((p for p in range(99, 0, -1) if n - 1 - n * p // 100 >= 10), None)
        line = "  wall_s quartiles %.6g / %.6g s over %d units" % (q1, q3, n)
        if tail is not None:
            line += "; p%d %.6g s" % (tail, walls[n * tail // 100])
        else:
            line += "; no tail percentile (fewer than 10 samples beyond any)"
        print(line)
    if "items_per_s" in metrics:
        print("  %s %.6g" % (ITEM_NAMES[run.workload], metrics["items_per_s"][0]))
    if walls:
        raw = statistics.median(u["wall_s"] for u in run.units())
        scales = [u["scale"] for u in run.units()]
        print("  raw wall_s %.6g s; calibration scale %.4g (min %.4g, max %.4g)" % (
            raw, statistics.median(scales), min(scales), max(scales)))
    print("  fail_ratio %d/%d = %.4g" % (failed, attempted, failed / attempted if attempted else 1.0))
    for err in run.errors:
        print("  ERROR " + err.strip().replace("\n", "\n        "))
    for r in run.results:
        for u in (r["units"] if r else []):
            for f in u["fails"]:
                print("  CHECK FAILED " + f.strip().replace("\n", "\n        "))


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run = Run(workload, seed, seconds)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = measure_traced(run) if trace else measure(run)
    finally:
        run.cleanup()
    attempted, failed = run.tally()
    if not metrics:
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    describe(run, metrics, attempted, failed)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/wavediff/__init__.py").is_file():
        print("no package source at src/wavediff; run from the repository root",
              file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = "" if args.workload else name + "."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += a
        failed += f
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
