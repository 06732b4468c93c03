"""One fresh benchmark process: set up, run timed units, check, report.

Started by ``run.py``; not meant to be run by hand.  Set-up time covers the
package import, the seeded inputs and the config load.  Each unit is timed
with ``perf_counter`` (wall) and ``process_time`` (user plus system CPU);
output checks and calibration chunks (``calib.py``) run between units,
outside the timed region.  Every time is reported with the calibration scale
measured next to it.  The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

# calibration chunks after set-up, and between units: about one per second
# of unit time, within these limits
CAL_FIRST, CAL_MIN, CAL_MAX = 5, 2, 10


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-units", type=int, default=0, help="0 means no limit")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    t_import = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t_import

    result = {"import_s": import_s, "units": [], "fingerprint": None}
    tracer = None
    guard = contextlib.nullcontext()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        guard = tracing.instrumented(tracer)
    try:
        with guard:
            w = workloads.CLASSES[args.workload](args.seed, args.workdir)
            result["setup_s"] = time.perf_counter() - T0
            result["items"] = w.items
            kind = w.calibration
            cal = calib.measure(kind, CAL_FIRST)
            result["setup_scale"] = calib.scale(kind, cal)
            setup_end = len(tracer.spans) if tracer else 0
            setup_counters = dict(tracer.counters) if tracer else {}
            if not args.setup_only:
                run_units(w, args, result, cal)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if tracer and result["units"]:
        metrics = tracing.layer_metrics(
            tracer, setup_end, setup_counters, len(result["units"]), import_s)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        flux = metrics["helmholtz.flux_defect_max"]
        if args.workload == "pipeline" and not flux < workloads.FLUX_DEFECT_MAX:
            for u in result["units"]:
                u["fails"].append("oracle flux defect %.3g" % flux)
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result))


def run_units(w, args, result, cal) -> None:
    """Units back to back until ``args.seconds`` of them or ``args.max_units``.

    ``cal`` holds the calibration chunks measured just before; each unit is
    scaled by the median of the chunks on both sides of it.
    """
    kind = w.calibration
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = w.run()
        except Exception:  # a failed unit is counted, not fatal to the run
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            result["units"].append({"wall_s": wall, "cpu_s": cpu,
                                    "scale": calib.scale(kind, cal),
                                    "fails": [traceback.format_exc()]})
            return
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        fails, fingerprint = w.check(raw)
        if not result["units"]:
            result["fingerprint"] = fingerprint
        elif fingerprint != result["fingerprint"]:
            fails.append("output differs from the first unit of this seed")
        after = calib.measure(kind, min(CAL_MAX, max(CAL_MIN, int(wall))))
        result["units"].append({"wall_s": wall, "cpu_s": cpu,
                                "scale": calib.scale(kind, cal + after), "fails": fails})
        cal = after
        n = len(result["units"])
        if (args.max_units and n >= args.max_units) or time.perf_counter() - start >= args.seconds:
            return


if __name__ == "__main__":
    main()
