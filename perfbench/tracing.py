"""Spans and counters wrapped around the package's public functions.

``instrumented(tracer)`` replaces each traced function, from outside, in its
home module and in every module that imported it by name (``cli`` imports
``gbb_trace``, ``wave_run``, ``decay_fit`` and the ``orders`` functions into
its own namespace; ``gain_report`` calls ``probe.decay_fit``).  A span is
``(name, start_ns, end_ns, parent)``; spans stay in memory until ``dump``.
The speed profile and the Hamilton field are called 10^4 to 10^5 times per
pipeline, so they only bump counters.

``layer_metrics`` turns one traced worker's spans and counters into the
per-layer metrics of ``PER_LAYER``, normalised per timed unit.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from wavediff import cli, config, escape, helmholtz, metric, orders, probe, tracer, wave

ORDERS_FNS = (
    "include_filter",
    "embed_lambda0",
    "reverse_pair",
    "compose_au",
    "compose_flowout",
    "bounded_gu",
    "bounded_diag_flowout",
    "bounded_one_sided",
    "psdo_shift",
    "mult_decompose",
    "mult_bounded_range",
    "elliptic_window",
    "hyperbolic_window",
    "verify_constraint_chain",
    "bootstrap_schedule",
)

CLI_STAGES = {
    "calc": "stage_calc",
    "trace": "stage_trace",
    "wave": "stage_wave",
    "probe": "stage_probe",
    "verify-commutant": "stage_commutant",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` runs outside it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: Path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        Path(path).write_text(json.dumps({
            "span_fields": ["name", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }))


# ---------------------------------------------------------------------------
# counters taken from results, outside the span they describe


def _after_calc_batch(t, rows, in_path, out_path):
    with open(out_path, newline="") as fh:
        results = [row[3] for row in csv.reader(fh)][1:]
    t.counters["cli.rows"] += rows
    t.counters["cli.error_rows"] += results.count("error")
    t.counters["cli.csv_bytes"] += Path(out_path).stat().st_size


def _after_pipeline(t, result, cfg):
    files = [p for p in Path(cfg.out_dir).iterdir() if p.is_file()]
    t.counters["cli.artifact_bytes"] += sum(p.stat().st_size for p in files)
    field = Path(cfg.out_dir) / "field.npz"
    t.counters["cli.field_npz_bytes"] += field.stat().st_size if field.exists() else 0


def _after_gbb_trace(t, paths, *args, **kwargs):
    legs = {id(leg): leg for p in paths for leg in p.legs}
    t.counters["tracer.paths"] += len(paths)
    t.counters["tracer.legs"] += len(legs)
    t.counters["tracer.rk4_steps"] += sum(len(leg) - 1 for leg in legs.values())


def _after_wave_run(t, fld, scenario):
    t.counters["wave.cell_updates"] += round(fld.ts[-1] / fld.dt) * fld.xs.size
    t.counters["wave.slices_stored"] += fld.u.shape[0]
    t.counters["wave.field_bytes"] += sum(
        a.nbytes for a in (fld.u, fld.ts, fld.xs, fld.c, fld.energy))


def _after_decay_fit(t, fit, *args, **kwargs):
    t.counters["probe.slice_ffts"] += fit.n_slices


def _after_reflection_scan(t, scan, *args, **kwargs):
    t.counters["helmholtz.omegas"] += scan.omegas.size
    defect = float(np.max(np.abs(scan.flux_defect())))
    t.maxima["helmholtz.flux_defect_max"] = max(t.maxima["helmholtz.flux_defect_max"], defect)


def _after_solve_ivp(t, sol, *args, **kwargs):
    t.counters["helmholtz.rhs_evals"] += sol.nfev


def _after_commutant(t, rep, *args, **kwargs):
    t.counters["escape.samples"] += rep["n_samples"]


def _targets():
    """(span name, or None for a counter only; home object; attribute;
    after-hook; aliases as (module, attribute) pairs)."""
    out = [("orders." + fn, orders, fn, None, ((cli, fn),)) for fn in ORDERS_FNS]
    out += [("cli.stage." + st, cli, fn, None, ()) for st, fn in CLI_STAGES.items()]
    out += [
        ("cli.calc_batch", cli, "calc_batch", _after_calc_batch, ()),
        ("cli.run_pipeline", cli, "run_pipeline", _after_pipeline, ()),
        ("config.load_config", config, "load_config", None, ((cli, "load_config"),)),
        ("config.build_metric", config.ExperimentConfig, "build_metric", None, ()),
        ("config.build_scenario", config.ExperimentConfig, "build_scenario", None, ()),
        ("tracer.gbb_trace", tracer, "gbb_trace", _after_gbb_trace, ((cli, "gbb_trace"),)),
        ("wave.run", wave, "run", _after_wave_run, ((cli, "wave_run"),)),
        ("probe.window_plan", probe, "window_plan", None, ((cli, "window_plan"),)),
        ("probe.decay_fit", probe, "decay_fit", _after_decay_fit, ((cli, "decay_fit"),)),
        ("probe.gain_report", probe, "gain_report", None, ((cli, "gain_report"),)),
        ("probe.default_oracle_scan", probe, "default_oracle_scan", None,
         ((cli, "default_oracle_scan"),)),
        ("helmholtz.reflection_scan", helmholtz, "reflection_scan", _after_reflection_scan,
         ((probe, "reflection_scan"),)),
        (None, helmholtz, "solve_ivp", _after_solve_ivp, ()),
        ("escape.run_commutant_check", escape, "run_commutant_check", _after_commutant,
         ((cli, "run_commutant_check"),)),
    ]
    return out


@contextlib.contextmanager
def instrumented(t: Tracer):
    """Install spans and counters for the duration of the block.

    A home attribute that is missing raises; an alias is patched only while
    it still names the same function, so a refactor that drops the import
    keeps the spans of the home module.
    """
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def counter(orig, hook):
        def counted(*args, **kwargs):
            result = orig(*args, **kwargs)
            hook(result, *args, **kwargs)
            return result
        return counted

    try:
        for name, home, attr, after, aliases in _targets():
            orig = home.__dict__[attr]
            hook = None if after is None else functools.partial(after, t)
            new = counter(orig, hook) if name is None else t.wrap(name, orig, hook)
            patch(home, attr, new)
            for mod, alias in aliases:
                if mod.__dict__.get(alias) is orig:
                    patch(mod, alias, new)

        speed = metric.ConormalMetric.speed
        field = metric.ConormalMetric.hamilton_field
        counters = t.counters

        def counted_speed(self, x):
            counters["metric.speed.calls"] += 1
            counters["metric.speed.points"] += np.size(x)
            return speed(self, x)

        def counted_field(self, state):
            counters["metric.hamilton_field.calls"] += 1
            return field(self, state)

        patch(metric.ConormalMetric, "speed", counted_speed)
        patch(metric.ConormalMetric, "hamilton_field", counted_field)
        yield t
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

_S, _N, _R = "s", "count", "1/s"

# (name, unit, better); the layer map in record.json says which end-to-end
# metric each one should move, and on which workload
PER_LAYER = (
    [("orders.calls." + fn, _N, "lower") for fn in ORDERS_FNS]
    + [("orders.busy_s." + fn, _S, "lower") for fn in ORDERS_FNS]
    + [
        ("orders.busy_s", _S, "lower"),
        ("cli.calc_batch.self_s", _S, "lower"),
        ("cli.rows", _N, "higher"),
        ("cli.error_rows", _N, "lower"),
        ("cli.csv_bytes", "bytes", "lower"),
    ]
    + [("cli.stage.%s.s" % st, _S, "lower") for st in CLI_STAGES]
    + [
        ("cli.stage_wave.self_s", _S, "lower"),
        ("cli.artifact_bytes", "bytes", "lower"),
        ("cli.artifact_mb_per_s", "MB/s", "higher"),
        ("tracer.gbb_trace.s", _S, "lower"),
        ("tracer.paths", _N, "lower"),
        ("tracer.legs", _N, "lower"),
        ("tracer.rk4_steps", _N, "lower"),
        ("tracer.rk4_steps_per_s", _R, "higher"),
        ("metric.hamilton_field.calls", _N, "lower"),
        ("helmholtz.reflection_scan.s", _S, "lower"),
        ("helmholtz.omegas", _N, "higher"),
        ("helmholtz.omegas_per_s", _R, "higher"),
        ("helmholtz.rhs_evals", _N, "lower"),
        ("helmholtz.flux_defect_max", "1", "lower"),
        ("metric.speed.calls", _N, "lower"),
        ("metric.speed.points_per_call", _N, "higher"),
        ("wave.run.s", _S, "lower"),
        ("wave.cell_updates", _N, "lower"),
        ("wave.cell_updates_per_s", _R, "higher"),
        ("wave.slices_stored", _N, "lower"),
        ("wave.field_bytes", "bytes", "lower"),
        ("probe.window_plan.s", _S, "lower"),
        ("probe.decay_fit.calls", _N, "lower"),
        ("probe.decay_fit.s", _S, "lower"),
        ("probe.slice_ffts", _N, "lower"),
        ("probe.ffts_per_s", _R, "higher"),
        ("probe.gain_report.self_s", _S, "lower"),
        ("escape.run_commutant_check.s", _S, "lower"),
        ("escape.samples", _N, "higher"),
        ("config.load_config.s", _S, "lower"),
        ("config.build_metric.s", _S, "lower"),
        ("config.build_scenario.s", _S, "lower"),
        ("setup.import_s", _S, "lower"),
        ("trace.overhead_s", _S, "lower"),
    ]
)


def span_totals(spans, lo=0, hi=None):
    """name -> [calls, total_s, self_s] over ``spans[lo:hi]``.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap in a single thread.
    """
    hi = len(spans) if hi is None else hi
    covered = defaultdict(int)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        row = out[name]
        row[0] += 1
        row[1] += (end - start) / 1e9
        row[2] += (end - start - covered[i]) / 1e9
    return out


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(t: Tracer, setup_end: int, setup_counters: dict, units: int,
                  import_s: float) -> dict:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s``.

    Setup metrics come from the spans before index ``setup_end``; all others
    are per timed unit, from the spans and counters after it.
    """
    setup = span_totals(t.spans, 0, setup_end)
    run = span_totals(t.spans, setup_end)
    c = {k: v - setup_counters.get(k, 0) for k, v in t.counters.items()}

    def calls(name):
        return run[name][0] / units if name in run else 0.0

    def busy(name):
        return run[name][1] / units if name in run else 0.0

    def self_s(name):
        return run[name][2] / units if name in run else 0.0

    def count(key):
        return c.get(key, 0) / units

    m = {}
    for fn in ORDERS_FNS:
        m["orders.calls." + fn] = calls("orders." + fn)
        m["orders.busy_s." + fn] = busy("orders." + fn)
    # orders functions do not call one another, so their spans never nest
    m["orders.busy_s"] = sum(m["orders.busy_s." + fn] for fn in ORDERS_FNS)
    m["cli.calc_batch.self_s"] = self_s("cli.calc_batch")
    for key in ("cli.rows", "cli.error_rows", "cli.csv_bytes", "cli.artifact_bytes"):
        m[key] = count(key)
    for st in CLI_STAGES:
        m["cli.stage.%s.s" % st] = busy("cli.stage." + st)
    m["cli.stage_wave.self_s"] = self_s("cli.stage.wave")
    m["cli.artifact_mb_per_s"] = _rate(count("cli.field_npz_bytes") / 1e6, m["cli.stage_wave.self_s"])
    m["tracer.gbb_trace.s"] = busy("tracer.gbb_trace")
    for key in ("tracer.paths", "tracer.legs", "tracer.rk4_steps", "metric.hamilton_field.calls"):
        m[key] = count(key)
    m["tracer.rk4_steps_per_s"] = _rate(m["tracer.rk4_steps"], m["tracer.gbb_trace.s"])
    m["helmholtz.reflection_scan.s"] = busy("helmholtz.reflection_scan")
    m["helmholtz.omegas"] = count("helmholtz.omegas")
    m["helmholtz.omegas_per_s"] = _rate(m["helmholtz.omegas"], m["helmholtz.reflection_scan.s"])
    m["helmholtz.rhs_evals"] = count("helmholtz.rhs_evals")
    m["helmholtz.flux_defect_max"] = t.maxima.get("helmholtz.flux_defect_max", 0.0)
    m["metric.speed.calls"] = count("metric.speed.calls")
    m["metric.speed.points_per_call"] = _rate(c.get("metric.speed.points", 0),
                                              c.get("metric.speed.calls", 0))
    m["wave.run.s"] = busy("wave.run")
    for key in ("wave.cell_updates", "wave.slices_stored", "wave.field_bytes"):
        m[key] = count(key)
    m["wave.cell_updates_per_s"] = _rate(m["wave.cell_updates"], m["wave.run.s"])
    m["probe.window_plan.s"] = busy("probe.window_plan")
    m["probe.decay_fit.calls"] = calls("probe.decay_fit")
    m["probe.decay_fit.s"] = busy("probe.decay_fit")
    m["probe.slice_ffts"] = count("probe.slice_ffts")
    m["probe.ffts_per_s"] = _rate(m["probe.slice_ffts"], m["probe.decay_fit.s"])
    m["probe.gain_report.self_s"] = self_s("probe.gain_report")
    m["escape.run_commutant_check.s"] = busy("escape.run_commutant_check")
    m["escape.samples"] = count("escape.samples")
    for key in ("load_config", "build_metric", "build_scenario"):
        m["config.%s.s" % key] = setup["config." + key][1] if "config." + key in setup else 0.0
    m["setup.import_s"] = import_s
    return m
