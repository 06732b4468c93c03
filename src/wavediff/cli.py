"""Command-line orchestration: calc, trace, wave run, probe, verify-commutant,
report, and the end-to-end pipeline.

Exit codes: 0 success, 1 assertion/verdict failure, 2 configuration error or
no C compiler to build the leapfrog kernel with, 3 a wave solve whose side
job raised or whose forked child ended early.
Every pipeline run, however it ends, writes a manifest with the config hash
and, per stage, the output checksums, wall-clock and CPU times and the peak
RSS; deterministic stages reproduce identical checksums on identical configs.

``pipeline`` and ``probe`` start the wave solve (``wave.Solve``) right after
building the scenario, with the frequency-domain oracle's scan as its side
job, and in ``pipeline`` the escape-function commutant check after it; they
run before the first slice, on two CPUs in the solve's forked child while
this process traces.  This process only writes what they return.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .escape import run_commutant_check
from .metric import PhasePoint
from .orders import (
    FlowoutCompositionError,
    PairOrder,
    Side,
    bootstrap_schedule,
    bounded_diag_flowout,
    bounded_gu,
    bounded_one_sided,
    compose_au,
    compose_flowout,
    elliptic_window,
    embed_lambda0,
    hyperbolic_window,
    include_filter,
    mult_bounded_range,
    mult_decompose,
    psdo_shift,
    reverse_pair,
    verify_constraint_chain,
)
from .probe import (
    InsufficientBandsError,
    WindowPlanError,
    WindowSpectrum,
    decay_fit,
    default_oracle_scan,
    gain_report,
    probe_band,
    window_plan,
)
from .tracer import gbb_trace, ray_on_characteristic
from .wave import KernelBuildError, Solve, SolverChildError, reason, timed


def _sha256_file(path: Path) -> str:
    """The first 16 hex digits of the file's sha256: a manifest checksum.
    The pipeline's outputs are all well under 1 MB; ``wavediff wave run``'s
    ``field.npz`` is tens of MB, so the file is read in chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# calc batch queries


def _po(args):
    return PairOrder(Fraction(args[0]), Fraction(args[1]), int(args[2]))


def _fmt_pair(o: PairOrder) -> str:
    return "(%s, %s; k=%d)" % (o.p, o.l, o.k)


def _fmt_decomp(dec) -> str:
    parts = ["%s/%s %s" % (t.pair[0].value, t.pair[1].value, _fmt_pair(t.order)) for t in dec.paired]
    parts += ["pure %s I^%s" % (t.tag.value, t.order) for t in dec.pure]
    return " + ".join(parts)


def _side(token: str) -> Side:
    try:
        return {"left": Side.LEFT, "right": Side.RIGHT}[token.lower()]
    except KeyError:
        raise ValueError("side must be left or right, got %r" % token) from None


def run_calc_query(op: str, args: list):
    """Evaluate one batch query; returns (result, witness) strings."""
    F = Fraction
    if op == "include_filter":
        conds = include_filter(_po(args[:3]), _po(args[3:6]), conditions=True)
        return str(all(conds)), "p1<=p2:%s;p1+l1<=p2+l2:%s" % conds
    if op == "embed_lambda0":
        return _fmt_pair(embed_lambda0(F(args[0]), int(args[1]))), ""
    if op == "reverse_pair":
        return _fmt_decomp(reverse_pair(_po(args[:3]), F(args[3]))), ""
    if op == "compose_au":
        return _fmt_pair(compose_au(_po(args[:3]), _po(args[3:6]))), ""
    if op == "compose_flowout":
        try:
            return _fmt_pair(compose_flowout(_po(args[:3]), _po(args[3:6]))), ""
        except FlowoutCompositionError as err:
            return "error", "l+l'>=0; fallback available via shift > %s" % (err.a.l + err.b.l)
    if op == "bounded_gu":
        conds = bounded_gu(_po(args[:3]), F(args[3]), F(args[4]), conditions=True)
        return str(all(conds)), "p+k/2<=gap:%s;p+l<=gap:%s" % conds
    if op == "bounded_diag_flowout":
        conds = bounded_diag_flowout(_po(args[:3]), F(args[3]), F(args[4]), conditions=True)
        return str(all(conds)), "p<=gap:%s;p+l<gap-k/2:%s" % conds
    if op == "bounded_one_sided":
        side = _side(args[6])
        first, second = bounded_one_sided(
            _po(args[:3]), int(args[3]), F(args[4]), F(args[5]), side, conditions=True)
        return str(first and second), "p+l<m+m'-k/2:%s;p<%s-n/2:%s" % (
            first, "m" if side is Side.LEFT else "m'", second)
    if op == "psdo_shift":
        return _fmt_pair(psdo_shift(_po(args[:3]), F(args[3]), _side(args[4]))), ""
    if op == "mult_decompose":
        return _fmt_decomp(mult_decompose(F(args[0]), F(args[1]), int(args[2]), int(args[3]))), ""
    if op == "mult_bounded_range":
        w = mult_bounded_range(F(args[0]), int(args[1]))
        return "admissible=%s window=(%s,%s)" % (w.admissible, w.lo, w.hi), "s0>k:%s" % w.admissible
    if op == "elliptic_window":
        w = elliptic_window(F(args[0]), F(args[1]), int(args[2]))
        return "admissible=%s window=(%s,%s)" % (w.admissible, w.lo, w.hi), ""
    if op == "hyperbolic_window":
        w = hyperbolic_window(F(args[0]), F(args[1]), int(args[2]))
        return (
            "admissible=%s theorem=(%s,%s) derived_lo=%s"
            % (w.admissible, w.theorem.lo, w.theorem.hi, w.derived_lo),
            "k+1+2eps0<s0:%s" % w.admissible,
        )
    if op == "verify_constraint_chain":
        rep = verify_constraint_chain(F(args[0]), F(args[1]), F(args[2]), int(args[3]), int(args[4]))
        return (
            "prelim=%s reduced=%s reduction=%s" % (rep.prelim, rep.reduced, rep.reduction),
            "prelim==reduced:%s;reduced=>reduction:%s;second_auto:%s"
            % (rep.prelim_matches_reduced, rep.reduced_implies_reduction, rep.second_automatic),
        )
    if op == "bootstrap_schedule":
        sched = bootstrap_schedule(F(args[0]), F(args[1]))
        return "[" + ", ".join(str(s) for s in sched) + "]", "length=%d" % len(sched)
    raise ValueError("unknown calc operation %r" % op)


def calc_batch(in_path: Path, out_path: Path) -> int:
    rows = []
    with open(in_path) as fh:
        for i, line in enumerate(fh):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            op, args = tokens[0], tokens[1:]
            try:
                result, witness = run_calc_query(op, args)
            except Exception as err:  # report, keep batch going
                result, witness = "error", str(err)
            rows.append((i + 1, op, " ".join(args), result, witness))
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["query_id", "operation", "inputs", "result", "witness_inequalities"])
        w.writerows(rows)
    return len(rows)


# ---------------------------------------------------------------------------
# stages


def stage_calc(cfg: ExperimentConfig, out: Path) -> dict:
    win = hyperbolic_window(cfg.s0, cfg.eps0, cfg.k)
    chain = verify_constraint_chain(cfg.s0, cfg.eps0, cfg.s, cfg.k, cfg.n)
    gate_ok = win.admissible and win.theorem.contains(cfg.s)
    result = {
        "admissible": win.admissible,
        "theorem_window": [str(win.theorem.lo), str(win.theorem.hi)],
        "derived_lo": str(win.derived_lo),
        "s": str(cfg.s),
        "s_in_window": win.theorem.contains(cfg.s),
        "gate_ok": gate_ok,
        "prelim": list(chain.prelim),
        "reduced": list(chain.reduced),
        "reduction": list(chain.reduction),
    }
    if not win.admissible:
        result["violated"] = "k+1+2*eps0 < s0"
    elif not result["s_in_window"]:
        result["violated"] = "-k/2 < s < s0-eps0-1-k/2"
    out.write_text(json.dumps(result, indent=2))
    return result


def stage_trace(scenario, out_csv: Path, out_events: Path):
    """Trace the ray of the scenario's own packet, which launches rightward,
    for the scenario's duration.

    Returns the paths and the trace's health numbers: ``rk4_steps`` over the
    distinct legs (branches share the legs before their event), and
    ``p_residual_max``, the largest |p| / |xi|^2 over the rows written.
    A shared leg's rows are computed once and written for every path.
    """
    metric, src = scenario.metric, scenario.source
    q0 = ray_on_characteristic(metric, src.center, 0.0, +1)
    paths = gbb_trace(metric, q0, t_span=scenario.duration)
    legs = {id(leg): leg for path in paths for leg in path.legs}
    rows, residual_max = {}, 0.0
    for key, leg in legs.items():
        rows[key] = []
        for s in leg[:: max(1, len(leg) // 400)]:
            q = PhasePoint(s.q[:2], s.q[2:])
            p = metric.dual_hamiltonian(q)
            residual_max = max(residual_max, abs(p) / float(np.dot(q.xi, q.xi)))
            rows[key].append(["%.9g" % s.t] + ["%.12g" % v for v in s.q.tolist()] + ["%.3e" % p])
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "leg", "param", "x", "t", "xi", "tau", "p_residual"])
        for ip, path in enumerate(paths):
            for il, leg in enumerate(path.legs):
                w.writerows([ip, il, *row] for row in rows[id(leg)])
    events = [
        {
            "path": ip,
            "time": ev.time,
            "point": list(map(float, ev.point)),
            "kind": ev.kind.value,
            "incoming": list(map(float, ev.incoming)),
            "outgoing": None if ev.outgoing is None else list(map(float, ev.outgoing)),
        }
        for ip, path in enumerate(paths)
        for ev in path.events
    ]
    out_events.write_text(json.dumps(events, indent=2))
    health = {
        "rk4_steps": sum(len(leg) - 1 for leg in legs.values()),
        "p_residual_max": residual_max,
    }
    return paths, health


def stage_wave(solve: Solve, spectra, out_npz: Path | None):
    """Stream every stored slice of the ``solve`` into the window
    ``spectra`` and, unless ``out_npz`` is None, into ``field.npz``.
    ``wavediff wave run`` is the one command that writes the archive: the
    pipeline and ``wavediff probe`` pass None, since nothing reads it back.

    The archive is written slice by slice: the float32 ``u`` member's header
    first (the slice count is known before the solve), then each slice,
    then the run's record.  Its bytes are those of ``np.savez`` of the
    whole stack, and the stack is never held.  Returns the run's record.
    """
    if out_npz is None:
        return solve.stream(spectra)
    fmt = np.lib.format
    header = {
        "descr": fmt.dtype_to_descr(np.dtype(np.float32)),
        "fortran_order": False,
        "shape": (len(solve.stops), solve.xs.size),
    }
    try:
        with zipfile.ZipFile(out_npz, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            with zf.open("u.npy", "w", force_zip64=True) as fh:
                fmt.write_array_header_1_0(fh, header)
                rec = solve.stream([*spectra, lambda t, u: fh.write(u.astype(np.float32))])
            for key in ("ts", "xs", "c", "energy", "dt", "max_trust_freq"):
                with zf.open(key + ".npy", "w", force_zip64=True) as fh:
                    fmt.write_array(fh, np.asanyarray(getattr(rec, key)))
    except BaseException:
        out_npz.unlink(missing_ok=True)  # a solve that fails leaves no partial archive
        raise
    return rec


ORACLE, COMMUTANT = "oracle scan", "commutant check"  # the solve's side jobs


def oracle_scan(scenario):
    """The side job ``ORACLE``: the probe band of the scenario's grid step
    and the frequency-domain oracle's scan of it.  It depends on the grid
    alone, so the solve runs it before the leapfrog."""

    def scan():
        xs = scenario.grid()
        band = probe_band(float(xs[1] - xs[0]))  # the dx WindowSpectrum takes
        return band, default_oracle_scan(scenario.metric, band)

    return scan


def stage_probe(cfg: ExperimentConfig, spectra, solve: Solve, out_json: Path, out_csv: Path):
    """Fit each window's spectrum, take the oracle's scan, the ``solve``'s
    side job ``ORACLE``, and write the gain report.  The oracle must have
    scanned the incident fit's band, bit for bit.

    Returns the report and the stage's work counts: ``oracle_freqs``, the
    frequencies the oracle solved, ``oracle_s``, the scan's wall time where
    it ran, and ``window_slices``, the stored slices each window's fit saw.
    """
    fits = {spec.window.label: decay_fit(spec) for spec in spectra}
    (band, scan), seconds = solve.side_result(ORACLE)
    if fits["incident"].band != band:
        raise ValueError("the oracle scanned the band %r, not the incident fit's %r"
                         % (band, fits["incident"].band))
    rep = gain_report(fits, hyperbolic_window(cfg.s0, cfg.eps0, cfg.k), oracle=scan)
    out_json.write_text(json.dumps(rep.asdict(), indent=2))
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "band_center", "band_mean", "fit"])
        for label, fit in rep.fits.items():
            for c, mval in zip(fit.band_centers, fit.band_means):
                fitted = np.exp(fit.intercept) * c ** -fit.r_hat
                w.writerow([label, "%.6g" % c, "%.6g" % mval, "%.6g" % fitted])
    health = {
        "oracle_freqs": int(scan.omegas.size),
        "oracle_s": round(seconds, 3),
        "window_slices": {label: fit.n_slices for label, fit in fits.items()},
    }
    return rep, health


def plan_spectra(scenario, paths) -> list:
    """One ``WindowSpectrum`` per planned probe window; a plan the geometry
    or the grid cannot hold, or whose windows are too short for the probe
    bands, raises ``WindowPlanError`` before any solve."""
    xs = scenario.grid()
    spectra = [WindowSpectrum(w, xs) for w in window_plan(scenario, paths)]
    for spec in spectra:
        spec.check_bands()
    return spectra


def commutant_check(cfg: ExperimentConfig) -> dict:
    """The escape-function commutant check of the config's ``[commutant]``
    section: ``escape.run_commutant_check``'s report."""
    c = dict(cfg.commutant)
    return run_commutant_check(c.pop("frame"), **c, seed=cfg.seed)


def stage_commutant(outcome, out_json: Path):
    """Write the report of the commutant check's ``outcome``, a ``(report,
    seconds)`` pair, to ``out_json``; returns the report and ``commutant_s``."""
    rep, seconds = outcome
    out_json.write_text(json.dumps(rep, indent=2))
    return rep, {"commutant_s": round(seconds, 3)}


def _cpu_s() -> float:
    """User plus system CPU time of this process and of its waited-for
    children: the wave solve's forked child counts once it is reaped."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The config's ``out_dir``, made if missing; a path that cannot be a
    directory is a ``ConfigError``."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("[experiment] out_dir %s cannot be made: %s"
                          % (cfg.out_dir, err.strerror)) from None
    return cfg.out_dir


def run_pipeline(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run every stage and write ``manifest.json`` once, however the run ends;
    one that raises records its first unrecorded stage and why as ``failed``."""
    out = _out_dir(cfg)
    manifest = {
        "name": cfg.name,
        "config_hash": cfg.config_hash(),
        "code_version": __version__,
        "stages": {},
    }
    try:
        return _run_stages(cfg, out, manifest)
    except BaseException as err:
        stages = ("calc", "trace", "wave", "probe", "verify-commutant")
        stage = next((s for s in stages if s not in manifest["stages"]), None)
        manifest["failed"] = {"stage": stage, "reason": reason(err)}
        raise
    finally:
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _run_stages(cfg: ExperimentConfig, out: Path, manifest: dict) -> tuple[int, dict]:
    def start():
        return time.perf_counter(), _cpu_s()

    def record(stage, paths, clock, **health):
        wall0, cpu0 = clock
        entry = {
            "seconds": round(time.perf_counter() - wall0, 3),
            "cpu_s": round(_cpu_s() - cpu0, 3),
            # the process's peak so far, read as the stage ends (KiB on Linux)
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "outputs": {},
        }
        for p in paths:
            entry["outputs"][p.name] = _sha256_file(p)
        manifest["stages"][stage] = entry | health

    def refuse(reason, message):
        manifest["refused"] = reason
        print("pipeline refused: %s" % message, file=sys.stderr)
        return 2, manifest

    clock = start()
    calc_path = out / "calc.json"
    gate = stage_calc(cfg, calc_path)
    record("calc", [calc_path], clock)
    if not gate["gate_ok"]:
        reason = gate.get("violated", "inadmissible")
        return refuse(reason, "admissibility gate failed (%s) for s0=%s eps0=%s s=%s k=%d"
                      % (reason, cfg.s0, cfg.eps0, cfg.s, cfg.k))
    # config faults raise ConfigError here, before any physical work
    scenario = cfg.build_scenario()

    # the solve's child scans the oracle and checks the commutant while this
    # process traces; it is reaped as the stream ends, so the wave entry's
    # cpu_s counts all its work.  On one CPU the stream runs both here.
    clock = start()
    sides = {ORACLE: oracle_scan(scenario), COMMUTANT: lambda: commutant_check(cfg)}
    with Solve(scenario, sides) as solve:
        trace_csv, events_json = out / "trace.csv", out / "events.json"
        paths, health = stage_trace(scenario, trace_csv, events_json)
        record("trace", [trace_csv, events_json], clock, **health)
        try:
            spectra = plan_spectra(scenario, paths)
        except WindowPlanError as err:
            return refuse(str(err), "window plan failed: %s" % err)

        clock = start()
        wave_json = out / "wave.json"
        rec = stage_wave(solve, spectra, None)
        # the peak of any child reaped so far, this solve's among them
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        # the energies are exact sums of the kernel's per-node terms, so
        # this checksum pins every stored slice
        wave_json.write_text(json.dumps({
            "dt": rec.dt, "steps": rec.steps, "max_trust_freq": rec.max_trust_freq,
            "ts": rec.ts.tolist(), "energy": rec.energy.tolist()}, indent=2))
        record("wave", [wave_json], clock, steps=rec.steps, slices=int(rec.ts.size),
               cell_updates=rec.steps * int(rec.xs.size),
               solver_cpus=rec.cpus, kernel_build_s=round(rec.kernel_build_s, 3),
               child_peak_rss_mb=None if rec.cpus is None else round(child_rss, 1))

        clock = start()
        probe_json, probe_csv = out / "probe.json", out / "probe_bands.csv"
        rep, health = stage_probe(cfg, spectra, solve, probe_json, probe_csv)
        record("probe", [probe_json, probe_csv], clock, **health)

    clock = start()
    comm_json = out / "commutant.json"
    comm, health = stage_commutant(solve.side_result(COMMUTANT), comm_json)
    record("verify-commutant", [comm_json], clock, **health)

    manifest["verdict"] = rep.verdict
    manifest["commutant_ok"] = bool(
        comm["positivity_passed"] and not comm["violations"]
    )
    ok = rep.verdict == "pass" and manifest["commutant_ok"]
    return (0 if ok else 1), manifest


def cmd_report(out_dir: Path) -> int:
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print("no manifest at %s" % manifest_path, file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    # the side jobs ran where the kernel did: in the solve's child or inline
    cpus = manifest.get("stages", {}).get("wave", {}).get("solver_cpus")
    where = "inline" if cpus is None else "in a child on cpus %s" % cpus[1]
    print("experiment: %s  (config %s, code %s)" % (
        manifest.get("name"), manifest.get("config_hash"), manifest.get("code_version")))
    for stage, entry in manifest.get("stages", {}).items():
        print("  %-18s %6.2fs  cpu %6.2fs  peak rss %6.1f MB  %s" % (
            stage, entry["seconds"], entry["cpu_s"], entry["peak_rss_mb"],
            " ".join("%s=%s" % kv for kv in entry["outputs"].items())))
        if "steps" in entry:
            print("  %-18s leapfrog steps %d, stored slices %d, %s%s, kernel build %.3fs" % (
                "", entry["steps"], entry["slices"], where,
                "" if cpus is None else " beside cpus %s" % cpus[0],
                entry.get("kernel_build_s", 0.0)))
            if entry.get("child_peak_rss_mb") is not None:
                print("  %-18s child peak rss %6.1f MB" % ("", entry["child_peak_rss_mb"]))
            if "cell_updates" in entry:  # the stage's rate: it includes the observers
                rate = entry["cell_updates"] / entry["seconds"] if entry["seconds"] else float("inf")
                print("  %-18s leapfrog cell updates %d, %.3g per second" % (
                    "", entry["cell_updates"], rate))
        if "rk4_steps" in entry:
            print("  %-18s rk4 steps %d, max |p|/|xi|^2 %.1e" % (
                "", entry["rk4_steps"], entry["p_residual_max"]))
        if "oracle_freqs" in entry:
            print("  %-18s oracle frequencies %d, window slices %s" % (
                "", entry["oracle_freqs"],
                " ".join("%s=%d" % kv for kv in entry["window_slices"].items())))
        for job, key in ((ORACLE, "oracle_s"), (COMMUTANT, "commutant_s")):
            if key in entry:
                print("  %-18s %s %.3fs %s" % ("", job, entry[key], where))
    if "refused" in manifest:
        print("refused: %s" % manifest["refused"])
        return 2
    if "failed" in manifest:
        print("failed in %s: %s" % (manifest["failed"]["stage"], manifest["failed"]["reason"]))
        return 3
    probe_path = out_dir / "probe.json"
    if probe_path.exists():
        rep = json.loads(probe_path.read_text())
        for label, fit in rep["fits"].items():
            print("  %-12s r=%.3f +- %.3f  (s proxy %.3f)" % (
                label, fit["r_hat"], fit["stderr"], fit["r_hat"] - 0.5))
        if rep.get("oracle_exponent") is not None:
            print("  oracle exponent %.3f, mismatch %.3f, step halving %.1e" % (
                rep["oracle_exponent"], rep["oracle_mismatch"], rep["oracle_halving"]))
        wave_path = out_dir / "wave.json"
        if wave_path.exists():  # reported, not gated
            print("  probe band top %.0f, max_trust_freq %.0f" % (
                rep["fits"]["incident"]["band"][1],
                json.loads(wave_path.read_text())["max_trust_freq"]))
        print("  verdict: %s" % rep["verdict"])
        return 0 if rep["verdict"] == "pass" else 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavediff", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_calc = sub.add_parser("calc", help="exact order-calculus queries")
    p_calc.add_argument("--batch", type=Path, help="query file, one operation per line")
    p_calc.add_argument("--out", type=Path, default=Path("calc_results.csv"))
    p_calc.add_argument("--config", type=Path, help="evaluate the config's admissibility gate")

    p_trace = sub.add_parser(
        "trace", help="trace the broken bicharacteristics of the configured packet"
    )
    p_trace.add_argument("--config", type=Path, required=True)

    p_wave = sub.add_parser("wave", help="wave solver")
    wave_sub = p_wave.add_subparsers(dest="wave_command", required=True)
    p_wave_run = wave_sub.add_parser("run", help="run the configured scenario")
    p_wave_run.add_argument("--config", type=Path, required=True)

    p_probe = sub.add_parser(
        "probe", help="recompute the trace and the wave field, then probe their regularity"
    )
    p_probe.add_argument("--config", type=Path, required=True)

    p_comm = sub.add_parser("verify-commutant", help="escape-function checks")
    p_comm.add_argument("--config", type=Path, required=True)

    p_rep = sub.add_parser("report", help="summarize a pipeline output directory")
    p_rep.add_argument("out_dir", type=Path)

    p_pipe = sub.add_parser("pipeline", help="run all stages in order")
    p_pipe.add_argument("--config", type=Path, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "calc":
            if args.batch:
                if not args.batch.is_file():
                    raise ConfigError("no query file at %s" % args.batch)
                if not args.out.parent.is_dir():
                    raise ConfigError("no directory for the results at %s" % args.out)
                n = calc_batch(args.batch, args.out)
                print("evaluated %d queries -> %s" % (n, args.out))
                return 0
            if args.config:
                cfg = load_config(args.config)
                gate = stage_calc(cfg, _out_dir(cfg) / "calc.json")
                print(json.dumps(gate, indent=2))
                return 0 if gate["gate_ok"] else 1
            print("calc needs --batch or --config", file=sys.stderr)
            return 2
        if args.command == "trace":
            cfg = load_config(args.config)
            out = _out_dir(cfg)
            stage_trace(cfg.build_scenario(), out / "trace.csv", out / "events.json")
            print("trace written to %s" % out)
            return 0
        if args.command == "wave":
            cfg = load_config(args.config)
            field = _out_dir(cfg) / "field.npz"
            with Solve(cfg.build_scenario()) as solve:
                stage_wave(solve, [], field)
            print("field written to %s" % field)
            return 0
        if args.command == "probe":
            cfg = load_config(args.config)
            scenario = cfg.build_scenario()
            out = _out_dir(cfg)
            with Solve(scenario, {ORACLE: oracle_scan(scenario)}) as solve:
                paths, _ = stage_trace(scenario, out / "trace.csv", out / "events.json")
                spectra = plan_spectra(scenario, paths)
                stage_wave(solve, spectra, None)
                rep, _ = stage_probe(
                    cfg, spectra, solve, out / "probe.json", out / "probe_bands.csv"
                )
            print("verdict: %s" % rep.verdict)
            return 0 if rep.verdict == "pass" else 1
        if args.command == "verify-commutant":
            cfg = load_config(args.config)
            rep, _ = stage_commutant(timed(lambda: commutant_check(cfg)),
                                     _out_dir(cfg) / "commutant.json")
            print(json.dumps({k: rep[k] for k in (
                "min_margin", "residual_max_relative", "F_threshold", "positivity_passed")}, indent=2))
            ok = rep["positivity_passed"] and not rep["violations"]
            return 0 if ok else 1
        if args.command == "report":
            return cmd_report(args.out_dir)
        if args.command == "pipeline":
            cfg = load_config(args.config)
            code, manifest = run_pipeline(cfg)
            print(json.dumps({k: manifest[k] for k in manifest if k != "stages"}, indent=2))
            return code
    except (ConfigError, WindowPlanError, InsufficientBandsError) as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 2
    except KernelBuildError as err:  # no usable C compiler
        print("wavediff: %s" % err, file=sys.stderr)
        return 2
    except SolverChildError as err:  # a side job or the kernel failed in the child
        print("wavediff: %s" % err, file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
