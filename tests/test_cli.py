import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wavediff import wave
from wavediff.cli import _cpu_s, _sha256_file, calc_batch, main, run_calc_query, run_pipeline
from wavediff.config import ConfigError, ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "src/wavediff/scenarios/reflection-gain-s0-2.5.ini"


def small_config_text(out_dir, s0="5/2", eps0="1/20", s="1/2", extra=""):
    return f"""
[experiment]
name = smoke
out_dir = {out_dir}
seed = 7

[metric]
k = 1
n = 2
s0 = {s0}
amp = 0.4
core_radius = 1.0

[calc]
eps0 = {eps0}
s = {s}

[trace]
{extra}

[wave]
nx = 8192
duration = 6.6
store_stride = 8
pulse_center = -2.2
pulse_width = 0.06
pulse_s_in = -0.5
sponge_cells = 300

[commutant]
grid = 3000
"""


class TestCalcQueries:
    def test_include_filter(self):
        res, wit = run_calc_query("include_filter", "0 0 1 1 -2 1".split())
        assert res == "False"
        assert "p1<=p2:True" in wit and "False" in wit

    def test_embed(self):
        res, _ = run_calc_query("embed_lambda0", ["0", "2"])
        assert res == "(-1, 1; k=2)"

    def test_windows(self):
        res, wit = run_calc_query("hyperbolic_window", ["11/5", "1/20", "1"])
        assert "admissible=True" in res and "theorem=(-1/2,13/20)" in res.replace(" ", "")

    def test_flowout_error_witness(self):
        res, wit = run_calc_query("compose_flowout", "0 1/2 1 0 -1/2 1".split())
        assert res == "error" and "fallback" in wit

    def test_batch_roundtrip(self, tmp_path):
        qfile = tmp_path / "queries.txt"
        qfile.write_text(
            """
# comment line
include_filter 0 0 1 0 0 1
compose_au 0 0 1 0 0 1
mult_bounded_range 5/2 1
bogus_op 1 2 3
"""
        )
        out = tmp_path / "res.csv"
        n = calc_batch(qfile, out)
        assert n == 4
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("query_id,")
        assert "True" in rows[1]
        assert "(1/2, -1/2; k=1)" in rows[2]
        assert "window=(-2,2)" in rows[3].replace(" ", "")
        assert "error" in rows[4]

    def test_batch_rejects_unknown_side(self, tmp_path):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("psdo_shift 0 0 1 1 sideways\npsdo_shift 0 0 1 1 LEFT\n")
        out = tmp_path / "res.csv"
        assert calc_batch(qfile, out) == 2
        rows = list(csv.reader(out.open()))
        assert rows[1][3] == "error" and "sideways" in rows[1][4]
        assert rows[2][3] != "error"


class TestConfig:
    def test_bundled_scenario_loads(self):
        cfg = load_config(SCENARIO)
        assert cfg.name == "reflection-gain-s0-2.5"
        assert str(cfg.s0) == "5/2"
        assert cfg.wave["nx"] == 16384

    @pytest.mark.parametrize(
        "section, key",
        [
            ("metric", "whatever"),
            ("metric", "kind"),
            ("metric", "c_left"),
            ("metric", "y_dependence"),
            ("trace", "h"),
            ("trace", "x0"),
            ("trace", "direction"),
            ("trace", "t_span"),
            ("calc", "batch"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, section, key):
        bad = tmp_path / "bad.ini"
        bad.write_text("[%s]\n%s = 3\n" % (section, key))
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nk = 1\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_loosened_tolerance_gate(self, tmp_path):
        cfgf = tmp_path / "loose.ini"
        cfgf.write_text("[probe]\noracle_tol = 0.5\n")
        with pytest.raises(ConfigError):
            load_config(cfgf)
        cfgf.write_text("[probe]\noracle_tol = 0.5\nloosened = true\n")
        cfg = load_config(cfgf)
        assert cfg.probe["oracle_tol"] == 0.5

    @pytest.mark.parametrize("word, value", [("on", True), ("off", False)])
    def test_probe_booleans(self, tmp_path, word, value):
        cfgf = tmp_path / "flags.ini"
        cfgf.write_text("[probe]\noracle = %s\nloosened = %s\n" % (word, word))
        cfg = load_config(cfgf)
        assert cfg.probe["oracle"] is value

    @pytest.mark.parametrize("key", ["oracle", "loosened"])
    def test_probe_boolean_typo_rejected(self, tmp_path, key):
        cfgf = tmp_path / "typo.ini"
        cfgf.write_text("[probe]\n%s = flase\n" % key)
        with pytest.raises(ConfigError, match="not a boolean"):
            load_config(cfgf)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_smooth_background_expression(self, tmp_path):
        import numpy as np

        cfgf = tmp_path / "expr.ini"
        cfgf.write_text("[metric]\nc_smooth = 1.0 + 0.1*np.sin(x)\n")
        cfg = load_config(cfgf)
        m = cfg.build_metric()
        xs = np.array([2.0, 3.0])  # outside the core: pure background
        assert np.allclose(m.speed(xs), 1.0 + 0.1 * np.sin(xs))

    def test_speed_expression_rejects_names(self, tmp_path):
        cfgf = tmp_path / "expr.ini"
        cfgf.write_text("[metric]\nc_smooth = __import__('os')\n")
        cfg = load_config(cfgf)
        with pytest.raises(ConfigError):
            cfg.build_metric()

    def test_y_dependence_none_only(self, tmp_path):
        # the key is gone: even its one former legal value is rejected
        cfgf = tmp_path / "ydep.ini"
        cfgf.write_text("[metric]\ny_dependence = none\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(cfgf)


class TestPipeline:
    def test_inadmissible_refused(self, tmp_path):
        cfgf = tmp_path / "bad_s0.ini"
        cfgf.write_text(small_config_text(tmp_path / "out", s0="2"))
        cfg = load_config(cfgf)
        code, manifest = run_pipeline(cfg)
        assert code == 2
        assert manifest["refused"] == "k+1+2*eps0 < s0"
        assert not (tmp_path / "out" / "field.npz").exists()
        # the gate's own machine-readable output survives the refusal
        assert (tmp_path / "out" / "calc.json").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_small_pipeline_and_determinism(self, tmp_path, monkeypatch):
        def no_stack(*args, **kwargs):
            raise AssertionError("the pipeline streams; it never builds the slice stack")

        for name in ("run", "WaveField"):  # also catches a `run` imported by name
            monkeypatch.setattr(wave, name, no_stack)
        builds = []
        build_metric = ExperimentConfig.build_metric

        def counted(self):
            builds.append(1)
            return build_metric(self)

        monkeypatch.setattr(ExperimentConfig, "build_metric", counted)
        cfgf = tmp_path / "smoke.ini"
        text = small_config_text(tmp_path / "out")
        cfgf.write_text(text.replace("[commutant]", "[probe]\noracle = on\n\n[commutant]"))
        cfg = load_config(cfgf)
        # the first run solves in one part, the rerun in two (this process and
        # a forked child), so the rerun's checksums also pin the split
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        code, manifest = run_pipeline(cfg)
        assert code == 0, manifest
        assert manifest["verdict"] == "pass"
        assert manifest["commutant_ok"]
        assert len(builds) == 1  # trace, wave and oracle share one metric
        # the trace's health numbers: its work and its characteristic-set residual
        trace = manifest["stages"]["trace"]
        assert trace["rk4_steps"] > 0
        assert trace["p_residual_max"] <= 1e-8
        # every stage's CPU time and the process's peak RSS as it ends
        entries = list(manifest["stages"].values())
        assert all(e["cpu_s"] >= 0 and e["peak_rss_mb"] > 0 for e in entries)
        peaks = [e["peak_rss_mb"] for e in entries]
        assert peaks == sorted(peaks)
        # the wave stage's work: 6.6 / dt steps, a slice every 8 and the last
        wave_entry = manifest["stages"]["wave"]
        with np.load(tmp_path / "out" / "field.npz") as z:
            assert wave_entry["steps"] == math.ceil(6.6 / float(z["dt"]))
            assert wave_entry["slices"] == z["u"].shape[0] == z["ts"].size
        assert wave_entry["slices"] == 1 + math.ceil(wave_entry["steps"] / 8)
        # identical rerun reproduces identical checksums for every stage
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(wave, "MIN_PART_NODES", 1)
        code2, manifest2 = run_pipeline(cfg)
        assert len(builds) == 2
        assert (wave_entry["solver_processes"], manifest2["stages"]["wave"]["solver_processes"]) \
            == (1, 2)
        stages = ("calc", "trace", "wave", "probe", "verify-commutant")
        assert list(manifest["stages"]) == list(stages)
        for stage in stages:
            assert manifest["stages"][stage]["outputs"] == manifest2["stages"][stage]["outputs"]
        out = tmp_path / "out"
        for name in ("calc.json", "trace.csv", "events.json", "field.npz",
                     "probe.json", "probe_bands.csv", "commutant.json", "manifest.json"):
            assert (out / name).exists()
        probe = json.loads((out / "probe.json").read_text())
        assert probe["verdict"] == "pass"
        assert probe["oracle_exponent"] is not None  # oracle = on runs the oracle
        assert probe["oracle_halving"] < 1e-3  # the layer scan's step-halving difference
        assert probe["window_sup"] == 0.95  # the exact 19/20, not a float recomputation
        # each fit column entry is the fit's own line through its intercept
        with open(out / "probe_bands.csv") as fh:
            for row in csv.DictReader(fh):
                fit = probe["fits"][row["window"]]
                line = math.exp(fit["intercept"]) * float(row["band_center"]) ** -fit["r_hat"]
                assert float(row["fit"]) == pytest.approx(line, rel=1e-5)
        # `wavediff trace` launches the same packet the pipeline traces
        assert main(["trace", "--config", str(cfgf)]) == 0
        assert {name: _sha256_file(out / name) for name in ("trace.csv", "events.json")} \
            == manifest["stages"]["trace"]["outputs"]

    def test_report_command(self, tmp_path, capsys):
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out"))
        cfg = load_config(cfgf)
        run_pipeline(cfg)
        code = main(["report", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        assert "step halving" in out
        assert "rk4 steps" in out and "max |p|/|xi|^2" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for stage, entry in manifest["stages"].items():
            line = next(row for row in out.splitlines() if row.split()[0] == stage)
            assert "cpu %6.2fs" % entry["cpu_s"] in line
            assert "peak rss %6.1f MB" % entry["peak_rss_mb"] in line
        wave_entry = manifest["stages"]["wave"]
        assert "leapfrog steps %d, stored slices %d, solver processes %d" % (
            wave_entry["steps"], wave_entry["slices"], wave_entry["solver_processes"]) in out
        # the probe's work: the oracle's frequencies and each window's slices
        probe_entry = manifest["stages"]["probe"]
        assert probe_entry["oracle_freqs"] > 0
        slices = probe_entry["window_slices"]
        assert set(slices) == {"incident", "reflected", "transmitted"}
        assert all(0 < n <= wave_entry["slices"] for n in slices.values())
        assert "oracle frequencies %d, window slices %s" % (
            probe_entry["oracle_freqs"],
            " ".join("%s=%d" % kv for kv in slices.items())) in out

    def test_cpu_time_counts_reaped_children(self):
        # a stage's cpu_s covers the wave solver's child once it is reaped
        before = _cpu_s()
        pid = os.fork()
        if pid == 0:
            try:
                start = time.process_time()
                while time.process_time() - start < 0.2:
                    pass
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        assert _cpu_s() - before >= 0.2

    def test_cli_calc_gate(self, tmp_path, capsys):
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out"))
        code = main(["calc", "--config", str(cfgf)])
        assert code == 0
        assert "gate_ok" in capsys.readouterr().out

    def test_window_plan_refusal_exit_2(self, tmp_path, capsys):
        cases = [
            # a reflect-only trace has no transmitted branch to place a window on
            ("reflect", "policy = reflect", "nx = 2048",
             "reflection and one transmission branch"),
            # the windows fit the geometry but hold too few nodes of a coarse grid
            ("narrow", "", "nx = 1024", "window too narrow for the grid"),
        ]
        for name, extra, nx, reason in cases:
            out = tmp_path / name
            cfgf = tmp_path / (name + ".ini")
            cfgf.write_text(small_config_text(out, extra=extra).replace("nx = 8192", nx))
            for command in ("pipeline", "probe"):
                assert main([command, "--config", str(cfgf)]) == 2
                assert reason in capsys.readouterr().err
            # the plan is refused before the wave solve, and the manifest says why
            manifest = json.loads((out / "manifest.json").read_text())
            assert reason in manifest["refused"]
            assert not (out / "field.npz").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("k = 1\nn = 2\ns0 = 5/2", "k = 2\nn = 3\ns0 = 7/2"),
            ("n = 2", "n = 3"),
            ("nx = 8192", "nx = 8192\ncfl = 0.95"),
            ("sponge_cells = 300", "sponge_cells = 10"),
            ("grid = 3000", "grid = 3000\nframe = bogus"),
            ("grid = 3000", "grid = 3000\nalpha = 2"),
            ("grid = 3000", "grid = 3000\ndelta = 1.5"),
            ("[trace]\n", "[trace]\npolicy = bogus\n"),
        ],
        ids=["k2-n3", "n3", "cfl", "sponge", "frame", "alpha", "delta", "policy"],
    )
    def test_config_fault_exit_2_before_trace(self, tmp_path, capsys, old, new):
        cfgf = tmp_path / "fault.ini"
        text = small_config_text(tmp_path / "out")
        assert old in text
        cfgf.write_text(text.replace(old, new))
        assert main(["pipeline", "--config", str(cfgf)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_smooth_background_runs_no_oracle(self, tmp_path):
        cfgf = tmp_path / "smooth.ini"
        text = small_config_text(tmp_path / "out")
        cfgf.write_text(text.replace("core_radius = 1.0", "core_radius = 1.0\n"
                                     "c_smooth = 1.0 + 0.05*np.sin(x)"))
        main(["probe", "--config", str(cfgf)])
        probe = json.loads((tmp_path / "out" / "probe.json").read_text())
        assert probe["oracle_exponent"] is None and probe["oracle_mismatch"] is None
        assert probe["oracle_halving"] is None
        assert any(note.startswith("oracle skipped") for note in probe["notes"])
        _, manifest = run_pipeline(load_config(cfgf))
        assert manifest["stages"]["probe"]["oracle_freqs"] == 0

    def test_cli_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[metric]\nnope = 1\n")
        assert main(["calc", "--config", str(bad)]) == 2


ALL_OPERATIONS = """
include_filter 0 0 1 1 -2 1
embed_lambda0 0 2
reverse_pair 0 -1 1 1/4
compose_au 0 0 1 0 0 1
compose_flowout 1/2 -8/5 1 1/2 -8/5 1
bounded_gu -1/2 1/2 1 0 0
bounded_diag_flowout 0 -2 1 0 0
bounded_one_sided -3 1 1 2 -1 1 right
psdo_shift 0 0 1 1 left
mult_decompose 5/2 0 1 2
mult_bounded_range 5/2 1
elliptic_window 5/2 1/4 1
hyperbolic_window 11/5 1/20 1
verify_constraint_chain 11/5 1/20 1/2 1 2
bootstrap_schedule 1 4/5
"""

IMPORT_GUARD = """
import sys
from pathlib import Path

import wavediff
import wavediff.cli as cli
from wavediff.config import load_config

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

code, _ = cli.run_pipeline(load_config(Path(sys.argv[1])))
assert code == 0, code
assert not scipy_modules(), scipy_modules()
assert cli.calc_batch(Path(sys.argv[2]), Path(sys.argv[3])) == 15
assert not scipy_modules(), scipy_modules()
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    """The package, its CLI, a pipeline run and a calc batch load no scipy:
    scipy is the DOP853 test reference's dependency only."""
    cfgf = tmp_path / "smoke.ini"
    cfgf.write_text(small_config_text(tmp_path / "out"))
    queries = tmp_path / "queries.txt"
    queries.write_text(ALL_OPERATIONS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(cfgf), str(queries), str(tmp_path / "res.csv")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
