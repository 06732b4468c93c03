import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wavediff import cli, wave
from wavediff.cli import _cpu_s, _sha256_file, calc_batch, main, run_calc_query, run_pipeline
from wavediff.config import _SCHEMA, ConfigError, ExperimentConfig, load_config
from wavediff.probe import InsufficientBandsError, ProbeWindow, WindowSpectrum, probe_band

from test_wave import assert_no_child, usable_split

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "src/wavediff/scenarios/reflection-gain-s0-2.5.ini"


def small_config_text(out_dir, s0="5/2", eps0="1/20", s="1/2"):
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

    @pytest.mark.parametrize("query, counts", [
        ("embed_lambda0 1 2 3", "embed_lambda0 takes 2 arguments, got 3"),
        ("compose_au 1 2", "compose_au takes 6 arguments, got 2"),
        ("bootstrap_schedule 1", "bootstrap_schedule takes 2 arguments, got 1"),
        ("mult_bounded_range", "mult_bounded_range takes 2 arguments, got 0"),
    ])
    def test_wrong_argument_count(self, tmp_path, query, counts):
        qfile = tmp_path / "queries.txt"
        qfile.write_text(query + "\nembed_lambda0 0 2\n")
        out = tmp_path / "res.csv"
        assert calc_batch(qfile, out) == 2
        rows = list(csv.reader(out.open()))
        assert rows[1][3:] == ["error", counts]
        assert rows[2][3] == "(-1, 1; k=2)"

    def test_every_operation_has_its_count(self):
        queries = [line.split() for line in ALL_OPERATIONS.split("\n") if line]
        assert sorted(cli.CALC_OPERATIONS) == sorted(op for op, *_ in queries)
        for op, *args in queries:
            assert cli.CALC_OPERATIONS[op][0] == len(args), op

    @pytest.mark.parametrize("token, message", [
        ("3/0", "Fraction(3, 0)"),
        ("x/2", "Invalid literal for Fraction: 'x/2'"),
    ])
    def test_malformed_token_fails_every_time(self, tmp_path, token, message):
        """A token that does not parse is not remembered: each use raises."""
        qfile = tmp_path / "queries.txt"
        qfile.write_text("embed_lambda0 %s 1\nembed_lambda0 %s 1\n" % (token, token))
        out = tmp_path / "res.csv"
        assert calc_batch(qfile, out) == 2
        rows = list(csv.reader(out.open()))
        assert rows[1][1:] == rows[2][1:] == ["embed_lambda0", token + " 1", "error", message]

    def test_memo_is_empty_after_a_batch(self, tmp_path):
        qfile = tmp_path / "queries.txt"
        qfile.write_text(ALL_OPERATIONS)
        calc_batch(qfile, tmp_path / "res.csv")
        assert cli._fraction.cache_info().currsize == 0
        # also when reading the query file fails after queries ran
        qfile.write_bytes(b"embed_lambda0 1/2 1\n" * 1000 + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            calc_batch(qfile, tmp_path / "res.csv")
        assert cli._fraction.cache_info().currsize == 0

    def test_every_operation_twice_keeps_its_bytes(self, tmp_path):
        """Every operation, each token repeated, and malformed tokens and an
        unknown operation: the CSV is byte for byte the one written before
        tokens were parsed once per batch."""
        qfile = tmp_path / "queries.txt"
        qfile.write_text(2 * ALL_OPERATIONS.lstrip() + "embed_lambda0 3/0 1\n"
                         "embed_lambda0 3/0 1\nbootstrap_schedule x/2 1\nbogus_op 1 2 3\n")
        out = tmp_path / "res.csv"
        assert calc_batch(qfile, out) == 34
        assert _sha256_file(out) == "21dd56a9c4a1f4c4"

    def test_orders_functions_are_looked_up_when_a_query_runs(self, tmp_path, monkeypatch):
        """The benchmark's traced runs count ``orders`` calls by patching the
        names ``cli`` imported; a query must reach the patched function."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "compose_au", counted(cli.compose_au))
        monkeypatch.setattr(cli, "bounded_gu", counted(cli.bounded_gu))
        qfile = tmp_path / "queries.txt"
        qfile.write_text(ALL_OPERATIONS)
        calc_batch(qfile, tmp_path / "res.csv")
        assert calls == ["compose_au", "bounded_gu"]


# one valid value per config key, each different from the key's default;
# its table is the schema, so a key that load_config does not read fails
NON_DEFAULTS = {
    "experiment": {"name": "other", "out_dir": "elsewhere", "seed": "7"},
    "metric": {"k": "2", "n": "3", "s0": "7/2", "amp": "0.3", "c_bg": "1.5",
               "core_radius": "0.5"},
    "calc": {"eps0": "1/10", "s": "1/4"},
    "wave": {"x_lo": "-5.0", "x_hi": "5.0", "duration": "5.0", "nx": "8192", "cfl": "0.8",
             "pulse_center": "-2.0", "pulse_width": "0.05", "pulse_s_in": "0.0",
             "pulse_seed": "7", "sponge_cells": "300", "sponge_strength": "30.0",
             "store_stride": "8"},
    "commutant": {"frame": "smooth", "delta": "0.25", "eps": "0.5", "beta": "0.5", "F": "4.0",
                  "c0": "0.5", "alpha": "0.25", "C0": "0.1", "dim": "2", "grid": "5000"},
}


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
            # the background is the constant c_bg, and the verdict is not configurable
            ("metric", "c_smooth"),
            ("probe", "oracle"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, section, key):
        bad = tmp_path / "bad.ini"
        bad.write_text("[%s]\n%s = 3\n" % (section, key))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        # the verdict's tolerances are constants: even an empty [probe] is unknown
        for section, text in (("mystery", "[mystery]\nk = 1\n"), ("probe", "[probe]\n")):
            bad.write_text(text)
            with pytest.raises(ConfigError, match=r"unknown section \[%s\]" % section):
                load_config(bad)

    def test_every_key_changes_the_config(self, tmp_path):
        assert {section: set(keys) for section, keys in NON_DEFAULTS.items()} == _SCHEMA
        assert sum(map(len, _SCHEMA.values())) == 33

        def loaded(text):
            cfgf = tmp_path / "keys.ini"
            cfgf.write_text(text)
            cfg = load_config(cfgf)
            return {f.name: getattr(cfg, f.name)
                    for f in dataclasses.fields(cfg) if f.name != "raw_text"}

        default = loaded("")
        for section, keys in NON_DEFAULTS.items():
            for key, value in keys.items():
                # k = 2 needs n > 2: it is loaded next to n = 3 and compared with n = 3 alone
                other = "n = 3\n" if key == "k" else ""
                base = loaded("[metric]\n" + other) if other else default
                assert loaded("[%s]\n%s%s = %s\n" % (section, other, key, value)) != base, key

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_y_dependence_none_only(self, tmp_path):
        # the key is gone: even its one former legal value is rejected
        cfgf = tmp_path / "ydep.ini"
        cfgf.write_text("[metric]\ny_dependence = none\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(cfgf)


# faults of the config file itself: load_config refuses them, so calc
# --config exits 2 on them as pipeline does; id: (old text, new text, named)
LOAD_FAULTS = {
    "s0-over-0": ("s0 = 5/2", "s0 = 1/0", "[metric] s0: '1/0' divides by zero"),
    "s-over-0": ("\ns = 1/2", "\ns = 1/0", "[calc] s: '1/0' divides by zero"),
    "eps0-over-0": ("eps0 = 1/20", "eps0 = 1/0", "[calc] eps0: '1/0' divides by zero"),
    "duplicate-key": ("k = 1\n", "k = 1\nk = 1\n",
                      "[line 9]: option 'k' in section 'metric' already exists"),
    "duplicate-section": ("[commutant]", "[calc]\neps0 = 1/10\n\n[commutant]",
                          "[line 27]: section 'calc' already exists"),
    "key-before-section": ("[experiment]\n", "k = 1\n[experiment]\n",
                           "File contains no section headers"),
    "stray-line": ("[calc]\n", "[calc]\njunk\n", "Source contains parsing errors"),
    "stray-percent": ("name = smoke", "name = 100%", "[experiment] name: '%' must be"),
    # the order rules' own domain: integers n > k >= 1 and eps0 > 0
    "k-0": ("k = 1\n", "k = 0\n", "[metric] codimension k must be a positive integer"),
    "n-1": ("n = 2\n", "n = 1\n", "[metric] need integers n > k >= 1"),
    "eps0-0": ("eps0 = 1/20", "eps0 = 0", "[calc] eps0 must be positive"),
}


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
        cfgf.write_text(small_config_text(tmp_path / "out"))
        cfg = load_config(cfgf)
        # the first run solves in one part, the rerun in two (this process and
        # a forked child), so the rerun's checksums also pin the split
        split = usable_split()
        monkeypatch.setattr(wave, "_cpu_split", lambda: None)
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
        record = json.loads((tmp_path / "out" / "wave.json").read_text())
        assert wave_entry["steps"] == record["steps"] == math.ceil(6.6 / record["dt"])
        assert wave_entry["slices"] == len(record["ts"]) == len(record["energy"])
        assert wave_entry["slices"] == 1 + math.ceil(wave_entry["steps"] / 8)
        assert wave_entry["kernel_build_s"] >= 0
        # identical rerun reproduces identical checksums for every stage,
        # commutant.json too, which the rerun takes from the solve's child
        monkeypatch.setattr(wave, "_cpu_split", lambda: split)
        mask = os.sched_getaffinity(0)
        code2, manifest2 = run_pipeline(cfg)
        assert os.sched_getaffinity(0) == mask
        assert_no_child()
        assert len(builds) == 2
        wave_entry2 = manifest2["stages"]["wave"]
        # the oracle, the commutant check and the kernel ran in this process
        # in the first run, in the solve's child in the rerun
        assert (wave_entry["solver_cpus"], wave_entry2["solver_cpus"]) == (None, split)
        assert wave_entry["child_peak_rss_mb"] is None
        assert wave_entry2["child_peak_rss_mb"] > 0
        probes = manifest["stages"]["probe"], manifest2["stages"]["probe"]
        assert all(p["oracle_s"] > 0 for p in probes)
        checks = manifest["stages"]["verify-commutant"], manifest2["stages"]["verify-commutant"]
        assert all(c["commutant_s"] > 0 for c in checks)
        stages = ("calc", "trace", "wave", "probe", "verify-commutant")
        assert list(manifest["stages"]) == list(stages)
        assert set(manifest["stages"]["wave"]["outputs"]) == {"wave.json"}
        for stage in stages:
            assert manifest["stages"][stage]["outputs"] == manifest2["stages"][stage]["outputs"]
        out = tmp_path / "out"
        for name in ("calc.json", "trace.csv", "events.json", "wave.json",
                     "probe.json", "probe_bands.csv", "commutant.json", "manifest.json"):
            assert (out / name).exists()
        assert not (out / "field.npz").exists()  # `wavediff wave run` alone writes it
        probe = json.loads((out / "probe.json").read_text())
        assert probe["verdict"] == "pass"
        assert probe["oracle_exponent"] is not None  # every pipeline runs the oracle
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

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out"))
        cfg = load_config(cfgf)
        split = usable_split()  # a forked solve
        monkeypatch.setattr(wave, "_cpu_split", lambda: split)
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
        assert wave_entry["solver_cpus"] == list(split)
        assert "leapfrog steps %d, stored slices %d, in a child on cpus %s beside cpus %s," \
            " kernel build %.3fs" % (wave_entry["steps"], wave_entry["slices"], split[1],
                                     split[0], wave_entry["kernel_build_s"]) in out
        assert "child peak rss %6.1f MB" % wave_entry["child_peak_rss_mb"] in out
        # the leapfrog's work, one update per node and step, and its rate
        assert wave_entry["cell_updates"] == wave_entry["steps"] * (cfg.wave["nx"] + 1)
        assert "leapfrog cell updates %d, %.3g per second" % (
            wave_entry["cell_updates"], wave_entry["cell_updates"] / wave_entry["seconds"]) in out
        # the probe's work: the oracle's frequencies and each window's slices
        probe_entry = manifest["stages"]["probe"]
        assert probe_entry["oracle_freqs"] > 0
        slices = probe_entry["window_slices"]
        assert set(slices) == {"incident", "reflected", "transmitted"}
        assert all(0 < n <= wave_entry["slices"] for n in slices.values())
        assert "oracle frequencies %d, window slices %s" % (
            probe_entry["oracle_freqs"],
            " ".join("%s=%d" % kv for kv in slices.items())) in out
        assert "oracle scan %.3fs in a child on cpus %s" % (
            probe_entry["oracle_s"], split[1]) in out
        # the commutant check's own time, in the same child
        comm_entry = manifest["stages"]["verify-commutant"]
        assert "commutant check %.3fs in a child on cpus %s" % (
            comm_entry["commutant_s"], split[1]) in out
        # the dispersion-limited wavenumber beside the probe band's top, reported only
        record = json.loads((tmp_path / "out" / "wave.json").read_text())
        probe = json.loads((tmp_path / "out" / "probe.json").read_text())
        assert "probe band top %.0f, max_trust_freq %.0f" % (
            probe["fits"]["incident"]["band"][1], record["max_trust_freq"]) in out
        # a one-process solve, with the oracle and the check inline, names no CPUs
        wave_entry.update(solver_cpus=None, child_peak_rss_mb=None)
        (tmp_path / "out" / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "stored slices %d, inline, kernel build" % wave_entry["slices"] in out
        assert "child peak rss" not in out
        assert "oracle scan %.3fs inline" % probe_entry["oracle_s"] in out
        assert "commutant check %.3fs inline" % comm_entry["commutant_s"] in out

    def test_missing_compiler_ends_in_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wave, "_kernel_lib", None)
        monkeypatch.setattr(wave, "KERNEL_CACHE", tmp_path / "cache")
        monkeypatch.setattr(wave, "CC", ("wavediff-no-such-cc", *wave.CC[1:]))
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out"))
        assert main(["pipeline", "--config", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavediff: cannot build the leapfrog kernel: `wavediff-no-such-cc ")
        assert err.count("\n") == 1 and "Traceback" not in err
        # the kernel is loaded before the solve forks, which is before the trace
        assert not (tmp_path / "out" / "trace.csv").exists()
        assert not (tmp_path / "out" / "field.npz").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        # the gate takes any k and n > k; only the physical stages need k = 1, n = 2
        cfgf.write_text(small_config_text(tmp_path / "out", s0="7/2")
                        .replace("k = 1\nn = 2", "k = 2\nn = 3"))
        assert main(["calc", "--config", str(cfgf)]) == 0
        assert json.loads((tmp_path / "out" / "calc.json").read_text())["gate_ok"]

    def test_window_plan_refusal_exit_2(self, tmp_path, capsys):
        cases = [
            # without an interface the trace never branches, so there is no
            # reflected or transmitted leg to place a window on
            ("no-interface", {"amp = 0.4": "amp = 0.0", "nx = 8192": "nx = 2048"},
             "reflection and one transmission branch"),
            # the windows fit the geometry but hold too few nodes of a coarse grid
            ("narrow", {"nx = 8192": "nx = 1024"}, "window too narrow for the grid"),
            # enough nodes, but too few wavelengths of the lowest probe band
            ("short", {"nx = 8192": "nx = 2048"},
             "incident window too short for the probe bands: band [0.785398, 1.5708)"),
        ]
        for name, edits, reason in cases:
            out = tmp_path / name
            cfgf = tmp_path / (name + ".ini")
            text = small_config_text(out)
            for old, new in edits.items():
                text = text.replace(old, new)
            cfgf.write_text(text)
            for command in ("pipeline", "probe"):
                assert main([command, "--config", str(cfgf)]) == 2
                assert reason in capsys.readouterr().err
            # the plan is refused before the wave solve, and the manifest says why
            manifest = json.loads((out / "manifest.json").read_text())
            assert reason in manifest["refused"]
            assert "wave" not in manifest["stages"]
            assert not (out / "wave.json").exists() and not (out / "field.npz").exists()

    def test_insufficient_bands_exit_2(self, tmp_path, capsys, monkeypatch):
        # a band left empty after the plan is a one-line fault, not a traceback
        def empty_band(spec):
            raise InsufficientBandsError("band [1, 2) holds no wavenumber of the window")

        monkeypatch.setattr(cli, "decay_fit", empty_band)
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out"))
        assert main(["probe", "--config", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: band [1, 2) holds no wavenumber of the window\n"

    def test_probe_stage_refuses_another_band(self):
        # the oracle must have scanned the incident fit's band, bit for bit
        xs = np.linspace(-4.0, 4.0, 8193)
        spec = WindowSpectrum(ProbeWindow(-3.5, -0.5, 0.0, 1.0, "incident"), xs)
        spec(0.5, np.sin(40.0 * xs))
        band = probe_band(float(xs[1] - xs[0]))
        other = (band[0], np.nextafter(band[1], 0.0))
        solve = SimpleNamespace(side_result=lambda name: ((other, None), 0.0))
        with pytest.raises(ValueError, match="oracle scanned the band"):
            cli.stage_probe(None, [spec], solve, Path("unused.json"), Path("unused.csv"))

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("k = 1\nn = 2\ns0 = 5/2", "k = 2\nn = 3\ns0 = 7/2", "only k = 1 and n = 2"),
            ("n = 2", "n = 3", "only k = 1 and n = 2"),
            ("nx = 8192", "nx = 8192\ncfl = 0.95", "[wave] CFL"),
            ("sponge_cells = 300", "sponge_cells = 10", "[wave] sponge"),
            ("grid = 3000", "grid = 3000\nframe = bogus", "[commutant]"),
            ("grid = 3000", "grid = 3000\nalpha = 2", "[commutant]"),
            ("grid = 3000", "grid = 3000\ndelta = 1.5", "[commutant]"),
            # the trace always branches both ways: its old section is unknown
            ("[wave]\n", "[trace]\npolicy = tree\n\n[wave]\n", "unknown section [trace]"),
            ("store_stride = 8", "store_stride = 0", "[wave] store_stride"),
            ("seed = 7", "seed = -1", "[experiment] seed"),
            ("sponge_cells = 300", "sponge_cells = 300\npulse_seed = -5", "[wave] pulse_seed"),
            # no grid and no pulse ever reach the kernel
            ("nx = 8192", "nx = 0", "[wave] nx must be at least 1"),
            ("nx = 8192", "nx = -5", "[wave] nx must be at least 1"),
            ("pulse_width = 0.06", "pulse_width = 0", "[wave] pulse width must be positive"),
            ("nx = 8192", "nx = 256", "[wave] sponge of 300 cells does not fit the 257 grid nodes"),
            ("nx = 8192", "nx = 8192\nx_lo = 4.0\nx_hi = -4.0", "[wave] x_hi must exceed x_lo"),
            # values that divide by zero, size no grid or amplify in the sponge
            ("nx = 8192", "nx = 8192\ncfl = 0", "[wave] CFL factor must be positive"),
            ("nx = 8192", "nx = 8192\ncfl = -0.5", "[wave] CFL factor must be positive"),
            ("nx = 8192", "nx = 8192\ncfl = nan", "[wave] CFL factor must be positive"),
            ("duration = 6.6", "duration = -1", "[wave] duration must be positive"),
            ("sponge_cells = 300", "sponge_cells = 300\nsponge_strength = -60",
             "[wave] sponge strength must not be negative"),
            ("sponge_cells = 300", "sponge_cells = 300\nsponge_strength = inf",
             "[wave] sponge strength must not be negative or infinite, got inf"),
            # values with no end to trace or no finite grid to solve on
            ("duration = 6.6", "duration = inf", "[wave] duration must be positive and finite"),
            ("nx = 8192", "nx = 8192\nx_hi = inf", "[wave] x_hi must be finite"),
            ("nx = 8192", "nx = 8192\nx_lo = nan", "[wave] x_lo must be finite"),
            ("pulse_center = -2.2", "pulse_center = nan", "[wave] pulse_center must be finite"),
            ("pulse_width = 0.06", "pulse_width = inf",
             "[wave] pulse width must be positive and finite"),
            # a speed profile that divides by zero, stalls the trace or is not a number
            ("core_radius = 1.0", "core_radius = 0",
             "[metric] core_radius must be positive and finite"),
            ("core_radius = 1.0", "core_radius = -1",
             "[metric] core_radius must be positive and finite"),
            ("amp = 0.4", "amp = 0.4\nc_bg = 0", "[metric] c_bg must be positive and finite"),
            ("amp = 0.4", "amp = 0.4\nc_bg = -1", "[metric] c_bg must be positive and finite"),
            ("amp = 0.4", "amp = 0.4\nc_bg = inf", "[metric] c_bg must be positive and finite"),
            ("amp = 0.4", "amp = nan", "[metric] amp must be finite"),
            ("amp = 0.4", "amp = -5", "[metric] amp -5 may drive the speed non-positive"),
            # the background speed is a constant and the verdict is not configurable
            ("core_radius = 1.0", "core_radius = 1.0\nc_smooth = 1.0",
             "unknown key 'c_smooth' in section [metric]"),
            ("[commutant]", "[probe]\noracle = on\n\n[commutant]", "unknown section [probe]"),
            *LOAD_FAULTS.values(),
        ],
        ids=["k2-n3", "n3", "cfl", "sponge", "frame", "alpha", "delta", "policy",
             "store-stride", "seed", "pulse-seed", "nx-0", "nx-negative", "pulse-width",
             "sponge-wider-than-grid", "x-range", "cfl-0", "cfl-negative", "cfl-nan",
             "duration-negative", "sponge-strength-negative", "sponge-strength-inf",
             "duration-inf", "x-hi-inf",
             "x-lo-nan", "pulse-center-nan", "pulse-width-inf", "core-radius-0",
             "core-radius-negative", "c-bg-0", "c-bg-negative", "c-bg-inf", "amp-nan",
             "amp-negative-speed",
             "c-smooth", "probe-section", *LOAD_FAULTS],
    )
    def test_config_fault_exit_2_before_trace(self, tmp_path, capsys, old, new, named):
        cfgf = tmp_path / "fault.ini"
        text = small_config_text(tmp_path / "out")
        assert old in text
        cfgf.write_text(text.replace(old, new))
        assert main(["pipeline", "--config", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize("old, new, named", LOAD_FAULTS.values(), ids=LOAD_FAULTS)
    def test_load_fault_exit_2_on_calc_config(self, tmp_path, capsys, old, new, named):
        cfgf = tmp_path / "fault.ini"
        text = small_config_text(tmp_path / "out")
        assert text.count(old) == 1
        cfgf.write_text(text.replace(old, new))
        assert main(["calc", "--config", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_calc_batch_missing_query_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(["calc", "--batch", str(tmp_path / "nope.txt"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: no query file at %s\n" % (tmp_path / "nope.txt")
        assert not out.exists()

    def test_calc_batch_missing_out_directory_exit_2(self, tmp_path, capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("elliptic_window 5/2 1/4 1\n")
        out = tmp_path / "missing" / "res.csv"
        assert main(["calc", "--batch", str(queries), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: no directory for the results at %s\n" % out
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [["calc"], ["trace"], ["wave", "run"], ["probe"],
                                         ["verify-commutant"], ["pipeline"]],
                             ids=["calc", "trace", "wave-run", "probe", "verify-commutant",
                                  "pipeline"])
    def test_out_dir_that_cannot_be_made_exit_2(self, tmp_path, capsys, command):
        # under a regular file, or the file itself: one line, no traceback
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for out in (afile / "sub", afile):
            cfgf = tmp_path / "smoke.ini"
            cfgf.write_text(small_config_text(out))
            assert main([*command, "--config", str(cfgf)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                "configuration error: [experiment] out_dir %s cannot be made: " % out)
            assert err.count("\n") == 1 and "Traceback" not in err
        assert afile.read_text() == "kept"

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
import os
import sys
from pathlib import Path

import wavediff
import wavediff.cli as cli
from wavediff import wave
from wavediff.config import load_config

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

mode, config, queries, results = sys.argv[1:]
if mode == "inline":
    # the oracle scan and the commutant check run in this process
    wave._cpu_split = lambda: None
else:
    # a forked solve, one CPU for both sides where there is only one
    cpu = [min(os.sched_getaffinity(0))]
    split = wave._cpu_split() or (cpu, cpu)
    wave._cpu_split = lambda: split
code, manifest = cli.run_pipeline(load_config(Path(config)))
assert code == 0, code
assert (manifest["stages"]["wave"]["solver_cpus"] is None) == (mode == "inline")
assert not scipy_modules(), scipy_modules()
# the probe's noise floor takes no np.median, which imports numpy.ma
assert "numpy.ma" not in sys.modules
if mode == "forked":
    # the launch pulse and the commutant check, which draw from
    # numpy.random, ran in the solve's child
    assert "numpy.random" not in sys.modules
assert cli.calc_batch(Path(queries), Path(results)) == 15
assert not scipy_modules(), scipy_modules()
"""


class TestOracleChild:
    """The solve's forked child, which scans the oracle, checks the
    commutant in ``pipeline`` and then runs the kernel, is reaped, and this
    process's CPU mask is restored, however a ``pipeline`` or ``probe`` run
    ends."""

    @pytest.fixture(autouse=True)
    def mask(self, monkeypatch):
        split = usable_split()
        monkeypatch.setattr(wave, "_cpu_split", lambda: split)
        return os.sched_getaffinity(0)

    def assert_reaped(self, mask):
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    def config(self, tmp_path, nx=8192):
        cfgf = tmp_path / "smoke.ini"
        cfgf.write_text(small_config_text(tmp_path / "out").replace("nx = 8192", "nx = %d" % nx))
        return cfgf

    def test_probe_success_matches_an_inline_pipeline(self, tmp_path, monkeypatch, mask):
        cfgf = self.config(tmp_path)
        assert main(["probe", "--config", str(cfgf)]) == 0
        self.assert_reaped(mask)
        out = tmp_path / "out"
        forked = {name: _sha256_file(out / name) for name in ("probe.json", "probe_bands.csv")}
        monkeypatch.setattr(wave, "_cpu_split", lambda: None)
        code, manifest = run_pipeline(load_config(cfgf))
        assert code == 0 and manifest["stages"]["probe"]["outputs"] == forked

    @pytest.mark.parametrize("command", ["pipeline", "probe"])
    def test_plan_refusal_after_the_trace(self, tmp_path, capsys, mask, command):
        assert main([command, "--config", str(self.config(tmp_path, nx=1024))]) == 2
        assert "window too narrow for the grid" in capsys.readouterr().err
        self.assert_reaped(mask)

    @pytest.mark.parametrize("command", ["pipeline", "probe"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_trace_that_raises(self, tmp_path, monkeypatch, mask, command, error):
        def fails(*args):
            raise error("trace failed")

        monkeypatch.setattr(cli, "stage_trace", fails)
        with pytest.raises(error, match="trace failed"):
            main([command, "--config", str(self.config(tmp_path))])
        self.assert_reaped(mask)

    def assert_failed_in_the_wave_stage(self, tmp_path, err, why):
        """One line naming the failed job, the run stopped after the trace,
        and a manifest that says so."""
        assert err == "wavediff: %s\n" % why
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert not (out / "wave.json").exists() and not (out / "commutant.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == {"stage": "wave", "reason": "SolverChildError: " + why}
        assert list(manifest["stages"]) == ["calc", "trace"]

    @pytest.mark.parametrize("split", ["split", "none"])
    def test_failed_scan_is_one_line(self, tmp_path, monkeypatch, capsys, mask, split):
        # on one CPU the stream runs the scan inline, at the same point
        def fails(*args):
            raise ValueError("no scan\nsecond line")

        if split == "none":
            monkeypatch.setattr(wave, "_cpu_split", lambda: None)
        monkeypatch.setattr(cli, "default_oracle_scan", fails)
        assert main(["pipeline", "--config", str(self.config(tmp_path))]) == 3
        where = "'s child process" if split == "split" else ""
        self.assert_failed_in_the_wave_stage(
            tmp_path, capsys.readouterr().err,
            "the oracle scan%s failed: ValueError: no scan" % where)
        self.assert_reaped(mask)

    @pytest.mark.parametrize("split", ["split", "none"])
    @pytest.mark.parametrize("command", ["pipeline", "probe"])
    def test_run_forks_once(self, tmp_path, monkeypatch, mask, command, split):
        # one child scans the oracle, checks the commutant (pipeline) and
        # runs the kernel; no split, no child
        if split == "none":
            monkeypatch.setattr(wave, "_cpu_split", lambda: None)
        fork, forks = os.fork, []

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        cfgf = self.config(tmp_path)
        if command == "pipeline":
            assert run_pipeline(load_config(cfgf))[0] == 0
        else:
            assert main(["probe", "--config", str(cfgf)]) == 0
        assert len(forks) == (1 if split == "split" else 0)
        self.assert_reaped(mask)

    @pytest.mark.parametrize(
        "ending, why, split",
        [("raises", "ValueError: no check", "split"), ("dies", "exit code 4", "split"),
         ("raises", "ValueError: no check", "none")],
        ids=["raises-ValueError: no check", "dies-exit code 4", "raises-ValueError: no check-none"])
    def test_failed_commutant_check_is_one_line(self, tmp_path, monkeypatch, capsys, mask,
                                                ending, why, split):
        # the oracle's outcome arrives whole, then the check's one line, or
        # the end of the pipe from a child that died in the check; the run
        # ends as the wave stage takes them, after the trace.  On one CPU the
        # stream runs both inline at the same point (a check that dies there
        # would end this process, so only the raising one is run)
        def fails(*args, **kwargs):
            if ending == "dies":
                os._exit(4)
            raise ValueError("no check\nsecond line")

        if split == "none":
            monkeypatch.setattr(wave, "_cpu_split", lambda: None)
        monkeypatch.setattr(cli, "run_commutant_check", fails)
        assert main(["pipeline", "--config", str(self.config(tmp_path))]) == 3
        where = "'s child process" if split == "split" else ""
        self.assert_failed_in_the_wave_stage(
            tmp_path, capsys.readouterr().err, "the commutant check%s failed: %s" % (where, why))
        self.assert_reaped(mask)

    def test_failed_run_replaces_a_passing_manifest(self, tmp_path, monkeypatch, capsys, mask):
        # the manifest in the directory is the last run's, and `wavediff
        # report` names the failure
        cfgf = self.config(tmp_path)
        assert main(["pipeline", "--config", str(cfgf)]) == 0
        manifest_path = tmp_path / "out" / "manifest.json"
        assert json.loads(manifest_path.read_text())["verdict"] == "pass"

        def fails(*args, **kwargs):
            raise ValueError("no check")

        monkeypatch.setattr(cli, "run_commutant_check", fails)
        assert main(["pipeline", "--config", str(cfgf)]) == 3
        manifest = json.loads(manifest_path.read_text())
        assert "verdict" not in manifest and manifest["failed"]["stage"] == "wave"
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out")]) == 3
        assert "failed in wave: SolverChildError: the commutant check's child process failed:" \
            " ValueError: no check" in capsys.readouterr().out
        self.assert_reaped(mask)

    def test_probe_runs_no_commutant_check(self, tmp_path, monkeypatch, mask):
        def fails(*args, **kwargs):
            raise AssertionError("probe ran the commutant check")

        monkeypatch.setattr(cli, "run_commutant_check", fails)
        assert main(["probe", "--config", str(self.config(tmp_path))]) == 0
        assert not (tmp_path / "out" / "commutant.json").exists()
        self.assert_reaped(mask)

    def test_verify_commutant_runs_inline(self, tmp_path, monkeypatch, mask, capsys):
        # `wavediff verify-commutant` forks nothing and writes the bytes a
        # forked pipeline's child computed
        cfgf = self.config(tmp_path)
        manifest = run_pipeline(load_config(cfgf))[1]
        assert manifest["stages"]["wave"]["solver_cpus"] is not None
        fork, forks = os.fork, []

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert main(["verify-commutant", "--config", str(cfgf)]) == 0
        assert '"positivity_passed": true' in capsys.readouterr().out
        assert not forks
        assert {"commutant.json": _sha256_file(tmp_path / "out" / "commutant.json")} \
            == manifest["stages"]["verify-commutant"]["outputs"]

    def test_dead_child_is_named(self, tmp_path, monkeypatch, capsys, mask):
        monkeypatch.setattr(cli, "default_oracle_scan", lambda *args: os._exit(3))
        assert main(["probe", "--config", str(self.config(tmp_path))]) == 3
        assert capsys.readouterr().err == (
            "wavediff: the oracle scan's child process failed: exit code 3\n")
        self.assert_reaped(mask)


def test_scipy_stays_off_the_import_path(tmp_path):
    """The package, its CLI, a pipeline run and a calc batch load no scipy
    and no numpy.ma, whether the oracle and the commutant check run inline
    or in the solve's child: scipy is the DOP853 test reference's dependency
    only.  A forked pipeline run leaves numpy.random to the child."""
    cfgf = tmp_path / "smoke.ini"
    cfgf.write_text(small_config_text(tmp_path / "out"))
    queries = tmp_path / "queries.txt"
    queries.write_text(ALL_OPERATIONS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for mode in ("inline", "forked"):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, mode, str(cfgf), str(queries),
             str(tmp_path / "res.csv")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (mode, proc.stderr)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "wavediff", "--version"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "0.1.0"), proc.stderr


def test_benchmark_hooks_resolve_and_are_restored(monkeypatch):
    """The benchmark's traced runs (``perfbench/run.py --trace 1``) patch the
    package's functions by name: each one must still exist, and leaving the
    block must put every patched attribute back."""
    from wavediff import config, escape, helmholtz, metric, orders, probe, tracer

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    homes = [cli, config, escape, helmholtz, metric, orders, probe, tracer, wave,
             ExperimentConfig, metric.ConormalMetric]
    before = [dict(vars(home)) for home in homes]
    with tracing.instrumented(tracing.Tracer()):
        patched = {
            (home.__name__, key)
            for home, saved in zip(homes, before)
            for key, value in vars(home).items()
            if saved.get(key) is not value
        }
    assert {("wavediff.wave", "run"), ("wavediff.helmholtz", "solve_ivp"),
            ("wavediff.cli", "stage_wave"), ("ConormalMetric", "speed")} <= patched
    for home, saved in zip(homes, before):
        now = vars(home)
        assert now.keys() == saved.keys()
        assert [key for key in saved if now[key] is not saved[key]] == [], home.__name__
