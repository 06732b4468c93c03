"""Tests of the benchmark itself: seeded inputs, output checks, failure
counting, tracing, and agreement of BENCHMARK.json with the traced output.

The file name keeps these tests out of a plain ``pytest`` run of the
repository, so the package's own suite (with its wall-clock gates) runs as it
does without the benchmark.  Run them by naming the file:

    python3 -m pytest -q perfbench/tests/check_benchmark.py
"""

import csv
import json
import os
import re
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "perfbench"
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wavediff import cli, config, orders  # noqa: E402


@pytest.fixture
def at_repo(monkeypatch):
    monkeypatch.chdir(REPO)


def bundled_text():
    return (REPO / inputs.BUNDLED_INI).read_text()


# ---------------------------------------------------------------------------
# seeded inputs


def test_generators_are_deterministic_per_seed():
    for seed in (0, 7, 2**40 + 3):
        assert inputs.scenario_ini(bundled_text(), seed) == inputs.scenario_ini(bundled_text(), seed)
        assert inputs.chain_text(inputs.chain_samples(seed)) == inputs.chain_text(
            inputs.chain_samples(seed))
        assert inputs.calc_queries(seed) == inputs.calc_queries(seed)
    assert inputs.chain_samples(1) != inputs.chain_samples(2)
    assert inputs.calc_queries(1)[0] != inputs.calc_queries(2)[0]
    assert inputs.scenario_ini(bundled_text(), 1) != inputs.scenario_ini(bundled_text(), 2)


def test_scenario_copy_applies_the_seed_only(tmp_path):
    text = inputs.scenario_ini(bundled_text(), 42)
    ini = tmp_path / "s.ini"
    ini.write_text(text)
    cfg = config.load_config(ini)
    assert cfg.seed == 42 and cfg.wave["pulse_seed"] == 42
    assert cfg.out_dir == tmp_path / "out"
    base = config.load_config(REPO / inputs.BUNDLED_INI)
    assert cfg.wave | {"pulse_seed": 0} == base.wave | {"pulse_seed": 0}


def test_chain_samples_round_trip_through_text():
    samples = inputs.chain_samples(5, count=200)
    assert inputs.parse_chain(inputs.chain_text(samples)) == samples


def test_calc_queries_cover_every_operation_and_plant_cases():
    text, planted = inputs.calc_queries(3, count=600)
    lines = text.splitlines()
    assert {line.split()[0] for line in lines} == set(inputs.CALC_OPS)
    assert planted
    flowout = [i + 1 for i, line in enumerate(lines) if line.startswith("compose_flowout ")]
    assert set(planted) < set(flowout)
    for qid in flowout:
        a_l, b_l = (Fraction(x) for x in lines[qid - 1].split()[2::3][:2])
        assert (a_l + b_l >= 0) == (qid in planted)
    boundary = [line for line in lines if line.startswith("reverse_pair ")
                and Fraction(line.split()[2]) == Fraction(-int(line.split()[3]), 2)]
    assert boundary


# ---------------------------------------------------------------------------
# output checks: a corrupted output is a failure


def fake_pipeline_out(out, verdict="pass", mismatch=0.05):
    out.mkdir()
    stages = {s: {"seconds": 0.1, "outputs": {"x": "0"}} for s in workloads.DETERMINISTIC_STAGES}
    (out / "manifest.json").write_text(json.dumps({"verdict": "pass", "stages": stages}))
    (out / "probe.json").write_text(json.dumps(
        {"verdict": verdict, "oracle_mismatch": mismatch, "gain_transmitted": 0.01}))
    return out


def test_flipped_probe_verdict_fails(tmp_path):
    assert workloads.check_pipeline(fake_pipeline_out(tmp_path / "ok"), 0) == []
    assert workloads.check_pipeline(fake_pipeline_out(tmp_path / "flip", verdict="fail"), 0)
    assert workloads.check_pipeline(fake_pipeline_out(tmp_path / "far", mismatch=0.3), 0)
    assert workloads.check_pipeline(fake_pipeline_out(tmp_path / "code"), 1)


def test_failing_chain_sample_is_reported():
    for sample in inputs.chain_samples(9, count=50):
        assert workloads.chain_failures(sample, check_identities=True) == []
    k, n, s0, eps0, s = inputs.chain_samples(9, count=1)[0]
    hi = s0 - eps0 - 1 - Fraction(k, 2)
    assert workloads.chain_failures((k, n, s0, eps0, hi + 1), check_identities=True)


def edit_row(path, qid, result):
    """Overwrite the result of query ``qid`` (row ``qid``, after the header)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[qid][3] = result
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_edited_csv_rows_fail(tmp_path):
    text, planted = inputs.calc_queries(11, count=300)
    queries, out = tmp_path / "q.txt", tmp_path / "r.csv"
    queries.write_text(text)
    cli.calc_batch(queries, out)
    assert workloads.check_calc(out, text, planted) == []
    edit_row(out, planted[0], "(0, 0; k=1)")
    assert workloads.check_calc(out, text, planted)


def test_edited_csv_between_units_fails(tmp_path, at_repo):
    w = workloads.CalcBatch(4, tmp_path / "w")
    real_run = w.run

    def run_then_edit():
        n = real_run()
        if len(result["units"]) == 1:  # corrupt the second unit's output
            row = next(i for i in range(1, n + 1) if i not in w.planted)
            edit_row(w.out, row, "edited")
        return n

    w.run = run_then_edit
    result = {"units": [], "fingerprint": None}
    worker.run_units(w, Namespace(max_units=3, seconds=1e9), result, [0.03])
    assert [bool(u["fails"]) for u in result["units"]] == [False, True, False]


def test_tally_counts_crashes_failures_and_mismatches():
    r = run.Run("calc-batch", 1, 1.0)
    good = {"units": [{"fails": []}, {"fails": []}], "fingerprint": "a"}
    r.results = [good, None, {"units": [{"fails": ["bad"]}, {"fails": []}], "fingerprint": "a"},
                 {"units": [{"fails": []}], "fingerprint": "b"}]
    assert r.tally() == (6, 3)


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_children():
    spans = [("a", 0, 100, -1), ("b", 10, 30, 0), ("c", 40, 90, 0), ("d", 50, 60, 2)]
    totals = tracing.span_totals(spans)
    assert totals["a"][2] == pytest.approx(30e-9)
    assert totals["c"][2] == pytest.approx(40e-9)
    assert totals["d"][:2] == [1, pytest.approx(10e-9)]


def test_instrumentation_is_removed_afterwards():
    before = (cli.gbb_trace, cli.wave_run, orders.compose_au, cli.compose_au,
              config.ExperimentConfig.build_metric)
    with tracing.instrumented(tracing.Tracer()):
        assert cli.compose_au is orders.compose_au is not before[2]
    assert (cli.gbb_trace, cli.wave_run, orders.compose_au, cli.compose_au,
            config.ExperimentConfig.build_metric) == before


def test_traced_small_pipeline_measures_every_layer(tmp_path):
    text = re.sub(r"(?m)^nx = .*$", "nx = 8192", inputs.scenario_ini(bundled_text(), 3))
    (tmp_path / "s.ini").write_text(text)
    t = tracing.Tracer()
    with tracing.instrumented(t):
        cfg = config.load_config(tmp_path / "s.ini")
        mark, counters = len(t.spans), dict(t.counters)
        code, _ = cli.run_pipeline(cfg)
    assert workloads.check_pipeline(cfg.out_dir, code) == []
    m = tracing.layer_metrics(t, mark, counters, 1, 0.5)
    for name in ("cli.stage.trace.s", "cli.stage.wave.s", "cli.stage.probe.s",
                 "cli.stage_wave.self_s", "cli.artifact_mb_per_s", "tracer.rk4_steps_per_s",
                 "metric.hamilton_field.calls", "helmholtz.omegas_per_s", "helmholtz.rhs_evals",
                 "metric.speed.points_per_call", "wave.cell_updates_per_s", "wave.field_bytes",
                 "probe.ffts_per_s", "probe.gain_report.self_s", "escape.samples",
                 "orders.calls.hyperbolic_window", "config.load_config.s"):
        assert m[name] > 0, name
    assert m["probe.decay_fit.calls"] == 4 and m["tracer.paths"] == 2
    assert 0 < m["helmholtz.flux_defect_max"] < workloads.FLUX_DEFECT_MAX
    assert m["orders.calls.compose_au"] == 0


# ---------------------------------------------------------------------------
# BENCHMARK.json against the traced output


def test_benchmark_json_matches_the_tracer_and_the_layer_map():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    layer_map = json.loads((BENCH / "record.json").read_text())["layer_map"]
    assert set(layer_map) == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, moves in layer_map.items():
        for entry in moves:
            assert entry["metric"] in e2e and entry["workload"] in run.WORKLOADS, name


def test_every_per_layer_name_appears_in_a_traced_run():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "calc-batch", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 2
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert last["metrics"]["cli.rows"]["value"] == inputs.CALC_QUERIES
    assert last["metrics"]["cli.error_rows"]["value"] > 0


def test_missing_source_exits_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "orders-chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
