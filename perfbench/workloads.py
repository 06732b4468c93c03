"""The three workloads and their output checks.

Each workload drives the package only through its public functions
(``cli.run_pipeline``, ``cli.calc_batch``, ``config.load_config`` and the
``orders`` functions).  Constructing a workload builds the seeded inputs in
a work directory and loads the seeded scenario; ``run`` does one timed unit
of work and ``check`` inspects its outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

from wavediff import cli, config, orders

import inputs

# stages whose manifest checksums must repeat for one seed; the wave stage's
# field.npz is a zip archive stamped with its write time
DETERMINISTIC_STAGES = ("calc", "trace", "probe", "verify-commutant")
PROBE_TOL = 0.25
FLUX_DEFECT_MAX = 1e-7


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty when correct)


def check_pipeline(out_dir: Path, code: int) -> list:
    out_dir = Path(out_dir)
    fails = []
    if code != 0:
        fails.append("pipeline exit code %d" % code)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        probe = json.loads((out_dir / "probe.json").read_text())
    except (OSError, ValueError) as err:
        return fails + ["pipeline outputs unreadable: %s" % err]
    if manifest.get("verdict") != "pass" or probe.get("verdict") != "pass":
        fails.append("verdict manifest=%r probe=%r" % (manifest.get("verdict"), probe.get("verdict")))
    for key in ("oracle_mismatch", "gain_transmitted"):
        value = probe.get(key)
        if not isinstance(value, (int, float)) or not abs(value) <= PROBE_TOL:
            fails.append("|%s| = %r exceeds %g" % (key, value, PROBE_TOL))
    stages = manifest.get("stages", {})
    for stage in DETERMINISTIC_STAGES:
        if stage not in stages:
            fails.append("manifest lacks stage %r" % stage)
    return fails


def pipeline_checksums(out_dir: Path) -> dict:
    stages = json.loads((Path(out_dir) / "manifest.json").read_text())["stages"]
    return {s: stages[s]["outputs"] for s in DETERMINISTIC_STAGES if s in stages}


def chain_failures(sample, check_identities: bool) -> list:
    """Run one criterion-1 sample through the order calculus; list every
    implication that does not hold."""
    k, n, s0, eps0, s = sample
    F, Side, PairOrder = Fraction, orders.Side, orders.PairOrder
    fails = []

    def need(ok, what):
        if not ok:
            fails.append(what)

    win = orders.hyperbolic_window(s0, eps0, k)
    need(win.admissible and win.theorem.contains(s), "sample outside the admissible window")
    rep = orders.verify_constraint_chain(s0, eps0, s, k, n)
    need(rep.all_prelim and rep.all_reduced and rep.all_reduction, "constraint chain")
    need(rep.prelim_matches_reduced, "prelim == reduced")
    need(rep.reduced_implies_reduction and rep.second_automatic, "reduced => reduction")

    m_level = s - eps0
    dec = orders.mult_decompose(s0, 2 * s - 1, k, n)
    diag, con = dec.paired[0].order, dec.paired[1].order
    one = orders.embed_lambda0(1, k)
    good_diag = orders.compose_au(one, diag)
    raw_bad = orders.compose_au(one, good_diag)
    e_term = PairOrder(raw_bad.p - 1, raw_bad.l + 1, k)
    if check_identities:
        need(good_diag == PairOrder(2 * s, -s0 + F(k, 2), k), "good_diag identity")
        need(e_term == PairOrder(2 * s, -s0 + 1 + F(k, 2), k), "e_term identity")
    for term in (good_diag, e_term):
        emb = PairOrder(term.p + term.l - F(n, 2), F(n, 2), k)
        for side in (Side.LEFT, Side.RIGHT):
            need(orders.bounded_one_sided(emb, n, m_level, m_level, side), "flow-out content bounded")

    f_good = orders.psdo_shift(con, 1, Side.LEFT)
    f_bad = orders.psdo_shift(f_good, 1, Side.RIGHT)
    if check_identities:
        need(f_bad == PairOrder(-s0 + 1 - F(n - k, 2), 2 * s + F(n, 2), k), "f_bad identity")
    for term in (f_good, f_bad):
        for side in (Side.LEFT, Side.RIGHT):
            need(orders.bounded_one_sided(term, n, m_level, m_level, side), "one-sided term bounded")

    dec0 = orders.mult_decompose(s0, 0, k, n)
    diag0, con0 = dec0.paired[0].order, dec0.paired[1].order
    need(orders.bounded_diag_flowout(diag0, s - 1, s - 1), "divergence form: diagonal term")
    emb0 = PairOrder(diag0.p + diag0.l - F(n, 2), F(n, 2), k)
    for term in (con0, emb0):
        for side in (Side.LEFT, Side.RIGHT):
            need(orders.bounded_one_sided(term, n, -(s - 1), s - 1, side), "divergence form: one-sided")
    return fails


def check_calc(csv_path: Path, queries_text: str, planted: list) -> list:
    """Row count, echoed queries and exactly the planted ``error`` rows."""
    fails = []
    queries = queries_text.splitlines()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    if header != ["query_id", "operation", "inputs", "result", "witness_inequalities"]:
        fails.append("unexpected CSV header %r" % header)
    if len(rows) != len(queries):
        return fails + ["%d rows for %d queries" % (len(rows), len(queries))]
    errors = []
    for i, (row, query) in enumerate(zip(rows, queries)):
        op, _, args = query.partition(" ")
        if row[:3] != [str(i + 1), op, args]:
            fails.append("row %d does not echo its query" % (i + 1))
        if row[3] == "error":
            errors.append(i + 1)
    if errors != sorted(planted):
        unexpected = sorted(set(errors) - set(planted))
        missing = sorted(set(planted) - set(errors))
        fails.append("error rows differ from the planted rejections: unexpected %s, missing %s"
                     % (unexpected[:5], missing[:5]))
    return fails


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs in ``workdir`` plus the loaded scenario config.

    ``items`` is the work in one unit (pipeline runs, chain samples or
    queries) and ``calibration`` the kind of ``calib`` chunk that resembles
    it.  ``check(run())`` returns ``(failures, fingerprint)``, where the
    fingerprint must repeat for every unit of one seed.
    """

    items = 1
    calibration = "interpreter"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        ini = self.workdir / "scenario.ini"
        ini.write_text(inputs.scenario_ini(Path(inputs.BUNDLED_INI).read_text(), seed))
        self.cfg = config.load_config(ini)
        self.cfg.build_metric()
        self.cfg.build_scenario()


class Pipeline(Workload):
    calibration = "mixed"

    def run(self):
        code, _ = cli.run_pipeline(self.cfg)
        return code

    def check(self, code):
        out = self.cfg.out_dir
        fails = check_pipeline(out, code)
        sums = pipeline_checksums(out) if (out / "manifest.json").exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return fails, sums


class OrdersChain(Workload):
    items = inputs.CHAIN_SAMPLES

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        path = self.workdir / "chain.txt"
        path.write_text(inputs.chain_text(inputs.chain_samples(seed)))
        self.samples = inputs.parse_chain(path.read_text())

    def run(self):
        # implications are asserted inline, as criterion 1 does, so they are
        # part of the timed work
        bad = 0
        for i, sample in enumerate(self.samples):
            if chain_failures(sample, check_identities=i < 100):
                bad += 1
        return bad

    def check(self, bad):
        fails = ["%d of %d samples break an implication" % (bad, len(self.samples))] if bad else []
        return fails, None


class CalcBatch(Workload):
    items = inputs.CALC_QUERIES

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.queries_text, self.planted = inputs.calc_queries(seed)
        self.queries = self.workdir / "queries.txt"
        self.queries.write_text(self.queries_text)
        self.out = self.workdir / "results.csv"

    def run(self):
        return cli.calc_batch(self.queries, self.out)

    def check(self, n):
        fails = check_calc(self.out, self.queries_text, self.planted)
        if n != inputs.CALC_QUERIES:
            fails.append("calc_batch reported %d rows" % n)
        return fails, sha256_file(self.out)


CLASSES = {"pipeline": Pipeline, "orders-chain": OrdersChain, "calc-batch": CalcBatch}
