"""Seeded input generators for the three workloads.

Everything here is pure standard library and depends only on the seed (and,
for the scenario, on the bundled INI text), so the same seed gives
byte-identical inputs.  The package under test never sees the seed itself.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

BUNDLED_INI = "src/wavediff/scenarios/reflection-gain-s0-2.5.ini"

# criterion-1 samples per timed unit of the orders-chain workload
CHAIN_SAMPLES = 1000
# queries per timed unit of the calc-batch workload
CALC_QUERIES = 10000

CALC_OPS = (
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

_DENOMS = (1, 2, 3, 4, 6, 8, 12, 16)


def seed_value(seed: int) -> int:
    """Map any integer seed onto the non-negative range numpy and scipy accept."""
    return seed % 2**32


def scenario_ini(bundled_text: str, seed: int) -> str:
    """The bundled scenario with the seed applied and ``out_dir = out``.

    ``out_dir`` is relative, so the pipeline writes next to the INI copy.
    """
    value = seed_value(seed)
    text = bundled_text
    for key, repl in (
        ("seed", "seed = %d" % value),
        ("pulse_seed", "pulse_seed = %d" % value),
        ("out_dir", "out_dir = out"),
    ):
        text, count = re.subn(r"(?m)^%s\s*=.*$" % key, repl, text)
        if count != 1:
            raise ValueError("bundled scenario must set %r exactly once" % key)
    return text


def chain_samples(seed: int, count: int = CHAIN_SAMPLES) -> list:
    """Draw ``(k, n, s0, eps0, s)`` from the criterion-1 distribution.

    ``s`` lies strictly inside the theorem window ``(-k/2, s0 - eps0 - 1 - k/2)``
    of an admissible ``(s0, eps0, k)``, so every implication must hold.
    """
    rng = random.Random(seed_value(seed))
    n_choices = {1: (2, 3, 4), 2: (3, 4), 3: (4,)}
    out = []
    for _ in range(count):
        k = rng.choice((1, 2, 3))
        n = rng.choice(n_choices[k])
        s0 = Fraction(k + 1) + Fraction(rng.randrange(1, 128), 64)
        eps0 = (s0 - k - 1) / 2 * Fraction(rng.randrange(1, 32), 32)
        lo, hi = Fraction(-k, 2), s0 - eps0 - 1 - Fraction(k, 2)
        s = lo + (hi - lo) * Fraction(rng.randrange(1, 64), 64)
        out.append((k, n, s0, eps0, s))
    return out


def chain_text(samples: list) -> str:
    return "".join("%d %d %s %s %s\n" % row for row in samples)


def parse_chain(text: str) -> list:
    rows = []
    for line in text.splitlines():
        k, n, s0, eps0, s = line.split()
        rows.append((int(k), int(n), Fraction(s0), Fraction(eps0), Fraction(s)))
    return rows


def _q(rng) -> Fraction:
    return Fraction(rng.randint(-64, 64), rng.choice(_DENOMS))


def _pos(rng) -> Fraction:
    return Fraction(rng.randint(1, 64), rng.choice(_DENOMS))


def _pair(rng, k, l=None) -> list:
    return [_q(rng), _q(rng) if l is None else l, k]


def calc_queries(seed: int, count: int = CALC_QUERIES) -> tuple[str, list]:
    """A query file mixing all 15 operations, and the ids of planted rejections.

    Half of the ``compose_flowout`` queries have ``l + l' >= 0`` (a quarter of
    those exactly 0) and must come back as ``error``; a third of the
    ``reverse_pair`` queries sit on the ``l = -k/2`` boundary.  No other query
    can fail: codimensions match, ``eps`` and ``eps0`` are positive and
    ``n > k``.  Query ids are line numbers, as ``calc --batch`` reports them.
    """
    rng = random.Random(seed_value(seed))
    lines, planted = [], []
    for i in range(count):
        op = CALC_OPS[i % len(CALC_OPS)] if i < len(CALC_OPS) else rng.choice(CALC_OPS)
        k = rng.randint(1, 3)
        if op in ("include_filter", "compose_au"):
            args = _pair(rng, k) + _pair(rng, k)
        elif op == "compose_flowout":
            a = _pair(rng, k)
            if rng.random() < 0.5:
                total = Fraction(0) if rng.random() < 0.25 else _pos(rng)
                planted.append(i + 1)
            else:
                total = -_pos(rng)
            args = a + _pair(rng, k, total - a[1])
        elif op == "embed_lambda0":
            args = [_q(rng), k]
        elif op == "reverse_pair":
            l = Fraction(-k, 2) if rng.random() < 1 / 3 else None
            args = _pair(rng, k, l) + [_pos(rng)]
        elif op in ("bounded_gu", "bounded_diag_flowout"):
            args = _pair(rng, k) + [_q(rng), _q(rng)]
        elif op == "bounded_one_sided":
            args = _pair(rng, k) + [rng.randint(k + 1, 6), _q(rng), _q(rng),
                                    rng.choice(("left", "right"))]
        elif op == "psdo_shift":
            args = _pair(rng, k) + [_q(rng), rng.choice(("left", "right"))]
        elif op == "mult_decompose":
            args = [_pos(rng), _q(rng), k, rng.randint(k + 1, 6)]
        elif op == "mult_bounded_range":
            args = [_pos(rng), k]
        elif op in ("elliptic_window", "hyperbolic_window"):
            args = [_pos(rng), _pos(rng) / 16, k]
        elif op == "verify_constraint_chain":
            args = [_pos(rng), _pos(rng) / 16, _q(rng), k, rng.randint(k + 1, 6)]
        else:  # bootstrap_schedule
            args = [_q(rng), _pos(rng) / 16]
        lines.append(" ".join([op] + [str(a) for a in args]) + "\n")
    return "".join(lines), planted
