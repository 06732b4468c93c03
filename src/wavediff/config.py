"""Experiment configuration: one INI-style file drives every stage.

The admissibility parameters (s0, eps0, s, k) appear exactly once, in the
[metric] and [calc] sections, so the exact-arithmetic gate and the physical
scenario cannot drift apart.  Unknown sections and keys are rejected, as are
negative seeds, duplicate sections and keys, a key before any section, and
an order request the ``orders`` rules refuse (``k``, ``n`` or ``eps0`` out of
range).  There is no [trace] section (the trace always branches both
ways at the interface) and no [probe] section: the background speed is the
constant ``c_bg``, and the verdict's tolerances are ``probe`` constants.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .escape import commutant_setup
from .metric import ConormalMetric
from .orders import OrderError, hyperbolic_window, verify_constraint_chain
from .wave import PulseSpec, SpongeSpec, WaveScenario


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "experiment": {"name", "out_dir", "seed"},
    "metric": {"k", "n", "s0", "amp", "c_bg", "core_radius"},
    "calc": {"eps0", "s"},
    "wave": {
        "x_lo", "x_hi", "duration", "nx", "cfl",
        "pulse_center", "pulse_width", "pulse_s_in", "pulse_seed",
        "sponge_cells", "sponge_strength", "store_stride",
    },
    "commutant": {"frame", "delta", "eps", "beta", "F", "c0", "alpha", "C0", "dim", "grid"},
}


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("%r divides by zero" % text.strip()) from None


@dataclass
class ExperimentConfig:
    name: str
    out_dir: Path
    seed: int
    k: int
    n: int
    s0: Fraction
    amp: float
    c_bg: float
    core_radius: float
    eps0: Fraction
    s: Fraction
    wave: dict
    commutant: dict
    raw_text: str

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]

    def build_metric(self):
        if self.k != 1 or self.n != 2:
            raise ConfigError(
                "the physical stages support only k = 1 and n = 2, got k = %d and n = %d"
                % (self.k, self.n)
            )
        try:
            return ConormalMetric(
                s0=float(self.s0),
                amp=self.amp,
                c_bg=self.c_bg,
                core_radius=self.core_radius,
            )
        except ValueError as err:
            raise ConfigError("[metric] %s" % err) from err

    def build_scenario(self) -> WaveScenario:
        w = self.wave
        metric = self.build_metric()
        source = PulseSpec(
            center=w["pulse_center"],
            width=w["pulse_width"],
            s_in=w["pulse_s_in"],
            seed=int(w["pulse_seed"]),
        )
        try:
            return WaveScenario(
                metric=metric,
                x_lo=w["x_lo"],
                x_hi=w["x_hi"],
                duration=w["duration"],
                nx=int(w["nx"]),
                cfl=w["cfl"],
                source=source,
                sponge=SpongeSpec(cells=int(w["sponge_cells"]), strength=w["sponge_strength"]),
                store_stride=int(w["store_stride"]),
            )
        except ValueError as err:  # CFLViolation and the sponge/source checks
            raise ConfigError("[wave] %s" % err) from err


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("config file %s does not exist" % path)
    text = path.read_text()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: C0 and c0 are different constants
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as err:  # a duplicate section or key, a key before any section
        raise ConfigError(" ".join(str(err).split())) from err

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section [%s]" % section)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))

    def get(section, key, default, cast=str):
        if section in cp and key in cp[section]:
            try:
                return cast(cp[section][key])
            except (ValueError, configparser.Error) as err:  # or a % it cannot interpolate
                raise ConfigError("[%s] %s: %s" % (section, key, err)) from err
        return default

    wave = {
        "x_lo": get("wave", "x_lo", -4.0, float),
        "x_hi": get("wave", "x_hi", 4.0, float),
        "duration": get("wave", "duration", 6.6, float),
        "nx": get("wave", "nx", 2**14, int),
        "cfl": get("wave", "cfl", 0.9, float),
        "pulse_center": get("wave", "pulse_center", -2.2, float),
        "pulse_width": get("wave", "pulse_width", 0.06, float),
        "pulse_s_in": get("wave", "pulse_s_in", -0.5, float),
        "pulse_seed": get("wave", "pulse_seed", 1234, int),
        "sponge_cells": get("wave", "sponge_cells", 600, int),
        "sponge_strength": get("wave", "sponge_strength", 60.0, float),
        "store_stride": get("wave", "store_stride", 16, int),
    }
    commutant = {
        "frame": get("commutant", "frame", "synthetic-hoelder"),
        "delta": get("commutant", "delta", 0.125, float),
        "eps": get("commutant", "eps", None, float),
        "beta": get("commutant", "beta", 1.0, float),
        "F": get("commutant", "F", 8.0, float),
        "c0": get("commutant", "c0", 1.0, float),
        "alpha": get("commutant", "alpha", 0.5, float),
        "C0": get("commutant", "C0", 0.05, float),
        "dim": get("commutant", "dim", 3, int),
        "grid": get("commutant", "grid", 10000, int),
    }
    c = commutant
    try:  # the constructors of the commutant check own the legal ranges
        commutant_setup(c["frame"], c["delta"], c["eps"], c["beta"], c["F"], c["c0"],
                        c["alpha"], c["C0"], c["dim"])
    except ValueError as err:
        raise ConfigError("[commutant] %s" % err) from err
    seed = get("experiment", "seed", 1234, int)
    for section, key, value in (("experiment", "seed", seed),
                                ("wave", "pulse_seed", wave["pulse_seed"])):
        if value < 0:
            raise ConfigError("[%s] %s must be non-negative, got %d" % (section, key, value))
    k, n = get("metric", "k", 1, int), get("metric", "n", 2, int)
    s0 = get("metric", "s0", Fraction(5, 2), _rational)
    eps0 = get("calc", "eps0", Fraction(1, 20), _rational)
    s = get("calc", "s", Fraction(1, 2), _rational)
    try:  # the order rules own the legal ranges: eps0 > 0 and integers n > k >= 1
        hyperbolic_window(s0, eps0, k)
        verify_constraint_chain(s0, eps0, s, k, n)
    except OrderError as err:  # hyperbolic_window checks eps0 before k
        raise ConfigError("[%s] %s" % ("calc" if eps0 <= 0 else "metric", err)) from err
    out_dir = Path(get("experiment", "out_dir", "out"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    return ExperimentConfig(
        name=get("experiment", "name", path.stem),
        out_dir=out_dir,
        seed=seed,
        k=k,
        n=n,
        s0=s0,
        amp=get("metric", "amp", 0.4, float),
        c_bg=get("metric", "c_bg", 1.0, float),
        core_radius=get("metric", "core_radius", 1.0, float),
        eps0=eps0,
        s=s,
        wave=wave,
        commutant=commutant,
        raw_text=text,
    )
