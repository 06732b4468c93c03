"""Desk-scale laboratory for wave reflection from conormal sound-speed
singularities: exact order bookkeeping, escape-function commutants,
bicharacteristic tracing in low-regularity media, a 1+1D wave solver, and a
Fourier-decay regularity probe."""

__version__ = "0.1.0"

from .orders import (  # noqa: F401
    PairOrder,
    RegularityWindow,
    Side,
    bounded_diag_flowout,
    bounded_gu,
    bounded_one_sided,
    bootstrap_schedule,
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
from .metric import ConormalMetric, PhasePoint, PiecewiseSpeed  # noqa: F401
from .tracer import dyadic_construct, gbb_trace, transversal_integrate  # noqa: F401
from .wave import PulseSpec, SpongeSpec, WaveScenario, make_pulse  # noqa: F401
from .probe import decay_fit, gain_report, window_plan  # noqa: F401
from .helmholtz import reflection_scan  # noqa: F401
