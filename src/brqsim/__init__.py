"""Block-fading link simulator and analytic calculator for
backtrack-retransmission HARQ driven by delayed CSIT."""

from .channel import (
    Deterministic,
    EmpiricalTrace,
    FadingModel,
    LinkConfig,
    Rayleigh,
    capacity,
    inv_capacity,
)
from .engine import RunConfig, StatsSummary, run_replicated
from .protocol import SessionLog, run_full_csit, run_quantized

__version__ = "0.1.0"

__all__ = [
    "Deterministic",
    "EmpiricalTrace",
    "FadingModel",
    "LinkConfig",
    "Rayleigh",
    "RunConfig",
    "SessionLog",
    "StatsSummary",
    "capacity",
    "inv_capacity",
    "run_full_csit",
    "run_quantized",
    "run_replicated",
]
