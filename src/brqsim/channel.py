"""Per-slot SNR distributions and the capacity/threshold arithmetic.

All SNRs are linear (never dB) inside the package; dB conversion happens
only at the command-line boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoDensityError, TraceExhaustedError


def capacity(snr: float) -> float:
    """Maximal decodable rate log2(1 + snr) in bits per channel use."""
    if snr < 0:
        raise ValueError(f"SNR must be nonnegative, got {snr}")
    return math.log2(1.0 + snr)


def inv_capacity(rate: float) -> float:
    """Minimal linear SNR that supports `rate`: 2**rate - 1."""
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    return 2.0 ** rate - 1.0


@dataclass(frozen=True)
class Rayleigh:
    """Block-fading SNR with density exp(-snr/mean_snr)/mean_snr."""

    mean_snr: float

    def __post_init__(self) -> None:
        if self.mean_snr <= 0:
            raise ValueError(f"mean SNR must be positive, got {self.mean_snr}")

    def pdf(self, snr: float) -> float:
        if snr < 0:
            raise ValueError(f"SNR must be nonnegative, got {snr}")
        return math.exp(-snr / self.mean_snr) / self.mean_snr

    def decode_prob(self, threshold: float) -> float:
        """P(snr >= threshold), the per-slot decoding probability."""
        if threshold < 0:
            raise ValueError(f"threshold must be nonnegative, got {threshold}")
        return math.exp(-threshold / self.mean_snr)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.exponential(self.mean_snr, size)


@dataclass(frozen=True)
class Deterministic:
    """Constant-SNR channel, mainly for worked examples and edge cases."""

    snr: float

    def __post_init__(self) -> None:
        if self.snr < 0:
            raise ValueError(f"SNR must be nonnegative, got {self.snr}")

    def pdf(self, snr: float) -> float:
        raise NoDensityError("deterministic channel has no density")

    def decode_prob(self, threshold: float) -> float:
        if threshold < 0:
            raise ValueError(f"threshold must be nonnegative, got {threshold}")
        return 1.0 if self.snr >= threshold else 0.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.snr
        return np.full(size, self.snr)


@dataclass(frozen=True)
class EmpiricalTrace:
    """A fixed sequence of SNRs, consumed from the start of each session.

    Used to couple two protocol runs on the same channel realization.
    Batch sampling returns the leading `size` entries; asking for more
    than the trace holds raises TraceExhaustedError.
    """

    snrs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "snrs", tuple(float(s) for s in self.snrs))
        if not all(math.isfinite(s) and s >= 0 for s in self.snrs):
            raise ValueError("trace entries must be finite and nonnegative")
        if not self.snrs:
            raise ValueError("trace must be nonempty")

    def pdf(self, snr: float) -> float:
        raise NoDensityError("empirical trace has no density")

    def decode_prob(self, threshold: float) -> float:
        if threshold < 0:
            raise ValueError(f"threshold must be nonnegative, got {threshold}")
        hits = sum(1 for s in self.snrs if s >= threshold)
        return hits / len(self.snrs)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else size
        if n > len(self.snrs):
            raise TraceExhaustedError(
                f"trace holds {len(self.snrs)} entries, {n} requested"
            )
        if size is None:
            return self.snrs[0]
        return np.asarray(self.snrs[:size], dtype=float)


FadingModel = Rayleigh | Deterministic | EmpiricalTrace

_ACCOUNTING_MODES = ("fluid", "integer")


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters shared by the protocol, analytics and engine.

    `rate` is the fixed codebook rate R in bits per channel use and
    `slot_uses` the channel uses N per slot, so one packet carries
    rate * slot_uses bits.  `feedback_bits` is the per-slot feedback
    budget F; None means full (unquantized) CSIT.  In "integer"
    accounting, parity and new bits are whole bit counts and the bits
    per slot must be a whole number; "fluid" keeps real-valued counts.
    """

    rate: float
    slot_uses: int = 100
    feedback_bits: float | None = None
    block_length: int = 64
    accounting: str = "fluid"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.slot_uses < 1:
            raise ValueError(f"slot_uses must be >= 1, got {self.slot_uses}")
        if self.feedback_bits is not None and self.feedback_bits < 0:
            raise ValueError("feedback_bits must be nonnegative or None")
        if self.block_length < 2:
            raise ValueError(f"block_length must be >= 2, got {self.block_length}")
        if self.accounting not in _ACCOUNTING_MODES:
            raise ValueError(f"accounting must be one of {_ACCOUNTING_MODES}")
        if self.accounting == "integer":
            b = self.rate * self.slot_uses
            if abs(b - round(b)) > 1e-9:
                raise ValueError(
                    f"integer accounting needs a whole number of bits per slot, "
                    f"got rate*slot_uses = {b}"
                )

    @property
    def gamma_r(self) -> float:
        """Decode threshold 2**rate - 1, always recomputed from the rate."""
        return inv_capacity(self.rate)

    @property
    def bits_per_slot(self) -> float:
        b = self.rate * self.slot_uses
        return float(round(b)) if self.accounting == "integer" else b
