"""Finite-feedback CSIT encoding for one block of slots.

The receiver reports two messages inside a hard floor(L*F)-bit budget:
which of the L slots decoded (success mask, enumeratively coded) and a
uniform cell index for each failed slot's SNR.  The transmitter treats
cell k as the lower edge k*d, a guaranteed lower bound on the true SNR,
so the parity it sizes from it can never fall short.

Bit layout (big-endian within each field, fields in order):
success-count, pattern-index, cell-indices ascending by slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytics import binary_entropy
from .errors import (
    BudgetExceededError,
    FeedbackDecodeError,
    InsufficientFeedbackError,
)


def _bits_for(count: int) -> int:
    """ceil(log2(count)) for count >= 1."""
    return (count - 1).bit_length()


def _bit_budget(feedback_bits: float, block_length: int) -> int:
    return math.floor(block_length * feedback_bits + 1e-9)


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform scalar quantizer over [0, gamma_r) with cells of width `cell_width`."""

    feedback_bits: float
    block_length: int
    gamma_r: float
    cell_width: float

    def __post_init__(self) -> None:
        if self.feedback_bits < 0:
            raise ValueError("feedback_bits must be nonnegative")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.gamma_r <= 0:
            raise ValueError("gamma_r must be positive")
        if self.cell_width <= 0:
            raise ValueError("cell_width must be positive")
        if self.cell_count * self.cell_width < self.gamma_r * (1.0 - 1e-12):
            raise ValueError("cells do not cover [0, gamma_r)")

    @property
    def cell_count(self) -> int:
        """Number of cells K = ceil(gamma_r / cell_width)."""
        return max(1, math.ceil(self.gamma_r / self.cell_width - 1e-9))

    @property
    def bit_budget(self) -> int:
        return _bit_budget(self.feedback_bits, self.block_length)


@dataclass(frozen=True)
class FeedbackBlock:
    """One encoded block report: mask, cell indices and the bit string."""

    success_mask: tuple[bool, ...]
    cell_indices: tuple[int, ...]
    bits: str


def effective_snr(snr_hat: float, distortion: float) -> float:
    """Safe transmit-side SNR (snr_hat - distortion)^+."""
    if snr_hat < 0 or distortion < 0:
        raise ValueError("snr_hat and distortion must be nonnegative")
    return max(snr_hat - distortion, 0.0)


def quantize_snr(snr: float, config: QuantizerConfig) -> int:
    """Cell index floor(snr / cell_width) for an outage-slot SNR.

    The reported representative is the cell's upper edge, so the
    transmitter's lower bound (representative - cell_width) never
    exceeds the true SNR.
    """
    if not 0.0 <= snr < config.gamma_r:
        raise ValueError(
            f"only outage SNRs in [0, {config.gamma_r}) are quantized, got {snr}"
        )
    cell = int(snr / config.cell_width)
    # fp guard at the top edge when cell_count * cell_width == gamma_r
    return min(cell, config.cell_count - 1)


def representative(cell: int, config: QuantizerConfig) -> float:
    """Reported SNR value for a cell: its upper edge (cell + 1) * d."""
    if not 0 <= cell < config.cell_count:
        raise ValueError(f"cell {cell} out of range [0, {config.cell_count})")
    return (cell + 1) * config.cell_width


def _rank_combination(positions: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a sorted position tuple among all k-subsets."""
    rank = 0
    k = len(positions)
    prev = -1
    for i, p in enumerate(positions):
        for q in range(prev + 1, p):
            rank += math.comb(n - q - 1, k - i - 1)
        prev = p
    return rank


def _unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    q = 0
    for i in range(k):
        while True:
            c = math.comb(n - q - 1, k - i - 1)
            if rank < c:
                out.append(q)
                q += 1
                break
            rank -= c
            q += 1
    return tuple(out)


def encode_feedback_block(snrs, config: QuantizerConfig) -> FeedbackBlock:
    """Encode one block's SNRs into a mask + cell-index bit string.

    Raises BudgetExceededError when the realized encoding does not fit
    floor(L*F) bits; the caller must then enlarge the cell width.
    """
    snrs = [float(s) for s in snrs]
    n = config.block_length
    if len(snrs) != n:
        raise ValueError(f"expected {n} SNRs, got {len(snrs)}")
    mask = tuple(s >= config.gamma_r for s in snrs)
    successes = tuple(i for i, ok in enumerate(mask) if ok)
    k = len(successes)

    parts = [format(k, f"0{_bits_for(n + 1)}b")]
    pattern_bits = _bits_for(math.comb(n, k))
    if pattern_bits:
        parts.append(format(_rank_combination(successes, n), f"0{pattern_bits}b"))
    cell_bits = _bits_for(config.cell_count)
    cells = []
    for i, s in enumerate(snrs):
        if mask[i]:
            continue
        cell = quantize_snr(s, config)
        cells.append(cell)
        if cell_bits:
            parts.append(format(cell, f"0{cell_bits}b"))
    bits = "".join(parts)
    check_budget(len(bits), config)
    return FeedbackBlock(success_mask=mask, cell_indices=tuple(cells), bits=bits)


def decode_feedback_block(block, config: QuantizerConfig) -> tuple[float | None, ...]:
    """Recover per-slot feedback from a block: None for an ack, else the
    reported SNR representative for a failed slot."""
    bits = block.bits if isinstance(block, FeedbackBlock) else block
    if not isinstance(bits, str) or any(c not in "01" for c in bits):
        raise FeedbackDecodeError("feedback bits must be a string of 0/1")
    n = config.block_length
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        if pos + width > len(bits):
            raise FeedbackDecodeError(
                f"bit string truncated: wanted {width} bits at offset {pos}, "
                f"have {len(bits)}"
            )
        value = int(bits[pos : pos + width], 2) if width else 0
        pos += width
        return value

    k = take(_bits_for(n + 1))
    if k > n:
        raise FeedbackDecodeError(f"success count {k} exceeds block length {n}")
    total = math.comb(n, k)
    rank = take(_bits_for(total))
    if rank >= total:
        raise FeedbackDecodeError(f"pattern index {rank} out of range for C({n},{k})")
    successes = set(_unrank_combination(rank, n, k))

    cell_bits = _bits_for(config.cell_count)
    out: list[float | None] = []
    for i in range(n):
        if i in successes:
            out.append(None)
            continue
        cell = take(cell_bits)
        if cell >= config.cell_count:
            raise FeedbackDecodeError(
                f"cell index {cell} out of range [0, {config.cell_count})"
            )
        out.append(representative(cell, config))
    if pos != len(bits):
        raise FeedbackDecodeError(f"{len(bits) - pos} trailing bits left undecoded")
    return tuple(out)


def block_bits(block_length: int, cell_count: int) -> list[int]:
    """Encoded length of a block with k successes, for k = 0..L.

    The count field, the pattern index among the C(L, k) masks and one
    cell index per failed slot: ceil(log2(L+1)) + ceil(log2 C(L,k))
    + (L-k) * ceil(log2 K) bits.
    """
    count, cell = _bits_for(block_length + 1), _bits_for(cell_count)
    return [
        count + _bits_for(math.comb(block_length, k)) + (block_length - k) * cell
        for k in range(block_length + 1)
    ]


def check_budget(bits: int, config: QuantizerConfig) -> None:
    """Raise BudgetExceededError if a `bits`-long block report overflows floor(L*F)."""
    if bits > config.bit_budget:
        raise BudgetExceededError(
            f"block encodes to {bits} bits, budget is {config.bit_budget}"
        )


def plan_cell_width(
    feedback_bits: float, block_length: int, p_r: float, gamma_r: float
) -> float:
    """Smallest cell width gamma_r / K (K a power of two) whose all-failed
    block encoding fits floor(L*F) bits."""
    h = binary_entropy(p_r)
    if feedback_bits <= h:
        raise InsufficientFeedbackError(
            f"feedback budget {feedback_bits} does not exceed mask cost {h:.4f}"
        )
    if gamma_r <= 0:
        raise ValueError("gamma_r must be positive")
    budget = _bit_budget(feedback_bits, block_length)
    single = block_bits(block_length, 1)[0]  # k = 0: the all-failed block
    if single > budget:
        raise InsufficientFeedbackError(
            f"even a single cell needs {single} bits, budget is {budget}"
        )
    k = 1
    while block_bits(block_length, 2 * k)[0] <= budget:
        k *= 2
    return gamma_r / k


def planned_config(
    feedback_bits: float, block_length: int, p_r: float, gamma_r: float
) -> QuantizerConfig:
    """Convenience: plan the cell width and build the matching config."""
    d = plan_cell_width(feedback_bits, block_length, p_r, gamma_r)
    return QuantizerConfig(
        feedback_bits=feedback_bits,
        block_length=block_length,
        gamma_r=gamma_r,
        cell_width=d,
    )
