"""Finite-feedback CSIT encoding for one block of slots.

The receiver reports two messages inside a hard floor(L*F)-bit budget:
which of the L slots decoded (success mask, enumeratively coded) and a
uniform cell index for each failed slot's SNR.  The transmitter treats
cell c as its lower edge c*d, computed so that it never exceeds the true
SNR, so the parity it sizes from it can never fall short.

Bit layout (big-endian within each field, fields in order):
success-count, pattern-index, cell-indices ascending by slot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import check_feedback_bits
from .errors import (
    BudgetExceededError,
    FeedbackDecodeError,
    InsufficientFeedbackError,
)


# Cells narrower than gamma_r / 2**52 are below float64 resolution and
# carry no information; the cap also keeps cell indices inside int64.
MAX_CELL_COUNT = 2**52


def _bits_for(count: int) -> int:
    """ceil(log2(count)) for count >= 1."""
    return (count - 1).bit_length()


def _bit_budget(feedback_bits: float, block_length: int) -> int:
    return math.floor(block_length * check_feedback_bits(feedback_bits) + 1e-9)


@functools.cache
def _pattern_bits(block_length: int) -> tuple[int, ...]:
    """ceil(log2 C(L, k)) for k = 0..L, cached: planning tries many cell counts.

    The row is built in one pass by the exact recurrence C(L, k+1) =
    C(L, k) (L - k) / (k + 1); the codec takes single values from
    `math.comb`.  Both give C(L, k).
    """
    row, comb = [], 1
    for k in range(block_length + 1):
        row.append(_bits_for(comb))
        comb = comb * (block_length - k) // (k + 1)
    return tuple(row)


def block_bits(block_length: int, cell_count: int) -> list[int]:
    """Encoded length of a block with k successes, for k = 0..L.

    The count field, the pattern index among the C(L, k) masks and one
    cell index per failed slot: ceil(log2(L+1)) + ceil(log2 C(L,k))
    + (L-k) * ceil(log2 K) bits.
    """
    count, cell = _bits_for(block_length + 1), _bits_for(cell_count)
    return [count + pattern + (block_length - k) * cell
            for k, pattern in enumerate(_pattern_bits(block_length))]


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform scalar quantizer over [0, gamma_r) with `cell_count` cells.

    A config is valid only if every block, whatever its success count,
    encodes within floor(L*F) bits, so no report can overflow at run time.
    """

    feedback_bits: float
    block_length: int
    gamma_r: float
    cell_count: int

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.gamma_r <= 0:
            raise ValueError("gamma_r must be positive")
        if not 1 <= self.cell_count <= MAX_CELL_COUNT:
            raise ValueError(
                f"cell_count must lie in [1, {MAX_CELL_COUNT}], got {self.cell_count}"
            )
        worst = max(block_bits(self.block_length, self.cell_count))
        if worst > self.bit_budget:
            raise BudgetExceededError(
                f"worst block encodes to {worst} bits, budget is {self.bit_budget}"
            )

    @property
    def cell_width(self) -> float:
        """Cell width d = gamma_r / K."""
        return self.gamma_r / self.cell_count

    @property
    def bit_budget(self) -> int:
        return _bit_budget(self.feedback_bits, self.block_length)


@dataclass(frozen=True)
class FeedbackBlock:
    """One encoded block report: mask, cell indices and the bit string."""

    success_mask: tuple[bool, ...]
    cell_indices: tuple[int, ...]
    bits: str


def cells(snrs, config: QuantizerConfig) -> np.ndarray:
    """Cell index of each SNR: the largest c < K with c * d <= snr.

    The quotient snr / d rounds, so its floor is corrected by at most one
    cell either way against the float64 product c * d itself.  SNRs above
    gamma_r take the top cell; they are clipped before the division so
    that the quotient cannot overflow.
    """
    snrs = np.asarray(snrs, dtype=float)
    if not (snrs >= 0).all():
        raise ValueError("SNRs must be nonnegative")
    top, d = config.cell_count - 1, config.cell_width
    c = np.minimum(np.floor(np.minimum(snrs, config.gamma_r) / d), top)
    c -= c * d > snrs
    c += (c < top) & ((c + 1) * d <= snrs)
    return c.astype(np.int64)


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
    """Encode one block's SNRs into a mask + cell-index bit string."""
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
    failed = cells([s for s, ok in zip(snrs, mask) if not ok], config).tolist()
    cell_bits = _bits_for(config.cell_count)
    if cell_bits:
        parts += [format(cell, f"0{cell_bits}b") for cell in failed]
    return FeedbackBlock(success_mask=mask, cell_indices=tuple(failed), bits="".join(parts))


def decode_feedback_block(bits: str, config: QuantizerConfig) -> tuple[float | None, ...]:
    """Recover per-slot feedback from a block's bit string: None for an
    ack, else the failed slot's cell lower edge cell * d."""
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
        out.append(cell * config.cell_width)
    if pos != len(bits):
        raise FeedbackDecodeError(f"{len(bits) - pos} trailing bits left undecoded")
    return tuple(out)


def planned_config(
    feedback_bits: float, block_length: int, gamma_r: float
) -> QuantizerConfig:
    """The finest valid quantizer for the budget: the largest power of
    two K, at most MAX_CELL_COUNT, whose worst block fits floor(L*F) bits."""
    budget = _bit_budget(feedback_bits, block_length)
    worst = max(block_bits(block_length, 1))
    if worst > budget:
        raise InsufficientFeedbackError(
            f"even a single cell needs {worst} bits for the worst block, "
            f"budget is {budget}"
        )
    count = 1
    while count < MAX_CELL_COUNT and max(block_bits(block_length, 2 * count)) <= budget:
        count *= 2
    return QuantizerConfig(feedback_bits, block_length, gamma_r, count)
