"""Backtrack-retransmission state machines and session runners.

Each packet carries parity bits sized to the receiver's side information
about the undecoded predecessor, plus fresh payload bits filling the rest
of the rate-R slot.  The receiver buffers outage slots and, on the first
decodable slot, walks the chain backwards; every renewal delivers the
chain's new bits in original payload order.

Decodability is threshold-based (snr >= gamma_r): slots are long enough
that coding succeeds whenever the rate is below capacity, and binning is
represented by its bit budget.  A session is then a pure function of the
SNR sequence, and one array kernel (`_run_kernel`) runs every session, in
fluid and in integer accounting.  Integer sessions check their payload by
one fingerprint word per window (`verify_windows`) instead of per-bit
payloads.  The per-slot TX/RX state machines are the kernel's executable
specification, held equal to it bit for bit by a differential test: both
take C = log2(1 + snr) from `channel.capacity`, the kernel once per
session over an array, the state machine once per slot.

Every decodable slot renews its process's chain, so a session's renewals
are two int64 arrays in `SessionLog`: the renewal slots and the chain
lengths.  With P interleaved processes, a chain of length L renewed at
slot r delivers the slots r - (L-1)P, ..., r - P, r; what each slot
carried is in the slot log (`SessionLog.slot_columns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import FadingModel, LinkConfig, capacity
from .errors import ChainBrokenError
from .quantizer import (
    QuantizerConfig,
    cells,
    decode_feedback_block,
    encode_feedback_block,
    planned_config,
)

# Feedback value meaning "previous slot decoded"; otherwise the feedback
# is the effective SNR lower bound of the failed slot.
ACK = None

_PARITY_TOL = 1e-9

# Columns of the per-slot log, in CSV order.  In `eff_snr`, NaN stands for
# no report (an ack).
SLOT_FIELDS = (
    "slot", "instance", "snr", "eff_snr", "parity_bits", "new_bits",
    "decoded", "renewal", "chain_length", "reward_bits",
)


def parity_needed(link: LinkConfig, caps):
    """Fluid parity N * (R - C)^+ for side-information capacity C (a float
    or an array): what a predecessor received at capacity C still lacks."""
    return link.slot_uses * np.maximum(link.rate - caps, 0.0)


def parity_bits(link: LinkConfig, caps):
    """Parity a packet carries for a predecessor reported at capacity C.

    Fluid: `parity_needed`.  Integer: whole bits, rounded up unless within
    1e-9 above a whole number, so the parity is never under-provisioned.
    Adding 0.0 turns the -0.0 that np.ceil gives below 1e-9 into 0.0.
    """
    raw = parity_needed(link, caps)
    if link.accounting == "integer":
        return np.ceil(raw - _PARITY_TOL) + 0.0
    return raw


@dataclass(slots=True)
class Packet:
    """One slot's transmission at the bit-accounting level."""

    slot: int
    parity_bits: float
    new_bits: float
    bin_ref: int | None  # slot of the predecessor the parity protects
    payload_offset: float
    payload: np.ndarray | None = None  # materialized bits (integer accounting)
    eff_snr: float | None = None  # feedback the parity was sized from


class SourceStream:
    """Deterministic supply of payload bits, fetched in transmit order."""

    def __init__(self, rng: np.random.Generator, materialize: bool):
        self._rng = rng
        self.materialize = materialize
        self.cursor: float = 0.0

    def fetch(self, n_bits: float) -> tuple[float, np.ndarray | None]:
        offset = self.cursor
        if self.materialize:
            n = int(round(n_bits))
            payload = self._rng.integers(0, 2, size=n, dtype=np.uint8)
            self.cursor += n
            return offset, payload
        self.cursor += n_bits
        return offset, None


class ReassemblyStream:
    """Receiver-side in-order payload reconstruction and verification.

    Decoded windows may arrive out of payload order when several backtrack
    processes interleave; they are held until the gap before them fills,
    and every released window is compared against a replay of the source.
    """

    def __init__(self, replay: SourceStream):
        self._replay = replay
        self._pending: dict[float, tuple[float, np.ndarray | None]] = {}
        self.released_bits: float = 0.0
        self.ok = True

    def push(self, offset: float, length: float, payload: np.ndarray | None) -> None:
        if length <= 0:
            return
        self._pending[offset] = (length, payload)
        while True:
            expected = self._replay.cursor
            entry = self._pending.pop(expected, None)
            if entry is None:
                break
            length, payload = entry
            _, ref_payload = self._replay.fetch(length)
            if payload is not None and not np.array_equal(payload, ref_payload):
                self.ok = False
            self.released_bits = self._replay.cursor

    @property
    def pending_bits(self) -> float:
        return sum((length for length, _ in self._pending.values()), 0.0)


class BrqTransmitter:
    """TX side of one backtrack process."""

    def __init__(self, link: LinkConfig, source: SourceStream):
        self.link = link
        self.source = source
        self._prev_slot: int | None = None

    def step(self, slot: int, feedback: float | None) -> Packet:
        """Compose the slot's packet from the previous slot's feedback.

        An ack (feedback None) fetches a full load of new bits; otherwise
        the packet leads with parity sized from the effective SNR.
        """
        link = self.link
        if feedback is ACK:
            parity, bin_ref = 0.0, None
        else:
            parity = float(parity_bits(link, capacity(feedback)))
            bin_ref = self._prev_slot
        new_bits = link.bits_per_slot - parity
        offset, payload = self.source.fetch(new_bits)
        self._prev_slot = slot
        return Packet(
            slot=slot,
            parity_bits=parity,
            new_bits=new_bits,
            bin_ref=bin_ref,
            payload_offset=offset,
            payload=payload,
            eff_snr=feedback,
        )


class BrqReceiver:
    """RX side of one backtrack process: buffer, backtrack, deliver."""

    def __init__(self, link: LinkConfig, stream: ReassemblyStream):
        self.link = link
        self.stream = stream
        self._buffer: list[tuple[int, float, Packet]] = []

    def step(self, slot: int, snr: float, packet: Packet) -> list[Packet] | None:
        """Buffer an outage slot (None), or decode and backtrack on a
        renewal: the chain's packets in payload order, oldest first, each
        pushed to the reassembly stream."""
        if snr < self.link.gamma_r:
            self._buffer.append((slot, snr, packet))
            return None

        chain = [packet]
        current = packet
        while current.bin_ref is not None:
            if not self._buffer:
                raise ChainBrokenError(
                    f"slot {current.slot} references slot {current.bin_ref}, "
                    f"but the buffer is empty"
                )
            prev_slot, prev_snr, prev_pkt = self._buffer.pop()
            if current.bin_ref != prev_slot:
                raise ChainBrokenError(
                    f"slot {current.slot} references slot {current.bin_ref}, "
                    f"buffer holds slot {prev_slot}"
                )
            required = float(parity_needed(self.link, capacity(prev_snr)))
            if current.parity_bits + _PARITY_TOL < required:
                raise ChainBrokenError(
                    f"slot {current.slot} carries {current.parity_bits} parity "
                    f"bits, slot {prev_slot} needs {required}"
                )
            chain.append(prev_pkt)
            current = prev_pkt
        if self._buffer:
            raise ChainBrokenError(
                f"fresh packet in slot {current.slot} but "
                f"{len(self._buffer)} slots remain buffered"
            )

        chain.reverse()
        for pkt in chain:
            self.stream.push(pkt.payload_offset, pkt.new_bits, pkt.payload)
        return chain


def _chain_rewards(new_bits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each chain's new bits summed left to right, as the receiver adds them.

    `new_bits` holds the chains back to back, `lengths` their lengths.  The
    loop runs over chain position, across every chain still that long
    (longest first), so the sums keep the receiver's order; np.sum and
    np.add.reduceat add in another order and differ in the last bits.
    """
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    longer = np.cumsum(np.bincount(lengths)[::-1])[::-1]  # chains >= each length
    totals = np.zeros(len(lengths))
    for position in range(int(lengths.max(initial=0))):
        live = longer[position + 1]
        totals[:live] += new_bits[starts[:live] + position]
    rewards = np.empty_like(totals)
    rewards[order] = totals
    return rewards


class Renewal(NamedTuple):
    """One renewal: its slot and the length of the chain it decoded."""

    slot: int
    chain_length: int


@dataclass
class SessionLog:
    """Outcome of one simulated session; slots before `warmup_slots` stay
    out of the bit counts and the rate."""

    horizon: int
    slot_uses: int
    warmup_slots: int
    renewal_slots: np.ndarray  # int64, one per renewal, in renewal order
    chain_lengths: np.ndarray  # int64, the chain each renewal decoded
    injected_bits: float
    delivered_bits: float
    delay_hist: dict[int, float]  # delay in slots -> delivered new bits, kept sorted
    integrity_ok: bool
    released_bits: float  # in-order verified prefix of the payload stream
    held_window_bits: float  # decoded but stuck behind an unresolved gap
    slot_columns: dict[str, np.ndarray] | None = None  # one array per SLOT_FIELDS
    undelivered_bits: float = field(init=False)
    delivered_rate: float = field(init=False)

    def __post_init__(self) -> None:
        self.delay_hist = dict(sorted(self.delay_hist.items()))
        self.undelivered_bits = self.injected_bits - self.delivered_bits
        counted = self.horizon - self.warmup_slots
        self.delivered_rate = (
            self.delivered_bits / (self.slot_uses * counted) if counted > 0 else 0.0
        )

    @property
    def renewal_count(self) -> int:
        return len(self.chain_lengths)

    @property
    def renewals(self) -> list[Renewal]:
        """The renewal table as `Renewal`s of plain ints.

        It exists for the benchmark tracer: `_on_protocol_session` in
        `bench/tracing.py` takes `len()` of it, reads `.chain_length` and
        writes the sums with `json.dumps`, which a numpy integer would break.
        """
        return list(map(Renewal, self.renewal_slots.tolist(), self.chain_lengths.tolist()))

    @property
    def mean_delay(self) -> float:
        total = sum(self.delay_hist.values())
        if total <= 0:
            return math.nan
        return sum(d * b for d, b in self.delay_hist.items()) / total


def _source_and_replay(
    source_rng: np.random.Generator | None, materialize: bool
) -> tuple[SourceStream, ReassemblyStream]:
    """Build the TX payload source and an identically seeded RX replay."""
    rng = source_rng if source_rng is not None else np.random.default_rng(0)
    replay_rng = np.random.default_rng(0)
    replay_rng.bit_generator.state = rng.bit_generator.state
    source = SourceStream(rng, materialize)
    return source, ReassemblyStream(SourceStream(replay_rng, materialize))


def _run_processes(
    link: LinkConfig,
    snrs: list[float],
    processes: int,
    feedback: list[float | None],
    source_rng: np.random.Generator | None,
    warmup: int,
    record_slots: bool,
) -> SessionLog:
    """Run `processes` interleaved backtrack processes over one SNR sequence.

    Slot t belongs to process t mod P and is sent with feedback[t - P],
    the report on that process's previous slot (an ack while t < P).
    All processes draw payload from one source and deliver into one
    reassembly stream; slots before `warmup` stay out of the statistics.
    """
    source, stream = _source_and_replay(source_rng, link.accounting == "integer")
    txs = [BrqTransmitter(link, source) for _ in range(processes)]
    rxs = [BrqReceiver(link, stream) for _ in range(processes)]
    injected = delivered = 0.0
    delay_hist: dict[int, float] = {}
    renewal_slots: list[int] = []
    chain_lengths: list[int] = []
    rows: list[tuple] = []  # one per slot, in SLOT_FIELDS order
    gamma_r = link.gamma_r

    for t, snr in enumerate(snrs):
        instance = t % processes
        report = feedback[t - processes] if t >= processes else ACK
        packet = txs[instance].step(t, report)
        if t >= warmup:
            injected += packet.new_bits
        chain = rxs[instance].step(t, snr, packet)
        reward = 0.0
        if chain is not None:
            renewal_slots.append(t)
            chain_lengths.append(len(chain))
            for pkt in chain:
                bits = pkt.new_bits
                reward += bits
                if bits > 0 and pkt.slot >= warmup:
                    delay = t - pkt.slot
                    delivered += bits
                    delay_hist[delay] = delay_hist.get(delay, 0.0) + bits
        if record_slots:
            rows.append((
                t, instance, snr, math.nan if packet.eff_snr is ACK else packet.eff_snr,
                packet.parity_bits, packet.new_bits, snr >= gamma_r, chain is not None,
                len(chain) if chain else 0, reward,
            ))
    columns = None
    if record_slots:
        columns = {name: np.array(col) for name, col in zip(SLOT_FIELDS, zip(*rows))}
    return SessionLog(
        horizon=len(snrs),
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        renewal_slots=np.array(renewal_slots, dtype=np.int64),
        chain_lengths=np.array(chain_lengths, dtype=np.int64),
        injected_bits=injected,
        delivered_bits=delivered,
        delay_hist=delay_hist,
        integrity_ok=stream.ok,
        released_bits=stream.released_bits,
        held_window_bits=stream.pending_bits,
        slot_columns=columns,
    )


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum, as the state machine adds (np.sum adds pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _codec_feedback(
    snrs: list[float], gamma_r: float, quantizer: QuantizerConfig | None
) -> list[float | None]:
    """Per-slot reports as the state machine receives them: the SNR itself
    (full CSIT) or each L-slot block encoded to bits and decoded back."""
    if quantizer is None:
        return [ACK if snr >= gamma_r else snr for snr in snrs]
    length = quantizer.block_length
    feedback: list[float | None] = []
    for start in range(0, len(snrs), length):
        encoded = encode_feedback_block(snrs[start : start + length], quantizer)
        feedback += decode_feedback_block(encoded.bits, quantizer)
    return feedback


def _check_parity(
    link: LinkConfig,
    snrs: np.ndarray,
    eff: np.ndarray,
    fed: np.ndarray,
    parity: np.ndarray,
    due: np.ndarray,
    processes: int,
) -> None:
    """Raise ChainBrokenError as `BrqReceiver.step` does, at the first
    renewal whose chain holds a slot with less parity than the true SNR of
    its predecessor needs; within a chain the receiver walks newest first.

    A report equal to the SNR it stands for sizes the parity from the very
    capacity the check recomputes, so only differing reports are checked.
    """
    n, p = len(snrs), processes
    prev = np.zeros(n)
    prev[p:] = snrs[:-p]
    suspect = np.flatnonzero(fed & (due < n) & (eff != prev))
    required = parity_needed(link, capacity(prev[suspect]))
    short = np.flatnonzero(parity[suspect] + _PARITY_TOL < required)
    if short.size:
        i = short[np.lexsort((-suspect[short], due[suspect[short]]))[0]]
        slot = suspect[i]
        raise ChainBrokenError(
            f"slot {slot} carries {float(parity[slot])} parity "
            f"bits, slot {slot - p} needs {float(required[i])}"
        )


def verify_windows(
    offsets: np.ndarray,
    lengths: np.ndarray,
    fingerprints: np.ndarray,
    unresolved: int,
    sent_lengths: np.ndarray,
    replay_state: dict,
) -> bool:
    """Whether the payload windows released in order match a replay of the source.

    `offsets`, `lengths` and `fingerprints` describe the delivered windows,
    in any order; `unresolved` is the offset of the first window the
    receiver still buffers (the end of the stream if none).  The released
    windows are the delivered ones below it, ordered by offset, skipping
    windows of length zero as `ReassemblyStream.push` does.  The replay
    starts a generator from `replay_state`, draws one fingerprint per sent
    window in sequence (and so offset) order, and places window i at the
    sum of `sent_lengths` before it.  The released windows must be exactly
    the replay's nonempty windows below `unresolved`, in offset, length and
    fingerprint: a window lost, swapped, resized or corrupted fails.
    """
    replay = getattr(np.random, replay_state["bit_generator"])()
    replay.state = replay_state
    want_fingerprints = replay.random_raw(len(sent_lengths))
    want_offsets = np.cumsum(sent_lengths) - sent_lengths
    want = (sent_lengths > 0) & (want_offsets < unresolved)
    got = np.flatnonzero((lengths > 0) & (offsets < unresolved))
    # offsets repeat only for a window delivered twice, which the count fails
    got = got[np.argsort(offsets[got])]
    return (
        got.size == np.count_nonzero(want)
        and np.array_equal(offsets[got], want_offsets[want])
        and np.array_equal(lengths[got], sent_lengths[want])
        and np.array_equal(fingerprints[got], want_fingerprints[want])
    )


def _run_kernel(
    link: LinkConfig,
    snrs: np.ndarray,
    processes: int,
    reports: np.ndarray,
    source_rng: np.random.Generator | None,
    warmup: int,
    record_slots: bool,
) -> SessionLog:
    """One session as array operations, equal to `_run_processes` bit for bit.

    Slot t is sized from reports[t - P] unless slot t - P decoded (or
    t < P), with one `capacity` call over all the reports read.  Slot t is
    delivered at the next decodable slot of its process t mod P.  Sums run
    in the state machine's order, by delivery slot and then by slot.  In
    integer accounting the parity is rounded up, the receiver's parity
    check runs, and the payload source (`source_rng`, else seed 0) gives
    each slot's window one fingerprint word, checked by `verify_windows`.
    """
    n, p = len(snrs), processes
    integer = link.accounting == "integer"
    decoded = snrs >= link.gamma_r
    fed = np.zeros(n, dtype=bool)
    fed[p:] = ~decoded[:-p]
    eff = np.zeros(n)
    eff[p:] = reports[:-p]
    fed_slots = np.flatnonzero(fed)
    parity = np.zeros(n)
    parity[fed_slots] = parity_bits(link, capacity(reports[fed_slots - p]))
    new_bits = link.bits_per_slot - parity

    # Delivery slot: the next decodable slot of the same process, else n.
    padded = np.full(-(-n // p) * p, n)
    padded[:n][decoded] = np.flatnonzero(decoded)
    due = np.minimum.accumulate(padded.reshape(-1, p)[::-1], axis=0)[::-1].ravel()[:n]

    # Renewal slot r delivers the L slots r - (L-1)P, ..., r - P, r of its
    # chain, so laying the chains back to back in renewal order gives the
    # delivery order: entry i of a chain whose last entry is e is r - P(e - i).
    renewal_slots = np.flatnonzero(decoded)
    lengths = np.bincount(due, minlength=n + 1)[renewal_slots]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    order = p * np.arange(total) + np.repeat(renewal_slots - p * (ends - 1), lengths)
    chain_bits = new_bits[order]

    live = chain_bits > 0
    counted = order[live & (order >= warmup)]
    bits, delays = new_bits[counted], due[counted] - counted
    # every counted slot carries bits, so a delay is a key where it occurs
    keys = np.flatnonzero(np.bincount(delays))
    hist = np.bincount(delays, weights=bits)[keys]

    # In-order release stops at the first undelivered window; later
    # delivered windows are held, summed in push order.
    stuck = np.flatnonzero((new_bits > 0) & (due == n))
    gap = stuck[0] if stuck.size else n
    held = chain_bits[live & (order > gap)]

    integrity_ok = True  # fluid sessions carry no payload to verify
    if integer:
        _check_parity(link, snrs, eff, fed, parity, due, p)
        rng = source_rng if source_rng is not None else np.random.default_rng(0)
        replay_state = rng.bit_generator.state  # a copy
        fingerprints = rng.bit_generator.random_raw(n)  # one word per slot
        sizes = new_bits.astype(np.int64)
        window_ends = np.cumsum(sizes)
        offsets = window_ends - sizes
        unresolved = offsets[gap] if stuck.size else window_ends[-1]
        integrity_ok = verify_windows(
            offsets[order], sizes[order], fingerprints[order],
            unresolved, sizes, replay_state,
        )

    columns = None
    if record_slots:
        chain = np.zeros(n, dtype=np.int64)
        chain[renewal_slots] = lengths
        rewards = np.zeros(n)
        rewards[renewal_slots] = _chain_rewards(chain_bits, lengths)
        columns = dict(
            slot=np.arange(n),
            instance=np.arange(n) % p,
            snr=snrs,
            eff_snr=np.where(fed, eff, np.nan),
            parity_bits=parity,
            new_bits=new_bits,
            decoded=decoded,
            renewal=decoded,  # every decodable slot renews its chain
            chain_length=chain,
            reward_bits=rewards,
        )
    return SessionLog(
        horizon=n,
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        renewal_slots=renewal_slots,
        chain_lengths=lengths,
        injected_bits=_sequential_sum(new_bits[warmup:]),
        delivered_bits=_sequential_sum(bits),
        delay_hist=dict(zip(keys.tolist(), hist.tolist())),
        integrity_ok=integrity_ok,
        released_bits=_sequential_sum(new_bits[:gap]),
        held_window_bits=_sequential_sum(held),
        slot_columns=columns,
    )


def run_full_csit(
    link: LinkConfig,
    model: FadingModel,
    horizon: int,
    rng: np.random.Generator,
    source_rng: np.random.Generator | None = None,
    *,
    record_slots: bool = False,
) -> SessionLog:
    """Simulate `horizon` slots with the true SNR fed back after each slot."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    snrs = model.sample(rng, horizon)
    # under full CSIT a failed slot reports its SNR itself
    return _run_kernel(link, snrs, 1, snrs, source_rng, 0, record_slots)


def run_quantized(
    link: LinkConfig,
    model: FadingModel,
    horizon: int,
    rng: np.random.Generator,
    source_rng: np.random.Generator | None = None,
    *,
    record_slots: bool = False,
    include_warmup: bool = False,
) -> SessionLog:
    """Simulate block-interleaved operation with quantized block feedback.

    2L backtrack processes run in parallel, one per position of the odd
    and even block classes.  A block's SNRs are encoded at its end and
    reach the transmitter during the following opposite-parity block, in
    time for the next same-parity block, so slot t is sized from the
    report on slot t - 2L.  The first block of each parity is sent
    without feedback; by default those 2L warm-up slots are excluded from
    the statistics.
    """
    if link.feedback_bits is None:
        raise ValueError("quantized mode needs a finite feedback budget")
    length = link.block_length
    if horizon < 2 * length or horizon % (2 * length) != 0:
        raise ValueError(
            f"horizon must be a positive multiple of 2L = {2 * length}, got {horizon}"
        )
    quantizer = planned_config(link.feedback_bits, length, link.gamma_r)
    snrs = model.sample(rng, horizon)
    # a failed slot reports its cell's lower edge, exactly as the codec decodes it
    reports = cells(snrs, quantizer) * quantizer.cell_width
    warmup = 0 if include_warmup else 2 * length
    return _run_kernel(
        link, snrs, 2 * length, reports, source_rng, warmup, record_slots
    )
