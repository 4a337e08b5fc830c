"""Backtrack-retransmission state machines and session runners.

Each packet carries parity bits sized to the receiver's side information
about the undecoded predecessor, plus fresh payload bits filling the rest
of the rate-R slot.  The receiver buffers outage slots and, on the first
decodable slot, walks the chain backwards; every renewal delivers the
chain's new bits in original payload order.

Decodability is threshold-based (snr >= gamma_r): slots are long enough
that coding succeeds whenever the rate is below capacity, and binning is
represented by its bit budget.  A session is then a pure function of the
SNR sequence, and one array kernel (`_run_kernel`) runs every session,
in fluid and in integer accounting, chunk by chunk.  Its producer
`_deliver` turns each chunk into a `_Chunk` record: every slot's report,
parity and new bits, and the chains the chunk's renewals deliver.  It
alone lays chains out: with one process (full CSIT) a chain is the run of
slots since the last renewal, and with P a column of a grid.  Consumers
read the record: `_add_sums` (the released, injected and delivered
bits), `_add_histograms`, `_check_chains` (integer accounting: each
delivered slot's parity against the whole-bit rule, restated apart from
`parity_bits`) and `_slot_rows` (the slot log).  A `_Carry` holds all
that crosses chunks: each process's last renewal, which gives the gap,
the first slot not yet delivered, where in-order release stops; the span,
every slot from the gap on, with only its bits; sums, histograms and the
verdict.  The per-slot TX/RX state machines, run slot by slot by
`_run_processes`, are the kernel's executable specification, held equal
to it bit for bit by a differential test: both take C = log2(1 + snr)
from `channel.capacity`, the kernel over an array once per chunk (twice
in integer accounting), the state machine once per slot.

Every decodable slot renews its process's chain, and a session keeps
only how many chains of each length it renewed (`SessionLog.chain_hist`).
With P interleaved processes, a chain of length L renewed at slot r
delivers the slots r - (L-1)P, ..., r - P, r.  The slot log is streamed:
a session hands a slot sink one `SlotRows` per chunk, final when the
chunk ends, with what each slot carried and, for each renewal, the length
and the new bits of the chain it ended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

# Columns of the per-slot log, in CSV order.
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
        """The held windows' bits, added in payload order."""
        return sum((length for _, (length, _) in sorted(self._pending.items())), 0.0)


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


class Renewal(NamedTuple):
    """One renewal: the length of the chain it decoded."""

    chain_length: int


class SlotRows(NamedTuple):
    """The slot log of the slots from `start` on, one chunk of a session.

    Slot t is instance t mod `processes`, and `start` is a multiple of it.
    A slot sized from a report (`fed`) logs it as `eff_snr`: the SNR of
    slot t - P, or with a quantizer its cell's lower edge.  Any other slot
    was sent on an ack and logs no report.  Every decodable slot is a
    renewal, and `chain_length` and `reward_bits` hold the length and the
    new bits (added in payload order) of the chain each ends, in slot
    order; every other slot logs 0 and 0.0.
    """

    start: int
    processes: int
    snr: np.ndarray
    fed: np.ndarray
    eff_snr: np.ndarray
    parity_bits: np.ndarray
    new_bits: np.ndarray
    decoded: np.ndarray
    chain_length: np.ndarray  # one per decodable slot
    reward_bits: np.ndarray  # one per decodable slot


# Receives a session's `SlotRows`, chunk after chunk.
SlotSink = Callable[[SlotRows], None]


@dataclass
class SessionLog:
    """Outcome of one simulated session; slots before `warmup_slots` stay
    out of the bit counts and the rate."""

    horizon: int
    slot_uses: int
    warmup_slots: int
    chain_hist: dict[int, int]  # chain length -> renewals, kept sorted
    injected_bits: float
    delivered_bits: float
    delay_hist: dict[int, float]  # delay in slots -> delivered new bits, kept sorted
    integrity_ok: bool
    released_bits: float  # in-order prefix of the payload stream
    held_window_bits: float  # decoded but stuck behind an unresolved gap
    undelivered_bits: float = field(init=False)
    delivered_rate: float = field(init=False)

    def __post_init__(self) -> None:
        self.delay_hist = dict(sorted(self.delay_hist.items()))
        self.chain_hist = dict(sorted(self.chain_hist.items()))
        self.undelivered_bits = self.injected_bits - self.delivered_bits
        counted = self.horizon - self.warmup_slots
        self.delivered_rate = (
            self.delivered_bits / (self.slot_uses * counted) if counted > 0 else 0.0
        )

    @property
    def renewal_count(self) -> int:
        return sum(self.chain_hist.values())

    @property
    def renewals(self) -> list[Renewal]:
        """One `Renewal` per renewal, in chain-length order, of plain ints.

        It exists only for the benchmark tracer: `_on_protocol_session` in
        `bench/tracing.py` takes `len()` of it, reads `.chain_length` and
        writes the sums with `json.dumps`, which a numpy integer would break.
        """
        return [Renewal(length) for length, n in self.chain_hist.items() for _ in range(n)]

    @property
    def mean_delay(self) -> float:
        total = sum(self.delay_hist.values())
        if total <= 0:
            return math.nan
        return sum(d * b for d, b in self.delay_hist.items()) / total


def _run_processes(
    link: LinkConfig,
    snrs: list[float],
    processes: int,
    feedback: list[float | None],
    warmup: int,
    slot_sink: SlotSink | None,
) -> SessionLog:
    """Run `processes` interleaved backtrack processes over one SNR sequence.

    Slot t belongs to process t mod P and is sent with feedback[t - P],
    the report on that process's previous slot (an ack while t < P).
    All processes draw payload from one source and deliver into one
    reassembly stream; slots before `warmup` stay out of the statistics.
    A `slot_sink` gets the slot log one `SlotRows` per P slots, as the
    last process's slot ends.
    """
    materialize = link.accounting == "integer"
    source = SourceStream(np.random.default_rng(0), materialize)
    stream = ReassemblyStream(SourceStream(np.random.default_rng(0), materialize))
    txs = [BrqTransmitter(link, source) for _ in range(processes)]
    rxs = [BrqReceiver(link, stream) for _ in range(processes)]
    injected = delivered = 0.0
    delay_hist: dict[int, float] = {}
    chain_hist: dict[int, int] = {}
    rows: list[tuple] = []  # per slot: SNR, fed, report, parity, new bits, decoded
    chains: list[tuple[int, float]] = []  # per renewal: chain length, new bits
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
            chain_hist[len(chain)] = chain_hist.get(len(chain), 0) + 1
            for pkt in chain:
                bits = pkt.new_bits
                reward += bits
                if bits > 0 and pkt.slot >= warmup:
                    delay = t - pkt.slot
                    delivered += bits
                    delay_hist[delay] = delay_hist.get(delay, 0.0) + bits
        if slot_sink is not None:
            fed = packet.eff_snr is not ACK
            rows.append((snr, fed, packet.eff_snr if fed else math.nan, packet.parity_bits,
                         packet.new_bits, snr >= gamma_r))
            if chain is not None:
                chains.append((len(chain), reward))
            if instance == processes - 1 or t == len(snrs) - 1:
                lengths, rewards = zip(*chains) if chains else ((), ())
                slot_sink(SlotRows(t + 1 - len(rows), processes, *map(np.array, zip(*rows)),
                                   np.array(lengths, dtype=np.int64),
                                   np.array(rewards, dtype=float)))
                rows, chains = [], []
    return SessionLog(
        horizon=len(snrs),
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        chain_hist=chain_hist,
        injected_bits=injected,
        delivered_bits=delivered,
        delay_hist=delay_hist,
        integrity_ok=stream.ok,
        released_bits=stream.released_bits,
        held_window_bits=stream.pending_bits,
    )


def _running_sum(total: float, values: np.ndarray) -> float:
    """`total` plus `values` added left to right, as the state machine adds
    (np.sum adds pairwise)."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


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


def _grow_add(hist: np.ndarray, keys: np.ndarray, values) -> np.ndarray:
    """`hist`, grown to index every key, plus `values` at `keys` left to right."""
    if keys.size and keys.max() >= hist.size:
        hist = np.concatenate((hist, np.zeros(keys.max() + 1, hist.dtype)))
    np.add.at(hist, keys, values)
    return hist


@dataclass(slots=True)
class _Carry:
    """All that the kernel carries from one chunk to the next."""

    last_renewal: np.ndarray  # of each process j; slot j - P stands in before slot 0
    span_bits: np.ndarray  # the new bits of every slot from the gap on
    released: float = 0.0  # one running slot-order total
    injected: float = 0.0
    delivered: float = 0.0
    delay_hist: np.ndarray = field(default_factory=lambda: np.zeros(1))
    chain_hist: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    integrity_ok: bool = True
    chained: float = 0.0  # the bits of every chain so far


class _Chunk(NamedTuple):
    """What the chunk of slots from `start` sends and delivers."""

    start: int
    gap: int  # the span's first slot: no earlier slot is delivered
    decoded: np.ndarray  # per slot: decodable, so it renews its chain
    fed: np.ndarray  # per slot: sized from a report, as slot t - P failed
    eff: np.ndarray  # per slot: the report on slot t - P
    parity: np.ndarray
    new_bits: np.ndarray
    renewals: np.ndarray  # the decodable slots
    lengths: np.ndarray  # the length of the chain each renews
    order: np.ndarray  # the delivered slots, chain after chain, oldest first
    chain_bits: np.ndarray  # their new bits
    delivery: np.ndarray  # the renewal that delivers each


def _deliver(link: LinkConfig, snrs: np.ndarray, quantizer: QuantizerConfig | None,
             carry: _Carry, a: int, size: int) -> _Chunk:
    """The record of the `size` slots from slot `a`: it moves the carry's
    last renewals on and appends the chunk's new bits to the span.

    Slot t is sized from the report on slot t - P unless slot t - P
    decoded (or t < P): its SNR, or with a `quantizer` its cell's lower edge
    `cells(snr) * cell_width`, never above the SNR, so no parity falls
    short.  It is delivered at the next decodable slot of its process.
    """
    p = carry.last_renewal.size
    chunk = slice(a, a + size)
    decoded = snrs[chunk] >= link.gamma_r
    m = len(decoded)
    fed = ~np.concatenate((carry.last_renewal == np.arange(a - p, a), decoded))[:m]
    eff = np.concatenate((snrs[a - p : a] if a else np.zeros(p), snrs[chunk]))[:m]
    if quantizer is not None:
        eff = cells(eff, quantizer) * quantizer.cell_width
    parity = np.where(fed, parity_bits(link, capacity(eff)), 0.0)
    new_bits = link.bits_per_slot - parity

    renewals = np.flatnonzero(decoded) + a
    gap, last_renewal = a - len(carry.span_bits), carry.last_renewal
    span_bits = carry.span_bits = np.concatenate((carry.span_bits, new_bits))
    if p == 1:  # delivery is in slot order: a chain is the run since the last renewal
        lengths = np.diff(renewals, prepend=last_renewal)
        last_renewal = renewals[-1:] if renewals.size else last_renewal
        order = np.arange(gap, last_renewal[0] + 1)
        chain_bits = span_bits[: len(order)]
    else:
        # Renewal r of a chain of L slots delivers r - (L-1)P, ..., r, where
        # r - LP is its process's renewal before it: the running maximum
        # down each column of the chunk's (rows, P) grid of renewal slots.
        rows, local = -(-m // p), renewals - a
        grid = np.full((rows + 1) * p, -p)
        grid[:p], grid[local + p] = last_renewal, renewals
        grid = np.maximum.accumulate(grid.reshape(rows + 1, p), axis=0).ravel()
        lengths, last_renewal = (renewals - grid[local]) // p, grid[-p:]
        # chains laid back to back: entry i of the chain ending at e is r - P(e - i)
        ends = np.cumsum(lengths)
        order = p * np.arange(ends[-1] if ends.size else 0)
        order += np.repeat(renewals - p * (ends - 1), lengths)
        chain_bits = span_bits[order - gap]
    carry.last_renewal = last_renewal
    return _Chunk(a, gap, decoded, fed, eff, parity, new_bits, renewals, lengths, order,
                  chain_bits, np.repeat(renewals, lengths))


def _add_sums(carry: _Carry, chunk: _Chunk, warmup: int) -> None:
    """Release the span up to the gap, and add the bits sent and delivered
    past the warm-up.  The gap moves to the first slot still open, the first
    after its process's last renewal; a chain opens with an acked slot, so
    the gap's window has bits.  Without a warm-up the end reads the bits
    sent from the span, and with one process the delivered ones too."""
    p, end = carry.last_renewal.size, chunk.start + len(chunk.decoded)
    k = min(int(carry.last_renewal.min()) + p, end) - chunk.gap
    carry.released = _running_sum(carry.released, carry.span_bits[:k])
    carry.span_bits = carry.span_bits[k:]
    if warmup:
        carry.injected = _running_sum(
            carry.injected, chunk.new_bits[max(warmup - chunk.start, 0) :])
    if warmup or p > 1:
        bits = chunk.chain_bits
        if warmup > chunk.gap:
            bits = bits[chunk.order >= warmup]
        carry.delivered = _running_sum(carry.delivered, bits)


def _add_histograms(carry: _Carry, chunk: _Chunk, warmup: int) -> None:
    """Count renewals by chain length, and add the bits delivered past the
    warm-up by delay, in delivery order as the receiver adds.  A window
    without bits adds 0.0 to every sum and to no delay key."""
    bits, delays = chunk.chain_bits, chunk.delivery - chunk.order
    if warmup > chunk.gap:
        counted = chunk.order >= warmup
        bits, delays = bits[counted], delays[counted]
    carry.chain_hist = _grow_add(carry.chain_hist, chunk.lengths, 1)
    carry.delay_hist = _grow_add(carry.delay_hist, delays, bits)


def _check_chains(carry: _Carry, chunk: _Chunk, link: LinkConfig, snrs: np.ndarray,
                  quantizer: QuantizerConfig | None) -> None:
    """Integer accounting: hold the parity p, B less the new bits, of each
    delivered slot to the receiver's rule, restated here apart from
    `parity_bits`, and add the chains' bits to the carry for the ledger.

    The chains lie back to back, each ending at its decodable slot, so each
    entry of `order` follows its chain's failed predecessor, or else heads
    a chain.  With raw = `parity_needed` at the failed predecessor's report
    (its SNR, or with a `quantizer` its cell's lower edge), or 0 at a head,
    p must be whole with raw - 1e-9 <= p and p - 1 < raw - 1e-9 (p < raw -
    1e-9 + 1 could round up to p).
    """
    parity = link.bits_per_slot - chunk.chain_bits
    reports = snrs[chunk.order[:-1]]  # the entry before each but the first
    failed = reports < link.gamma_r
    if quantizer is not None:
        reports = cells(reports, quantizer) * quantizer.cell_width
    low = np.where(failed, parity_needed(link, capacity(reports)), 0.0) - _PARITY_TOL
    rest = parity[1:]  # the first entry heads a chain
    ok = (rest == np.floor(rest)) & (low <= rest) & (rest - 1 < low)
    carry.integrity_ok = carry.integrity_ok and not parity[:1].any() and bool(ok.all())
    carry.chained += float(chunk.chain_bits.sum())


def _slot_rows(chunk: _Chunk, snrs: np.ndarray, processes: int) -> SlotRows:
    """The chunk's slot log: its own slots, and the chain length and the
    new bits, added left to right, of each of its renewals."""
    rewards = np.zeros(len(chunk.renewals))
    np.add.at(rewards, np.repeat(np.arange(len(chunk.lengths)), chunk.lengths),
              chunk.chain_bits)
    end = chunk.start + len(chunk.decoded)
    return SlotRows(chunk.start, processes, snrs[chunk.start:end], chunk.fed, chunk.eff,
                    chunk.parity, chunk.new_bits, chunk.decoded, chunk.lengths, rewards)


# Slots per kernel chunk, rounded up to a multiple of P.  Median kernel CPU
# times at 4096, 8192 and 16384 (2-core Xeon, fluid, 10 dB, R = log2 21):
# 1.23, 1.20 and 1.51 ms for 40 000 slots at P = 1; 2.92, 2.63 and 3.05 ms
# for 38 400 slots at P = 128 (F = 2, L = 64).
_SESSION_CHUNK = 8192


def _run_kernel(
    link: LinkConfig,
    snrs: np.ndarray,
    processes: int,
    quantizer: QuantizerConfig | None,
    warmup: int,
    slot_sink: SlotSink | None,
) -> SessionLog:
    """One session as array operations, equal to `_run_processes` bit for bit.

    The producer `_deliver` turns each chunk of `_SESSION_CHUNK` slots into
    a `_Chunk`, and the consumers read it: `_add_sums`, `_add_histograms`,
    in integer accounting `_check_chains`, and for a `slot_sink` `_slot_rows`,
    whose chunk of the slot log goes to the sink before the next chunk
    starts.  Only the `_Carry` crosses chunks, so the memory used, a slot
    log included, is bounded by one chunk plus about P times the longest
    chain, not by the horizon.  Sums run in the state machine's order:
    delivered bits by delivery slot and then by slot, released and held
    bits by slot (payload order).  The end reads the carry: the held bits
    are the span's slots at or before their process's last renewal, and in
    integer accounting the ledger holds every bit sent to a chain, warm-up
    included, or an open slot.
    """
    n, p = len(snrs), processes
    size = -(-_SESSION_CHUNK // p) * p
    carry = _Carry(np.arange(p) - p, np.zeros(0))
    for a in range(0, n, size):
        chunk = _deliver(link, snrs, quantizer, carry, a, size)
        _add_sums(carry, chunk, warmup)
        _add_histograms(carry, chunk, warmup)
        if link.accounting == "integer":
            _check_chains(carry, chunk, link, snrs, quantizer)
        if slot_sink is not None:
            slot_sink(_slot_rows(chunk, snrs, p))

    keys, lengths = np.flatnonzero(carry.delay_hist), np.flatnonzero(carry.chain_hist)
    span_bits, last_renewal = carry.span_bits, carry.last_renewal
    span = np.arange(n - len(span_bits), n)
    closed = span <= last_renewal[span % p]  # delivered, held behind the gap
    total = _running_sum(carry.released, span_bits)
    if link.accounting == "integer":
        carry.integrity_ok &= carry.chained + span_bits[~closed].sum() == total
    return SessionLog(
        horizon=n,
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        chain_hist=dict(zip(lengths.tolist(), carry.chain_hist[lengths].tolist())),
        injected_bits=carry.injected if warmup else total,
        delivered_bits=carry.delivered if warmup or p > 1 else carry.released,
        delay_hist=dict(zip(keys.tolist(), carry.delay_hist[keys].tolist())),
        integrity_ok=bool(carry.integrity_ok),
        released_bits=carry.released,
        held_window_bits=_running_sum(0.0, span_bits[closed]),
    )


def run_full_csit(
    link: LinkConfig,
    model: FadingModel,
    horizon: int,
    rng: np.random.Generator,
    *,
    slot_sink: SlotSink | None = None,
) -> SessionLog:
    """Simulate `horizon` slots with the true SNR fed back after each slot;
    a `slot_sink` gets the slot log chunk by chunk."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    snrs = model.sample(rng, horizon)
    return _run_kernel(link, snrs, 1, None, 0, slot_sink)


def run_quantized(
    link: LinkConfig,
    model: FadingModel,
    horizon: int,
    rng: np.random.Generator,
    *,
    slot_sink: SlotSink | None = None,
    include_warmup: bool = False,
) -> SessionLog:
    """Simulate block-interleaved operation with quantized block feedback.

    2L backtrack processes run in parallel, one per position of the odd
    and even block classes.  A block's SNRs are encoded at its end and
    reach the transmitter during the following opposite-parity block, in
    time for the next same-parity block, so slot t is sized from the
    report on slot t - 2L.  The first block of each parity is sent
    without feedback; by default those 2L warm-up slots are excluded from
    the statistics.  A `slot_sink` gets the slot log chunk by chunk, once
    the plan is made: nothing reaches it on a usage error.
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
    warmup = 0 if include_warmup else 2 * length
    return _run_kernel(link, snrs, 2 * length, quantizer, warmup, slot_sink)
