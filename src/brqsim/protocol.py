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
specification, held equal to it bit for bit by a differential test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import FadingModel, LinkConfig, capacity
from .errors import ChainBrokenError
from .quantizer import (
    QuantizerConfig,
    block_bits,
    check_budget,
    decode_feedback_block,
    effective_snr,
    encode_feedback_block,
    planned_config,
)

# Feedback value meaning "previous slot decoded"; otherwise the feedback
# is the effective SNR lower bound of the failed slot.
ACK = None

_PARITY_TOL = 1e-9


def parity_bit_count(
    rate: float, eff_snr: float, slot_uses: int, accounting: str = "fluid"
) -> float:
    """Parity bits protecting a predecessor received at effective SNR `eff_snr`.

    Fluid: N * (R - C(eff_snr))^+.  Integer: the ceiling of that, so the
    parity is never under-provisioned.
    """
    if eff_snr < 0:
        raise ValueError(f"effective SNR must be nonnegative, got {eff_snr}")
    raw = slot_uses * max(rate - capacity(eff_snr), 0.0)
    if accounting == "integer":
        return float(_round_up_parity(raw))
    return raw


def _round_up_parity(raw):
    """Integer accounting's parity for a fluid count `raw` (float or array):
    whole bits, rounded up unless `raw` is within 1e-9 above a whole number.
    Adding 0.0 turns the -0.0 that np.ceil gives for raw < 1e-9 into 0.0."""
    return np.ceil(raw - _PARITY_TOL) + 0.0


def reward_of_chain(rate: float, slot_uses: int, outage_snrs) -> float:
    """New information bits credited at a renewal: N * (R + sum C(snr)).

    `outage_snrs` are the effective SNRs of the chain's L-1 failed slots.
    """
    total = 0.0
    for s in outage_snrs:
        c = capacity(s)
        if c >= rate:
            raise ValueError(f"chain slot with C({s}) = {c} >= rate {rate}")
        total += c
    return slot_uses * (rate + total)


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


@dataclass(slots=True)
class RenewalRecord:
    """Everything delivered by one successful backtrack chain."""

    slot: int
    chain_length: int
    reward_bits: float
    bit_delays: list[tuple[float, int]]  # (new bits, slots waited)
    effective_snrs: list[float]  # lower bounds used for the L-1 outage slots


@dataclass(slots=True)
class SlotRecord:
    """Per-slot log row (CSV export schema)."""

    slot: int
    instance: int
    snr: float
    eff_snr: float | None
    parity_bits: float
    new_bits: float
    decoded: bool
    renewal: bool
    chain_length: int
    reward_bits: float


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
        return sum(length for length, _ in self._pending.values())


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
            parity = parity_bit_count(
                link.rate, feedback, link.slot_uses, link.accounting
            )
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

    def step(self, slot: int, snr: float, packet: Packet) -> RenewalRecord | None:
        """Buffer an outage slot, or decode and backtrack on a renewal."""
        if snr < self.link.gamma_r:
            self._buffer.append((slot, snr, packet))
            return None

        chain: list[tuple[int, Packet]] = [(slot, packet)]
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
            required = self.link.slot_uses * max(
                self.link.rate - capacity(prev_snr), 0.0
            )
            if current.parity_bits + _PARITY_TOL < required:
                raise ChainBrokenError(
                    f"slot {current.slot} carries {current.parity_bits} parity "
                    f"bits, slot {prev_slot} needs {required}"
                )
            chain.append((prev_slot, prev_pkt))
            current = prev_pkt
        if self._buffer:
            raise ChainBrokenError(
                f"fresh packet in slot {current.slot} but "
                f"{len(self._buffer)} slots remain buffered"
            )

        chain.reverse()  # payload order: oldest first
        reward = 0.0
        delays: list[tuple[float, int]] = []
        for s, pkt in chain:
            reward += pkt.new_bits
            delays.append((pkt.new_bits, slot - s))
            self.stream.push(pkt.payload_offset, pkt.new_bits, pkt.payload)
        eff = [pkt.eff_snr for _, pkt in chain[1:]]
        return RenewalRecord(
            slot=slot,
            chain_length=len(chain),
            reward_bits=reward,
            bit_delays=delays,
            effective_snrs=eff,
        )


class _ChainRenewals:
    """Renewal records of an array-kernel session, built when iterated.

    Holds the delivered slots in delivery order (by renewal slot, then by
    slot) with their new bits, delays and reports, and one chain length
    per renewal slot.
    """

    def __init__(self, slots, lengths, new_bits, delays, reports):
        self._slots = slots
        self._lengths = lengths
        self._new_bits = new_bits
        self._delays = delays
        self._reports = reports

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        new_bits = self._new_bits.tolist()
        delays = self._delays.tolist()
        reports = self._reports.tolist()
        end = 0
        for slot, length in zip(self._slots.tolist(), self._lengths.tolist()):
            start, end = end, end + length
            reward = 0.0  # left to right, as the receiver adds them
            for bits in new_bits[start:end]:
                reward += bits
            yield RenewalRecord(
                slot=slot,
                chain_length=length,
                reward_bits=reward,
                bit_delays=list(zip(new_bits[start:end], delays[start:end])),
                effective_snrs=reports[start + 1 : end],
            )


@dataclass
class SessionLog:
    """Outcome of one simulated session; slots before `warmup_slots` stay
    out of the bit counts and the rate."""

    horizon: int
    slot_uses: int
    warmup_slots: int
    renewals: list[RenewalRecord] | _ChainRenewals  # sized, iterable
    injected_bits: float
    delivered_bits: float
    delay_hist: dict[int, float]  # delay in slots -> delivered new bits
    integrity_ok: bool
    released_bits: float  # in-order verified prefix of the payload stream
    held_window_bits: float  # decoded but stuck behind an unresolved gap
    slot_records: list[SlotRecord] | None = None
    undelivered_bits: float = field(init=False)
    delivered_rate: float = field(init=False)

    def __post_init__(self) -> None:
        self.undelivered_bits = self.injected_bits - self.delivered_bits
        counted = self.horizon - self.warmup_slots
        self.delivered_rate = (
            self.delivered_bits / (self.slot_uses * counted) if counted > 0 else 0.0
        )

    @property
    def renewal_count(self) -> int:
        return len(self.renewals)

    @property
    def mean_delay(self) -> float:
        total = sum(self.delay_hist.values())
        if total <= 0:
            return math.nan
        return sum(d * b for d, b in self.delay_hist.items()) / total


class _Accounting:
    """Shared per-session bookkeeping with optional warm-up exclusion."""

    def __init__(self, warmup_slots: int):
        self.warmup = warmup_slots
        self.injected = 0.0
        self.delivered = 0.0
        self.delay_hist: dict[int, float] = {}
        self.renewals: list[RenewalRecord] = []

    def on_packet(self, slot: int, packet: Packet) -> None:
        if slot >= self.warmup:
            self.injected += packet.new_bits

    def on_renewal(self, record: RenewalRecord) -> None:
        self.renewals.append(record)
        for bits, delay in record.bit_delays:
            if bits > 0 and record.slot - delay >= self.warmup:
                self.delivered += bits
                self.delay_hist[delay] = self.delay_hist.get(delay, 0.0) + bits


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
    acct = _Accounting(warmup)
    records: list[SlotRecord] | None = [] if record_slots else None
    gamma_r = link.gamma_r

    for t, snr in enumerate(snrs):
        instance = t % processes
        report = feedback[t - processes] if t >= processes else ACK
        packet = txs[instance].step(t, report)
        acct.on_packet(t, packet)
        renewal = rxs[instance].step(t, snr, packet)
        if renewal is not None:
            acct.on_renewal(renewal)
        if records is not None:
            records.append(
                SlotRecord(
                    slot=t,
                    instance=instance,
                    snr=snr,
                    eff_snr=packet.eff_snr,
                    parity_bits=packet.parity_bits,
                    new_bits=packet.new_bits,
                    decoded=snr >= gamma_r,
                    renewal=renewal is not None,
                    chain_length=renewal.chain_length if renewal else 0,
                    reward_bits=renewal.reward_bits if renewal else 0.0,
                )
            )
    return SessionLog(
        horizon=len(snrs),
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        renewals=acct.renewals,
        injected_bits=acct.injected,
        delivered_bits=acct.delivered,
        delay_hist=acct.delay_hist,
        integrity_ok=stream.ok,
        released_bits=stream.released_bits,
        held_window_bits=stream.pending_bits,
        slot_records=records,
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
    length, d = quantizer.block_length, quantizer.cell_width
    feedback: list[float | None] = []
    for start in range(0, len(snrs), length):
        encoded = encode_feedback_block(snrs[start : start + length], quantizer)
        feedback += [
            ACK if entry is None else effective_snr(entry, d)
            for entry in decode_feedback_block(encoded.bits, quantizer)
        ]
    return feedback


def _report_values(
    snrs: np.ndarray, gamma_r: float, quantizer: QuantizerConfig
) -> np.ndarray:
    """The value each slot reports should it fail under quantized feedback:
    its cell's lower edge (cell + 1) * d - d, exactly as the codec decodes it.

    Raises BudgetExceededError for the first block whose report, sized
    from its success count, overflows the budget.
    """
    length, count, d = quantizer.block_length, quantizer.cell_count, quantizer.cell_width
    successes = (snrs >= gamma_r).reshape(-1, length).sum(axis=1)
    costs = np.array(block_bits(length, count))[successes]
    check_budget(int(costs[np.argmax(costs > quantizer.bit_budget)]), quantizer)
    cell = np.minimum(snrs / d, count - 1).astype(np.int64)
    return np.maximum((cell + 1) * d - d, 0.0)


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
    prev[p:] = snrs[: n - p]
    suspect = np.flatnonzero(fed & (due < n) & (eff != prev))
    caps = np.fromiter(map(math.log2, (1.0 + prev[suspect]).tolist()), float)
    required = link.slot_uses * np.maximum(link.rate - caps, 0.0)
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
    got = got[np.argsort(offsets[got], kind="stable")]
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
    t < P), and is delivered at the next decodable slot of its process
    t mod P.  Sums run in the state machine's order, by delivery slot and
    then by slot, and capacities use math.log2 as `capacity` does.  In
    integer accounting the parity is rounded up, the receiver's parity
    check runs, and the payload source (`source_rng`, else seed 0) gives
    each slot's window one fingerprint word, checked by `verify_windows`.
    """
    n, p = len(snrs), processes
    integer = link.accounting == "integer"
    decoded = snrs >= link.gamma_r
    fed = np.zeros(n, dtype=bool)
    fed[p:] = ~decoded[: n - p]
    eff = np.zeros(n)
    eff[p:] = reports[: n - p]
    parity = np.zeros(n)
    caps = np.fromiter(map(math.log2, (1.0 + eff[fed]).tolist()), float)
    parity[fed] = link.slot_uses * np.maximum(link.rate - caps, 0.0)
    if integer:
        parity[fed] = _round_up_parity(parity[fed])
    new_bits = link.bits_per_slot - parity

    # Delivery slot: the next decodable slot of the same process, else n.
    padded = np.full(-(-n // p) * p, n)
    padded[:n][decoded] = np.flatnonzero(decoded)
    due = np.minimum.accumulate(padded.reshape(-1, p)[::-1], axis=0)[::-1].ravel()[:n]
    sent = np.flatnonzero(due < n)
    order = sent[np.argsort(due[sent], kind="stable")]

    counted = order[(new_bits[order] > 0) & (order >= warmup)]
    bits, delays = new_bits[counted], due[counted] - counted
    keys, first = np.unique(delays, return_index=True)
    keys = keys[np.argsort(first)]  # first-occurrence order, as the dict fills
    hist = np.bincount(delays, weights=bits)[keys]

    # In-order release stops at the first undelivered window; later
    # delivered windows are held, summed in push order.
    stuck = np.flatnonzero((new_bits > 0) & (due == n))
    gap = stuck[0] if stuck.size else n
    held = new_bits[order[(order > gap) & (new_bits[order] > 0)]]

    integrity_ok = True  # fluid sessions carry no payload to verify
    if integer:
        _check_parity(link, snrs, eff, fed, parity, due, p)
        rng = source_rng if source_rng is not None else np.random.default_rng(0)
        replay_state = rng.bit_generator.state  # a copy
        fingerprints = rng.bit_generator.random_raw(n)  # one word per slot
        sizes = new_bits.astype(np.int64)
        ends = np.cumsum(sizes)
        offsets = ends - sizes
        unresolved = offsets[gap] if stuck.size else ends[-1]
        integrity_ok = verify_windows(
            offsets[order], sizes[order], fingerprints[order],
            unresolved, sizes, replay_state,
        )

    renewal_slots = np.flatnonzero(decoded)
    lengths = np.bincount(due[sent], minlength=n)[renewal_slots]
    renewals = _ChainRenewals(
        renewal_slots, lengths, new_bits[order], due[order] - order, eff[order]
    )
    records = None
    if record_slots:
        chain = np.zeros(n, dtype=np.int64)
        chain[renewal_slots] = lengths
        rewards = np.zeros(n)
        rewards[renewal_slots] = [r.reward_bits for r in renewals]
        eff_snrs = [e if f else ACK for e, f in zip(eff.tolist(), fed.tolist())]
        records = list(
            map(
                SlotRecord,
                range(n),
                (np.arange(n) % p).tolist(),
                snrs.tolist(),
                eff_snrs,
                parity.tolist(),
                new_bits.tolist(),
                decoded.tolist(),
                decoded.tolist(),  # every decodable slot renews its chain
                chain.tolist(),
                rewards.tolist(),
            )
        )
    return SessionLog(
        horizon=n,
        slot_uses=link.slot_uses,
        warmup_slots=warmup,
        renewals=renewals,
        injected_bits=_sequential_sum(new_bits[warmup:]),
        delivered_bits=_sequential_sum(bits),
        delay_hist=dict(zip(keys.tolist(), hist.tolist())),
        integrity_ok=integrity_ok,
        released_bits=_sequential_sum(new_bits[:gap]),
        held_window_bits=sum(held.tolist()),
        slot_records=records,
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
    snrs = np.atleast_1d(model.sample(rng, horizon))
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
    gamma_r = link.gamma_r
    quantizer = planned_config(
        link.feedback_bits, length, model.decode_prob(gamma_r), gamma_r
    )
    snrs = np.atleast_1d(model.sample(rng, horizon))
    reports = _report_values(snrs, gamma_r, quantizer)
    warmup = 0 if include_warmup else 2 * length
    return _run_kernel(
        link, snrs, 2 * length, reports, source_rng, warmup, record_slots
    )
