import itertools
import json
import math
import os
import tempfile
from unittest import mock

import csv_reference
import numpy as np
import pytest
from chain_reference import reward_of_chain
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brqsim import analytics, cli, protocol
from brqsim.channel import Deterministic, EmpiricalTrace, LinkConfig, Rayleigh, capacity
from brqsim.engine import RunConfig, run_replicated
from brqsim.errors import BrqError, ChainBrokenError
from brqsim.protocol import (
    ACK,
    SLOT_FIELDS,
    BrqReceiver,
    BrqTransmitter,
    ReassemblyStream,
    SourceStream,
    parity_bits,
    run_full_csit,
    run_quantized,
)
from brqsim.quantizer import cells, planned_config

RATE = math.log2(21.0)  # threshold 20
INT_RATE = 4.39  # 439 whole bits per slot of 100 uses, threshold 19.966...


def make_link(**kw):
    kw.setdefault("rate", 2.0)
    kw.setdefault("slot_uses", 100)
    return LinkConfig(**kw)


def fresh_session(link):
    rng = np.random.default_rng(0)
    source = SourceStream(rng, materialize=link.accounting == "integer")
    replay = np.random.default_rng(0)
    stream = ReassemblyStream(
        SourceStream(replay, materialize=link.accounting == "integer")
    )
    return BrqTransmitter(link, source), BrqReceiver(link, stream), stream


class TestParityBitCount:
    """`parity_bits` of the capacity C of a report, fluid and integer."""

    def test_no_deficit(self):
        assert parity_bits(make_link(), capacity(5.0)) == 0.0

    def test_half_deficit(self):
        assert parity_bits(make_link(), capacity(1.0)) == pytest.approx(100.0)

    def test_zero_side_information(self):
        assert parity_bits(make_link(), capacity(0.0)) == pytest.approx(200.0)

    def test_integer_mode_rounds_up(self):
        raw = 100 * (4.0 - capacity(7.5))
        link = make_link(rate=4.0, accounting="integer")
        assert parity_bits(link, capacity(7.5)) == math.ceil(raw)
        # exact integers stay exact
        assert parity_bits(make_link(accounting="integer"), capacity(1.0)) == 100.0


class TestTxStep:
    def test_ack_fetches_full_load(self):
        link = make_link()
        tx, _, _ = fresh_session(link)
        pkt = tx.step(0, ACK)
        assert pkt.parity_bits == 0.0
        assert pkt.new_bits == pytest.approx(200.0)
        assert pkt.bin_ref is None

    def test_outage_feedback_splits_packet(self):
        link = make_link()
        tx, _, _ = fresh_session(link)
        tx.step(0, ACK)
        pkt = tx.step(1, 1.0)  # C = 1
        assert pkt.parity_bits == pytest.approx(100.0)
        assert pkt.new_bits == pytest.approx(100.0)
        assert pkt.bin_ref == 0

    def test_zero_effective_snr_pure_retransmission(self):
        link = make_link()
        tx, _, _ = fresh_session(link)
        tx.step(0, ACK)
        pkt = tx.step(1, 0.0)
        assert pkt.parity_bits == pytest.approx(200.0)
        assert pkt.new_bits == pytest.approx(0.0)

    def test_conservation_and_cursor(self):
        link = make_link()
        tx, _, _ = fresh_session(link)
        rng = np.random.default_rng(3)
        cursor = 0.0
        for t in range(200):
            fb = ACK if rng.random() < 0.3 else float(rng.uniform(0.0, 2.9))
            pkt = tx.step(t, fb)
            assert pkt.parity_bits + pkt.new_bits == pytest.approx(
                link.bits_per_slot, abs=1e-9
            )
            assert pkt.payload_offset == pytest.approx(cursor)
            assert (pkt.parity_bits == 0.0) == (fb is ACK)
            cursor += pkt.new_bits


# SNRs on both sides of the thresholds gamma_R of RATE and INT_RATE, plus
# the quantizer's cell edges gamma_R * i / 64 (the threshold among them).
_TRACE_SNR = st.one_of(
    st.floats(min_value=0.0, max_value=60.0),
    st.integers(min_value=0, max_value=64).map(lambda i: (2.0**RATE - 1.0) * i / 64),
    st.integers(min_value=0, max_value=64).map(lambda i: (2.0**INT_RATE - 1.0) * i / 64),
)


def check_feedback_delay_law(log, snrs, processes, gamma_r, cell_width):
    """Slot t belongs to process t mod P and is sized from the report on
    slot t - P: an ack while t < P or when that slot decoded, else its SNR
    (exact for full CSIT, within one cell below it when quantized)."""
    columns = log.slot_columns
    assert columns["slot"].tolist() == list(range(len(snrs)))
    for t, instance, eff_snr in zip(
        *(columns[name].tolist() for name in ("slot", "instance", "eff_snr"))
    ):
        assert instance == t % processes
        if t < processes or snrs[t - processes] >= gamma_r:
            assert math.isnan(eff_snr)  # an ack
        elif cell_width == 0.0:
            assert eff_snr == snrs[t - processes]
        else:
            reported = snrs[t - processes]
            assert reported - cell_width < eff_snr <= reported


class TestFeedbackDelayLaw:
    @settings(deadline=None)
    @given(st.lists(_TRACE_SNR, min_size=1, max_size=60))
    def test_full_csit(self, snrs):
        link = make_link(rate=RATE)
        log = run_full_csit(
            link, EmpiricalTrace(snrs), len(snrs), np.random.default_rng(0),
            record_slots=True,
        )
        check_feedback_delay_law(log, snrs, 1, link.gamma_r, 0.0)

    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([4.0, 8.0]),
        st.data(),
    )
    def test_quantized(self, length, rounds, fbits, data):
        horizon = 2 * length * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        link = make_link(rate=RATE, feedback_bits=fbits, block_length=length)
        trace = EmpiricalTrace(snrs)
        log = run_quantized(
            link, trace, horizon, np.random.default_rng(0), record_slots=True
        )
        gamma_r = link.gamma_r
        d = planned_config(fbits, length, gamma_r).cell_width
        check_feedback_delay_law(log, snrs, 2 * length, gamma_r, d)


def assert_identical(a, b):
    """Equal values of equal types (a numpy scalar would print differently).

    Lists are compared item by item, so that a failure shows the first
    differing item instead of a diff of two long reprs.
    """
    if isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
        return
    assert a == b
    assert repr(a) == repr(b)


def assert_same_array(name, a, b):
    """Arrays equal in dtype and raw bytes (so -0.0 differs from 0.0, and
    one NaN from another); `name` labels a failure."""
    assert (name, a.dtype) == (name, b.dtype)
    assert (name, a.tobytes()) == (name, b.tobytes())


def assert_same_columns(a, b):
    """Slot columns keyed by `SLOT_FIELDS`, each the same array."""
    assert tuple(a) == tuple(b) == SLOT_FIELDS
    for name in SLOT_FIELDS:
        assert_same_array(name, a[name], b[name])


def same_outcome(kernel, oracle):
    """Run both session functions and check they agree exactly: every
    scalar of the log, `delay_hist` with its key order, the renewal table
    and every slot column, or the same error type and message.

    Returns both logs, or both errors as (type, message) pairs.
    """

    def outcome(run):
        try:
            return run()
        except BrqError as exc:
            return type(exc), str(exc)

    got, want = outcome(kernel), outcome(oracle)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return got, want
    for name in (
        "horizon", "slot_uses", "warmup_slots", "injected_bits", "delivered_bits",
        "undelivered_bits", "delivered_rate", "integrity_ok", "released_bits",
        "held_window_bits", "renewal_count",
    ):
        assert_identical(getattr(got, name), getattr(want, name))
    assert_identical(list(got.delay_hist.items()), list(want.delay_hist.items()))
    for name in ("renewal_slots", "chain_lengths"):
        assert_same_array(name, getattr(got, name), getattr(want, name))
    assert_same_columns(got.slot_columns, want.slot_columns)
    return got, want


def kernel_and_oracle(
    snrs, feedback_bits=None, length=2, include_warmup=False, accounting="fluid"
):
    """Run a session through the array kernel (the public runners) and
    through the state machine on codec feedback, and check they agree
    exactly.  Integer accounting runs at INT_RATE, fluid at RATE."""
    trace = EmpiricalTrace(snrs)
    horizon = len(trace.snrs)
    link = make_link(
        rate=INT_RATE if accounting == "integer" else RATE,
        feedback_bits=feedback_bits,
        block_length=length,
        accounting=accounting,
    )
    gamma_r = link.gamma_r

    def kernel():
        rng = np.random.default_rng(0)
        if feedback_bits is None:
            return run_full_csit(link, trace, horizon, rng, record_slots=True)
        return run_quantized(
            link, trace, horizon, rng, record_slots=True, include_warmup=include_warmup
        )

    def oracle():
        values = list(trace.snrs)
        if feedback_bits is None:
            quantizer, processes, warmup = None, 1, 0
        else:
            quantizer = planned_config(feedback_bits, length, gamma_r)
            processes, warmup = 2 * length, 0 if include_warmup else 2 * length
        feedback = protocol._codec_feedback(values, gamma_r, quantizer)
        return protocol._run_processes(
            link, values, processes, feedback, None, warmup, True
        )

    return same_outcome(kernel, oracle)


# Both accountings at twice the examples, so each gets about as many as one did.
_ACCOUNTING = st.sampled_from(["fluid", "integer"])


class TestKernelMatchesStateMachine:
    """The array kernel equals the per-slot state machine bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_TRACE_SNR, min_size=1, max_size=80), _ACCOUNTING)
    def test_full_csit(self, snrs, accounting):
        kernel_and_oracle(snrs, accounting=accounting)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 8.0]),
        st.booleans(),
        _ACCOUNTING,
        st.data(),
    )
    def test_quantized(self, length, rounds, fbits, include_warmup, accounting, data):
        # F = 1 cannot carry the worst mask: both must fail planning the same way
        horizon = 2 * length * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        kernel_and_oracle(snrs, fbits, length, include_warmup, accounting)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([20.0, 60.0]),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
        _ACCOUNTING,
        st.data(),
    )
    def test_quantized_cells_outnumber_the_slots(
        self, fbits, rounds, include_warmup, accounting, data
    ):
        # L = 8 plans K = 2**19 cells at F = 20 and K = 2**52 at F = 60,
        # far more than the at most 80 slots of a trace
        horizon = 16 * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        kernel_and_oracle(snrs, fbits, 8, include_warmup, accounting)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(None, 2), (2.0, 16), (4.0, 8), (2.0, 64)]),
        st.booleans(),
        _ACCOUNTING,
    )
    def test_rayleigh_traces(self, seed, scheme, include_warmup, accounting):
        # thousands of arbitrary doubles, each capacity from one array call in
        # the kernel and from one scalar call per slot in the state machine
        snrs = np.random.default_rng(seed).exponential(10.0, 2048).tolist()
        fbits, length = scheme
        kernel_and_oracle(snrs, fbits, length, include_warmup, accounting)

    @settings(deadline=None)
    @given(
        st.sampled_from([1, 2, 4]),
        st.lists(
            st.tuples(_TRACE_SNR, st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
            min_size=4,
            max_size=40,
        ),
    )
    def test_reports_above_the_snr(self, processes, slots):
        # Integer accounting on reports raised above the true SNR by up to
        # 3: the receiver's parity check fires at the first renewal whose
        # chain holds a short slot, in the kernel as in the state machine.
        snrs = np.array([snr for snr, _ in slots])
        reports = snrs + np.array([lift for _, lift in slots])
        link = make_link(rate=INT_RATE, accounting="integer")
        feedback = [
            ACK if snr >= link.gamma_r else report
            for snr, report in zip(snrs.tolist(), reports.tolist())
        ]
        same_outcome(
            lambda: protocol._run_kernel(
                link, snrs, processes, reports, None, 0, True
            ),
            lambda: protocol._run_processes(
                link, snrs.tolist(), processes, feedback, None, 0, True
            ),
        )

    @pytest.mark.parametrize("processes", [1, 2])
    def test_report_above_the_snr_breaks_the_chain(self, processes):
        link = make_link(rate=INT_RATE, accounting="integer")
        snrs = np.array([3.0] * processes + [25.0] * processes)
        reports = snrs.copy()
        reports[processes - 1] = 6.0  # the last process's outage, overstated
        with pytest.raises(ChainBrokenError) as caught:
            protocol._run_kernel(
                link, snrs, processes, reports, None, 0, False
            )
        slot = 2 * processes - 1
        required = 100 * (INT_RATE - capacity(3.0))
        assert str(caught.value) == (
            f"slot {slot} carries {float(math.ceil(100 * (INT_RATE - capacity(6.0))))} "
            f"parity bits, slot {slot - processes} needs {required}"
        )


class TestSlotLogBytes:
    """The slot log written column by column from kernel logs has the bytes
    that csv.writer and the reference's cells give, cell by cell, on the
    rows of the state machine's slot columns."""

    @staticmethod
    def assert_same_bytes(logs, columns, chunk=cli._SLOT_LOG_CHUNK):
        """`_write_slot_log` of `logs`, `chunk` rows at a time, against the
        reference `write_csv` of the rows of each replication's `columns`."""
        rows = [
            [rep, *row]
            for rep, rep_columns in enumerate(columns)
            for row in zip(*(rep_columns[name].tolist() for name in SLOT_FIELDS))
        ]
        with tempfile.TemporaryDirectory() as tmp:
            got_path, want_path = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
            with mock.patch.object(cli, "_SLOT_LOG_CHUNK", chunk):
                cli._write_slot_log(got_path, logs)
            csv_reference.write_csv(want_path, cli._SLOT_LOG_HEADER, rows)
            with open(got_path, "rb") as got, open(want_path, "rb") as want:
                assert got.read() == want.read()

    @classmethod
    def check(cls, traces, *scheme, chunk=cli._SLOT_LOG_CHUNK):
        kernel_logs, oracle_logs = [], []
        for snrs in traces:
            got, want = kernel_and_oracle(snrs, *scheme)
            assume(not isinstance(got, tuple))  # both hit the same budget error
            kernel_logs.append(got)
            oracle_logs.append(want)
        cls.assert_same_bytes(kernel_logs, [log.slot_columns for log in oracle_logs], chunk)

    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(
            st.just((None, 2)),
            st.tuples(st.sampled_from([1.5, 2.0, 4.0, 8.0]), st.integers(2, 8)),
        ),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        _ACCOUNTING,
        st.integers(min_value=1, max_value=9),
        st.data(),
    )
    def test_random_traces(self, scheme, replications, include_warmup, accounting, chunk,
                           data):
        # chunks of 1-9 rows: the logs here are too short to cross the default
        fbits, length = scheme
        if fbits is None:
            horizon = data.draw(st.integers(min_value=1, max_value=80))
        else:
            horizon = 2 * length * data.draw(st.integers(min_value=1, max_value=4))
        traces = [
            data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
            for _ in range(replications)
        ]
        self.check(traces, fbits, length, include_warmup, accounting, chunk=chunk)

    @settings(deadline=None, max_examples=10)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(None, 2), (2.0, 16), (4.0, 8)]),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        _ACCOUNTING,
    )
    def test_rayleigh_traces(self, seed, scheme, replications, include_warmup, accounting):
        # arbitrary doubles, hundreds of distinct values per column
        fbits, length = scheme
        rng = np.random.default_rng(seed)
        traces = [rng.exponential(10.0, 512).tolist() for _ in range(replications)]
        self.check(traces, fbits, length, include_warmup, accounting)

    def test_logs_longer_than_the_default_chunk(self):
        # 9001 = 2 full chunks and 809 rows; full-CSIT reports repeat the
        # SNRs of earlier slots, also across chunk boundaries
        link = LinkConfig(rate=4.0, slot_uses=100, accounting="integer")
        logs = []
        run_replicated(RunConfig(seed=3, replications=3, horizon=9001), link,
                       Rayleigh(10.0), collect_logs=logs)
        assert cli._SLOT_LOG_CHUNK < 9001 < 3 * cli._SLOT_LOG_CHUNK
        self.assert_same_bytes(logs, [log.slot_columns for log in logs])


class TestDeliveryOrder:
    """The kernel's renewal table lays the chains out back to back: the
    chain of length L renewed at slot r is the slots r - (L-1)P, ..., r,
    and this order is the slots sorted stably by delivery slot.  Its delay
    histogram is keyed in delay order."""

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([1, 2, 4, 16]),
        st.lists(st.one_of(st.just(0.0), _TRACE_SNR), min_size=1, max_size=80),
        st.integers(min_value=0, max_value=40),
    )
    def test_equals_a_stable_sort_by_delivery_slot(self, processes, snrs, warmup):
        # a zero SNR reports no side information, so the slot after it in
        # its process carries parity only and no new bits
        link = make_link(rate=RATE)
        snrs = np.array(snrs)
        n = len(snrs)
        log = protocol._run_kernel(
            link, snrs, processes, snrs, None, warmup, True
        )
        decoded = snrs >= link.gamma_r
        due = np.full(n, n)
        for t in range(n):
            ahead = [s for s in range(t, n, processes) if decoded[s]]
            if ahead:
                due[t] = ahead[0]
        sent = np.flatnonzero(due < n)
        want = sent[np.argsort(due[sent], kind="stable")]
        got = [
            slot - processes * back
            for slot, length in zip(log.renewal_slots.tolist(), log.chain_lengths.tolist())
            for back in range(length - 1, -1, -1)
        ]
        assert got == want.tolist()

        new_bits = log.slot_columns["new_bits"]
        hist: dict[int, float] = {}
        for t in want.tolist():
            if new_bits[t] > 0 and t >= warmup:
                delay = int(due[t]) - t
                hist[delay] = hist.get(delay, 0.0) + float(new_bits[t])
        assert_identical(list(log.delay_hist.items()), sorted(hist.items()))


class TestKernelCapacity:
    """The kernel's C is `capacity` called once on an array; it must give
    the bits of the scalar call the state machine makes for each slot."""

    @staticmethod
    def assert_same_bits(snrs):
        want = np.array([capacity(snr) for snr in snrs.tolist()])
        assert np.array_equal(capacity(snrs).view(np.int64), want.view(np.int64))

    def test_one_array_call_equals_the_scalar_calls(self):
        self.assert_same_bits(Rayleigh(10.0).sample(np.random.default_rng(16), 100_000))

    def test_every_length_and_offset(self):
        # views at offsets 0-8 into one buffer, lengths 1-69: the unaligned
        # heads and the short tails of the vector loops
        snrs = Rayleigh(10.0).sample(np.random.default_rng(17), 80)
        for offset in range(9):
            for length in range(1, 70):
                self.assert_same_bits(snrs[offset : offset + length])


class TestDeliveredBitsIdentity:
    """Fluid accounting: each parity pays exactly the shortfall N (R - C) of
    the report on the slot before it in its process, so a chain's new bits
    telescope to N (R + sum of C(report_t) over its outage slots t).  The
    report is the SNR itself under full CSIT and its cell's lower edge when
    quantized.  So a session delivers N * sum of v(t) over the slots t >= W
    of its completed chains, with v(t) = R for a decodable slot and
    C(report_t) otherwise, plus a warm-up edge term: a chain that straddles
    the W warm-up slots delivers N (C(report_t) - R) more for its last
    outage slot t < W, whose report sizes its first counted slot.

    Integer accounting: the same telescoping in whole bits, exactly.  With
    B bits per slot, v(t) = B for a decodable slot and otherwise B less
    the whole-bit parity sized from report_t, N (R - C(report_t)) rounded
    up (but for 1e-9); the edge term is v(t) - B."""

    @staticmethod
    def check(link, snrs, processes=1, include_warmup=True):
        n = len(snrs)
        trace = EmpiricalTrace(snrs.tolist())
        rng = np.random.default_rng(0)
        if processes == 1:
            log = run_full_csit(link, trace, n, rng)
            reports, warmup = snrs, 0
        else:
            log = run_quantized(link, trace, n, rng, include_warmup=include_warmup)
            quantizer = planned_config(link.feedback_bits, link.block_length, link.gamma_r)
            reports = cells(snrs, quantizer) * quantizer.cell_width
            warmup = 0 if include_warmup else processes
        decoded = snrs >= link.gamma_r
        slots = np.arange(n)
        last = np.full(processes, -1)
        np.maximum.at(last, slots[decoded] % processes, slots[decoded])
        completes = slots <= last[slots % processes]
        # W is 0 or P, so every outage slot before W is the last of its
        # chain there
        counted = completes & (slots >= warmup)
        edge = completes & (slots < warmup) & ~decoded
        if link.accounting == "integer":
            bits = link.bits_per_slot
            need = link.slot_uses * (link.rate - capacity(reports))
            v = np.where(decoded, bits, bits - np.ceil(need - 1e-9))
            want = math.fsum(v[counted].tolist()) + math.fsum((v[edge] - bits).tolist())
            assert log.delivered_bits == want
            return
        per_slot = np.where(decoded, link.rate, capacity(reports))
        want = link.slot_uses * (
            math.fsum(per_slot[counted].tolist())
            + math.fsum((capacity(reports[edge]) - link.rate).tolist())
        )
        # The kernel adds n terms in [0, N R] left to right: each addition
        # rounds by at most half an ulp of a partial sum below n N R, and
        # each term carries a few ulps of N R.
        bound = 4 * n * np.spacing(n * link.slot_uses * link.rate)
        assert abs(log.delivered_bits - want) <= bound

    @settings(deadline=None, max_examples=200)
    @given(st.lists(_TRACE_SNR, min_size=1, max_size=80))
    def test_random_traces(self, snrs):
        self.check(make_link(rate=RATE), np.array(snrs))

    @pytest.mark.parametrize("k", [2.0, 5.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rayleigh_sessions(self, k, seed):
        # 10 dB, R = log2(1 + k * 10): mean chains of e^k slots
        link = make_link(rate=math.log2(1.0 + k * 10.0))
        self.check(link, Rayleigh(10.0).sample(np.random.default_rng(seed), 40_000))

    @settings(deadline=None, max_examples=100)
    @given(st.lists(_TRACE_SNR, min_size=1, max_size=80))
    def test_integer_random_traces(self, snrs):
        self.check(make_link(rate=INT_RATE, accounting="integer"), np.array(snrs))

    @staticmethod
    def whole_bit_link(db, k, **kw):
        """Integer accounting at R = log2(1 + k * mean SNR), rounded to
        whole bits per slot."""
        rate = round(100 * math.log2(1.0 + k * 10.0 ** (db / 10.0))) / 100
        return make_link(rate=rate, accounting="integer", **kw)

    @pytest.mark.parametrize("db, k", [(10.0, 2.0), (10.0, 5.0), (5.0, 1.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_integer_rayleigh_sessions(self, db, k, seed):
        link = self.whole_bit_link(db, k)
        model = Rayleigh(10.0 ** (db / 10.0))
        self.check(link, model.sample(np.random.default_rng(seed), 40_000))

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([1.5, 2.0, 4.0, 8.0]),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.data(),
    )
    def test_quantized_random_traces(self, fbits, length, rounds, include_warmup, data):
        horizon = 2 * length * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        link = make_link(rate=RATE, feedback_bits=fbits, block_length=length)
        self.check(link, np.array(snrs), 2 * length, include_warmup)

    @pytest.mark.parametrize("include_warmup", [False, True])
    @pytest.mark.parametrize("db, k, fbits, length", [
        (20.0, 1.0, 4.0, 16), (10.0, 2.0, 2.0, 64), (5.0, 3.0, 2.0, 64),
    ])
    def test_quantized_rayleigh_sessions(self, db, k, fbits, length, include_warmup):
        mean_snr = 10.0 ** (db / 10.0)
        link = make_link(rate=math.log2(1.0 + k * mean_snr), feedback_bits=fbits,
                         block_length=length)
        snrs = Rayleigh(mean_snr).sample(np.random.default_rng(3), 2 * length * 2000)
        self.check(link, snrs, 2 * length, include_warmup)

    @pytest.mark.parametrize("db, k, fbits, length, include_warmup", [
        (20.0, 1.0, 4.0, 16, False), (5.0, 3.0, 2.0, 64, False),
        (10.0, 2.0, 2.0, 64, False), (10.0, 2.0, 2.0, 64, True),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_integer_quantized_rayleigh_sessions(self, db, k, fbits, length,
                                                 include_warmup, seed):
        link = self.whole_bit_link(db, k, feedback_bits=fbits, block_length=length)
        model = Rayleigh(10.0 ** (db / 10.0))
        snrs = model.sample(np.random.default_rng(seed), 2 * length * 2000)
        self.check(link, snrs, 2 * length, include_warmup)


class TestKernelEdgeCases:
    GOOD = 25.0  # above RATE's threshold gamma_R = 20

    def test_horizon_one(self):
        for snr in (self.GOOD, 3.0):
            log, _ = kernel_and_oracle([snr])
            assert log.renewal_count == (snr >= 20.0)
            assert log.renewals == [protocol.Renewal(0, 1)] * log.renewal_count
            reward = 100 * RATE if snr >= 20.0 else 0.0
            assert log.slot_columns["reward_bits"].tolist() == [reward]

    def test_warmup_fills_whole_horizon(self):
        log, _ = kernel_and_oracle([self.GOOD, 3.0, 7.0, self.GOOD], 4.0, 2)
        assert log.warmup_slots == log.horizon == 4
        assert log.injected_bits == log.delivered_bits == log.delivered_rate == 0.0
        assert log.delay_hist == {}

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_all_outage(self, tmp_path, fbits):
        snrs = [3.0, 0.5, 19.0, 7.0] * 4
        log, _ = kernel_and_oracle(snrs, fbits, 2)
        assert log.renewal_count == 0
        assert log.renewals == []
        for table in (log.renewal_slots, log.chain_lengths):
            assert table.shape == (0,) and table.dtype == np.int64
        assert log.slot_columns["reward_bits"].tolist() == [0.0] * len(snrs)
        no_chains = protocol._chain_rewards(np.zeros(0), np.zeros(0, dtype=np.int64))
        assert no_chains.shape == (0,)
        assert log.delay_hist == {}
        assert log.delivered_bits == 0.0
        link = make_link(rate=RATE, feedback_bits=fbits, block_length=2)
        run = RunConfig(seed=1, replications=1, horizon=len(snrs))
        summary = run_replicated(run, link, EmpiricalTrace(snrs))
        path = tmp_path / "summary.json"
        cli._write_json(str(path), summary.to_json_dict())
        assert json.loads(path.read_text())["delay_mean"] is None

    def test_long_chains_keep_the_receiver_order(self):
        # chains of 301, 401 and 4 slots: a pairwise or segmented sum of
        # their new bits lands a few ulps off the receiver's running sum
        outages = np.random.default_rng(0).uniform(0.0, 20.0, 703).tolist()
        good = [self.GOOD]
        log, oracle = kernel_and_oracle(
            outages[:300] + good + outages[300:700] + good + outages[700:] + good
        )
        want = oracle.slot_columns["reward_bits"][oracle.renewal_slots].tolist()
        assert oracle.chain_lengths.tolist() == [301, 401, 4]
        assert_identical(log.slot_columns["reward_bits"][log.renewal_slots].tolist(), want)
        new_bits = oracle.slot_columns["new_bits"]
        assert np.add.reduceat(new_bits, [0, 301, 702]).tolist() != want
        assert float(np.sum(new_bits[301:702])) != want[1]

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_all_decoding(self, fbits):
        log, _ = kernel_and_oracle([self.GOOD] * 16, fbits, 2, include_warmup=True)
        assert log.renewal_count == 16
        assert log.chain_lengths.tolist() == [1] * 16
        assert log.delay_hist == {0: 16 * 100 * RATE}
        assert log.undelivered_bits == 0.0

    @pytest.mark.parametrize("accounting", ["fluid", "integer"])
    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_nothing_held_is_the_float_zero(self, fbits, accounting):
        # every delivered window is released in order, in one process and in
        # four: both producers report the float 0.0, not the int 0
        log, oracle = kernel_and_oracle([25.0, 25.0, 3.0, 3.0], fbits, 2, True, accounting)
        assert repr(log.held_window_bits) == repr(oracle.held_window_bits) == "0.0"

    @pytest.mark.parametrize("below", [1, 100])
    def test_integer_parity_just_below_threshold_is_positive_zero(self, below):
        # an outage SNR within ulps of gamma_R leaves under 1e-9 bits to
        # cover: integer parity is 0.0, never the -0.0 np.ceil gives
        snr = 2.0**INT_RATE - 1.0
        for _ in range(below):
            snr = math.nextafter(snr, 0.0)
        log, _ = kernel_and_oracle([snr, 3.0, 25.0], accounting="integer")
        assert repr(log.slot_columns["parity_bits"].tolist()[1]) == "0.0"
        assert log.slot_columns["new_bits"][1] == 439.0

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_snr_at_threshold_decodes(self, fbits):
        gamma_r = 2.0**RATE - 1.0
        log, _ = kernel_and_oracle([3.0, gamma_r, gamma_r, 3.0], fbits, 2, True)
        assert log.slot_columns["decoded"].tolist() == [False, True, True, False]

    @pytest.mark.parametrize(
        "fbits, snrs, zero_slot",
        [(None, [0.0, 25.0], 1), (4.0, [0.0, 3.0, 3.0, 3.0, 25.0, 3.0, 3.0, 3.0], 4)],
    )
    def test_zero_snr_sends_no_new_bits(self, fbits, snrs, zero_slot):
        # SNR 0 reports cell 0, whose lower edge is 0: the next slot of its
        # process is all parity, and its zero new bits stay out of delay_hist
        log, _ = kernel_and_oracle(snrs, fbits, 2, include_warmup=True)
        columns = log.slot_columns
        assert columns["eff_snr"][zero_slot] == 0.0
        assert columns["new_bits"][zero_slot] == 0.0
        assert columns["renewal"][zero_slot]
        assert log.delay_hist == {zero_slot: 100 * RATE}


class TestRxStep:
    def test_immediate_renewal_chain_length_one(self):
        link = make_link()
        tx, rx, _ = fresh_session(link)
        pkt = tx.step(0, ACK)
        chain = rx.step(0, 5.0, pkt)
        assert chain == [pkt]  # delivered in its own slot, delay 0
        assert pkt.new_bits == pytest.approx(200.0)

    def test_worked_three_slot_chain(self):
        # two outage slots resolved by a third decodable one
        link = make_link(rate=RATE)
        tx, rx, stream = fresh_session(link)
        snrs = [3.0, 7.0, 25.0]
        feedback = ACK
        chain = None
        for t, snr in enumerate(snrs):
            pkt = tx.step(t, feedback)
            chain = rx.step(t, snr, pkt)
            feedback = ACK if snr >= link.gamma_r else snr
        assert chain is not None
        assert [p.slot for p in chain] == [0, 1, 2]  # payload order
        assert [p.eff_snr for p in chain] == [ACK, 3.0, 7.0]
        reward = sum(p.new_bits for p in chain)
        expected = 100 * (RATE + capacity(3.0) + capacity(7.0))
        assert reward == pytest.approx(expected, abs=1e-9)
        assert reward == pytest.approx(reward_of_chain(RATE, 100, [3.0, 7.0]), abs=1e-9)
        # delivered rate over the three slots matches the closed form
        rate = reward / (100 * 3)
        assert rate == pytest.approx(
            analytics.three_slot_backtrack_rate(RATE, 3.0, 7.0), abs=1e-12
        )
        # everything released in order
        assert stream.released_bits == pytest.approx(reward)
        assert stream.ok

    def test_chain_broken_on_unsafe_feedback(self):
        # feedback overstates the SNR of the buffered slot, so the parity
        # in the next packet cannot cover the true deficit
        link = make_link()
        tx, rx, _ = fresh_session(link)
        pkt = tx.step(0, ACK)
        assert rx.step(0, 1.0, pkt) is None  # outage, buffered
        lying = tx.step(1, 2.0)  # claims C = 1.58, truth needs 100 parity bits
        with pytest.raises(ChainBrokenError):
            rx.step(1, 30.0, lying)


class TestRunFullCsit:
    def test_deterministic_above_threshold(self):
        link = make_link()
        log = run_full_csit(link, Deterministic(5.0), 50, np.random.default_rng(0))
        assert log.delivered_rate == pytest.approx(link.rate)
        assert log.renewal_count == 50
        assert log.undelivered_bits == 0.0
        assert log.integrity_ok

    def test_deterministic_below_threshold(self):
        link = make_link()
        log = run_full_csit(link, Deterministic(1.0), 50, np.random.default_rng(0))
        assert log.delivered_rate == 0.0
        assert log.renewal_count == 0
        assert log.undelivered_bits == pytest.approx(log.injected_bits)

    def test_rate_matches_quadrature(self):
        link = make_link(rate=RATE)
        model = Rayleigh(10.0)
        log = run_full_csit(link, model, 200_000, np.random.default_rng(1))
        target = analytics.avg_rate_full_csit(model, RATE)
        assert log.delivered_rate == pytest.approx(target, rel=0.01)

    def test_conservation_against_slot_records(self):
        link = make_link(rate=RATE)
        log = run_full_csit(
            link, Rayleigh(10.0), 5000, np.random.default_rng(2), record_slots=True
        )
        columns = log.slot_columns
        renewal = columns["renewal"]
        injected = sum(columns["new_bits"].tolist())
        delivered = sum(columns["reward_bits"][renewal].tolist())
        assert injected == pytest.approx(log.injected_bits, abs=1e-6)
        assert delivered == pytest.approx(log.delivered_bits, abs=1e-6)
        assert log.undelivered_bits == pytest.approx(injected - delivered, abs=1e-6)
        last_renewal = max(columns["slot"][renewal].tolist(), default=-1)
        tail = sum(columns["new_bits"][columns["slot"] > last_renewal].tolist())
        assert log.undelivered_bits == pytest.approx(tail, abs=1e-6)
        # single-process delivery is in payload order: nothing is ever held
        assert log.released_bits == pytest.approx(log.delivered_bits, abs=1e-6)
        assert log.held_window_bits == 0.0

    def test_lemma_reward_equality(self):
        # a chain of L slots ending at slot r is sized from the reports of
        # its L - 1 outage slots, read in slots r - L + 2, ..., r
        link = make_link(rate=RATE)
        log = run_full_csit(
            link, Rayleigh(10.0), 20_000, np.random.default_rng(4), record_slots=True
        )
        assert log.renewal_count > 100
        eff_snr = log.slot_columns["eff_snr"].tolist()
        rewards = log.slot_columns["reward_bits"].tolist()
        for slot, length in log.renewals:
            reports = eff_snr[slot - length + 2 : slot + 1]
            assert len(reports) == length - 1
            recomputed = reward_of_chain(link.rate, link.slot_uses, reports)
            assert rewards[slot] == pytest.approx(recomputed, abs=1e-6)

    def test_mean_delay_near_geometric(self):
        link = make_link(rate=RATE)
        log = run_full_csit(link, Rayleigh(10.0), 200_000, np.random.default_rng(6))
        assert log.mean_delay == pytest.approx(math.exp(2.0) - 1.0, rel=0.05)

    def test_trace_coupled_min_accounting(self):
        # cumulative reward at every renewal equals N * sum min(C, R)
        rng = np.random.default_rng(8)
        snrs = tuple(rng.exponential(10.0, 3000))
        link = make_link(rate=RATE)
        log = run_full_csit(
            link, EmpiricalTrace(snrs), 3000, np.random.default_rng(0), record_slots=True
        )
        caps = [min(capacity(s), link.rate) for s in snrs]
        rewards = log.slot_columns["reward_bits"].tolist()
        cum = 0.0
        running = 0.0
        idx = 0
        for slot in log.renewal_slots.tolist():
            cum += rewards[slot]
            while idx <= slot:
                running += link.slot_uses * caps[idx]
                idx += 1
            assert abs(cum - running) < 1e-6 * (slot + 1)

    def test_same_seed_reproduces(self):
        link = make_link(rate=RATE)
        model = Rayleigh(10.0)
        a = run_full_csit(link, model, 2000, np.random.default_rng(11))
        b = run_full_csit(link, model, 2000, np.random.default_rng(11))
        assert a.delivered_rate == b.delivered_rate
        assert a.delay_hist == b.delay_hist

    def test_integer_mode_conserves_whole_bits(self):
        link = make_link(rate=4.0, accounting="integer")
        log = run_full_csit(
            link, Rayleigh(10.0), 3000, np.random.default_rng(12), record_slots=True
        )
        parity, new_bits = log.slot_columns["parity_bits"], log.slot_columns["new_bits"]
        assert np.array_equal(parity, np.floor(parity))
        assert np.array_equal(new_bits, np.floor(new_bits))
        assert np.all(parity + new_bits == 400)
        assert log.integrity_ok


def enumerate_chains(pattern, outage_caps, rate, slot_uses):
    """Reference renewal bookkeeping computed directly from a success
    pattern: reward per renewal and the undelivered tail."""
    rewards = []
    pending = 0.0
    fresh = True
    for i, ok in enumerate(pattern):
        new_bits = slot_uses * rate if fresh else slot_uses * outage_caps[i - 1]
        pending += new_bits
        if ok:
            rewards.append(pending)
            pending = 0.0
            fresh = True
        else:
            fresh = False
    return rewards, pending


class TestPatternEnumeration:
    def test_all_patterns_six_slots(self):
        # every success/fail pattern over a fixed outage-SNR vector
        outage = [1.0, 0.4, 2.2, 0.0, 1.7, 2.9]
        good = 25.0
        link = make_link(rate=RATE)
        caps = [capacity(s) for s in outage]
        for pattern in itertools.product((False, True), repeat=6):
            snrs = tuple(good if ok else outage[i] for i, ok in enumerate(pattern))
            log = run_full_csit(
                link, EmpiricalTrace(snrs), 6, np.random.default_rng(0), record_slots=True
            )
            # on success slots the trace uses `good`, so the accounting
            # reference uses min(C, R) = R there and C(outage) elsewhere
            ref_caps = [link.rate if ok else caps[i] for i, ok in enumerate(pattern)]
            rewards, pending = enumerate_chains(pattern, ref_caps, link.rate, 100)
            got = log.slot_columns["reward_bits"][log.renewal_slots].tolist()
            assert len(got) == len(rewards)
            for a, b in zip(got, rewards):
                assert a == pytest.approx(b, abs=1e-9)
            assert log.undelivered_bits == pytest.approx(pending, abs=1e-9)
            assert log.delivered_bits + log.undelivered_bits == pytest.approx(
                log.injected_bits, abs=1e-9
            )


class TestReassemblyStream:
    def _stream(self):
        rng = np.random.default_rng(21)
        tx = SourceStream(rng, materialize=True)
        replay = np.random.default_rng(21)
        return tx, ReassemblyStream(SourceStream(replay, materialize=True))

    def test_in_order_release(self):
        tx, stream = self._stream()
        for _ in range(5):
            offset, payload = tx.fetch(40)
            stream.push(offset, 40, payload)
        assert stream.released_bits == 200
        assert stream.ok

    def test_out_of_order_held_then_released(self):
        tx, stream = self._stream()
        first = tx.fetch(40)
        second = tx.fetch(40)
        stream.push(second[0], 40, second[1])
        assert stream.released_bits == 0
        assert stream.pending_bits == 40
        stream.push(first[0], 40, first[1])
        assert stream.released_bits == 80
        assert stream.ok

    def test_detects_corruption(self):
        tx, stream = self._stream()
        offset, payload = tx.fetch(40)
        tampered = payload.copy()
        tampered[3] ^= 1
        stream.push(offset, 40, tampered)
        assert not stream.ok

    def test_detects_swapped_windows(self):
        tx, stream = self._stream()
        a = tx.fetch(40)
        b = tx.fetch(40)
        stream.push(a[0], 40, b[1])  # right offset, wrong bits
        assert not stream.ok


class TestRunQuantized:
    def test_deterministic_above_threshold(self):
        link = make_link(feedback_bits=2.0, block_length=4)
        log = run_quantized(
            link, Deterministic(5.0), 8 * 20, np.random.default_rng(0)
        )
        assert log.delivered_rate == pytest.approx(link.rate)
        assert log.integrity_ok

    def test_horizon_must_be_block_multiple(self):
        link = make_link(feedback_bits=2.0, block_length=4)
        with pytest.raises(ValueError):
            run_quantized(link, Deterministic(5.0), 12, np.random.default_rng(0))

    def test_needs_feedback_budget(self):
        link = make_link()
        with pytest.raises(ValueError):
            run_quantized(link, Deterministic(5.0), 8, np.random.default_rng(0))

    def test_coupled_large_budget_approaches_full_csit(self):
        # same seed means the same SNR draws slot by slot; with a huge
        # budget the distortion is negligible, so only per-process tail
        # effects separate the two runs
        model = Rayleigh(10.0)
        length = 8
        horizon = 2 * length * 300
        full_link = make_link(rate=RATE)
        quant_link = make_link(rate=RATE, feedback_bits=30.0, block_length=length)
        full = run_full_csit(full_link, model, horizon, np.random.default_rng(5))
        quant = run_quantized(
            quant_link, model, horizon, np.random.default_rng(5), include_warmup=True
        )
        assert quant.delivered_rate <= full.delivered_rate + 1e-9
        assert full.delivered_rate - quant.delivered_rate < 0.05

    @staticmethod
    def operational_rate(model, link, cell_count):
        """Mean and standard deviation of one slot's new bits per channel use.

        A slot carries R after a decoded predecessor and C(j*d) after one
        whose SNR fell in cell j, [j*d, (j+1)*d) with d = gamma_R / K: the
        report is the cell's lower edge.  Each slot's value depends on its
        own predecessor's SNR only, so the values are i.i.d.
        """
        m = model.mean_snr
        edges = np.arange(cell_count + 1) * (link.gamma_r / cell_count)
        probs = np.append(np.exp(-edges[:-1] / m) - np.exp(-edges[1:] / m),
                          math.exp(-link.gamma_r / m))
        values = np.append(np.log2(1.0 + edges[:-1]), link.rate)
        mean = probs @ values
        return mean, math.sqrt(probs @ (values - mean) ** 2)

    def test_sim_below_analytic_reference(self):
        # (mean SNR dB, k, F, L, K) with R = log2(1 + k * mean SNR).  A slot
        # is lost if it and every later slot of its process fail, so chains
        # still open at the horizon hold back (1 - p_R) / p_R slots' worth
        # of new bits per process in expectation.
        for db, k, fbits, length, cell_count in [
            (10.0, 2.0, 1.5, 64, 1), (10.0, 2.0, 2.0, 64, 2), (20.0, 1.0, 4.0, 16, 8),
        ]:
            model = Rayleigh(10.0 ** (db / 10.0))
            rate = math.log2(1.0 + k * model.mean_snr)
            link = make_link(rate=rate, feedback_bits=fbits, block_length=length)
            assert planned_config(fbits, length, link.gamma_r).cell_count == cell_count
            processes, horizon = 2 * length, 2 * length * 2000
            log = run_quantized(link, model, horizon, np.random.default_rng(9))
            counted = horizon - processes  # after the warm-up blocks
            mean, sd = self.operational_rate(model, link, cell_count)
            p_r = model.decode_prob(link.gamma_r)
            open_chains = processes * (1.0 - p_r) / p_r / counted
            expected = mean * (1.0 - open_chains)
            assert abs(log.delivered_rate - expected) < 6.0 * sd / math.sqrt(counted)
            assert log.integrity_ok

    def test_degenerate_single_cell_rate(self):
        # F=1.5, L=64 plans a single cell: every chained packet is pure
        # parity and the delivered rate collapses to about R * p_R
        model = Rayleigh(10.0)
        link = make_link(rate=RATE, feedback_bits=1.5, block_length=64)
        log = run_quantized(link, model, 128 * 500, np.random.default_rng(9))
        p_r = model.decode_prob(link.gamma_r)
        assert log.delivered_rate == pytest.approx(link.rate * p_r, rel=0.05)

    def test_no_chain_breaks_and_integrity_randomized(self):
        model = Rayleigh(10.0)
        for seed in range(5):
            link = make_link(rate=RATE, feedback_bits=2.0, block_length=16)
            log = run_quantized(
                link, model, 32 * 100, np.random.default_rng(seed)
            )
            assert log.integrity_ok

    def test_warmup_exclusion_default(self):
        link = make_link(feedback_bits=2.0, block_length=4)
        log = run_quantized(link, Deterministic(5.0), 8 * 10, np.random.default_rng(0))
        assert log.warmup_slots == 8
        with_warmup = run_quantized(
            link,
            Deterministic(5.0),
            8 * 10,
            np.random.default_rng(0),
            include_warmup=True,
        )
        assert with_warmup.warmup_slots == 0
        assert with_warmup.injected_bits > log.injected_bits

    def test_instance_interleaving_in_records(self):
        link = make_link(feedback_bits=2.0, block_length=4)
        log = run_quantized(
            link,
            Deterministic(5.0),
            8 * 3,
            np.random.default_rng(0),
            record_slots=True,
        )
        block, pos = np.divmod(log.slot_columns["slot"], 4)
        assert np.array_equal(log.slot_columns["instance"], (block % 2) * 4 + pos)

    def test_integer_mode_byte_exact_prefix(self):
        link = make_link(
            rate=4.0, feedback_bits=2.0, block_length=16, accounting="integer"
        )
        log = run_quantized(
            link, Rayleigh(10.0), 32 * 200, np.random.default_rng(13), record_slots=True
        )
        assert log.integrity_ok
        assert log.delivered_bits > 0
        assert log.released_bits > 0
        # every decoded window is either released in order or held behind
        # a gap; together they account for all chain rewards exactly
        pushed = sum(log.slot_columns["reward_bits"].tolist())
        assert log.released_bits + log.held_window_bits == pytest.approx(
            pushed, abs=1e-6
        )


class TestVerifyWindows:
    """The integer payload check: released windows against a replay."""

    SIZES = np.array([40, 0, 25, 31, 0, 7, 12, 50])
    DELIVERY = [2, 0, 7, 3, 1, 6, 5, 4]  # not offset order

    def windows(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        fingerprints = rng.bit_generator.random_raw(len(self.SIZES))
        offsets = np.cumsum(self.SIZES) - self.SIZES
        order = self.DELIVERY
        return offsets[order], self.SIZES[order], fingerprints[order], state

    def verify(self, offsets, sizes, fingerprints, state, unresolved=None):
        if unresolved is None:
            unresolved = int(self.SIZES.sum())
        return protocol.verify_windows(
            offsets, sizes, fingerprints, unresolved, self.SIZES, state
        )

    def test_passes_in_any_delivery_order(self):
        assert self.verify(*self.windows()) is True

    def test_windows_past_the_first_unresolved_one_are_held(self):
        # window 5 (7 bits at offset 96) is still buffered: windows 6 and 7
        # are held, whatever they hold
        offsets, sizes, fingerprints, state = self.windows()
        keep = [self.DELIVERY.index(i) for i in (2, 0, 7, 3, 1, 6, 4)]
        fingerprints[self.DELIVERY.index(7)] ^= 1
        assert self.verify(
            offsets[keep], sizes[keep], fingerprints[keep], state, unresolved=96
        )

    def test_fails_on_a_dropped_window(self):
        offsets, sizes, fingerprints, state = self.windows()
        keep = [i for i in range(8) if self.DELIVERY[i] != 3]
        assert not self.verify(offsets[keep], sizes[keep], fingerprints[keep], state)

    def test_fails_on_a_window_delivered_twice(self):
        offsets, sizes, fingerprints, state = self.windows()
        again = self.DELIVERY.index(3)
        assert not self.verify(
            np.append(offsets, offsets[again]),
            np.append(sizes, sizes[again]),
            np.append(fingerprints, fingerprints[again]),
            state,
        )

    def test_fails_on_two_windows_swapped(self):
        offsets, sizes, fingerprints, state = self.windows()
        a, b = self.DELIVERY.index(2), self.DELIVERY.index(3)
        fingerprints[[a, b]] = fingerprints[[b, a]]
        assert not self.verify(offsets, sizes, fingerprints, state)

    def test_fails_on_a_window_one_bit_short(self):
        offsets, sizes, fingerprints, state = self.windows()
        sizes[self.DELIVERY.index(7)] -= 1
        assert not self.verify(offsets, sizes, fingerprints, state)

    def test_fails_on_a_flipped_fingerprint(self):
        offsets, sizes, fingerprints, state = self.windows()
        fingerprints[self.DELIVERY.index(3)] ^= 1 << 40
        assert not self.verify(offsets, sizes, fingerprints, state)
