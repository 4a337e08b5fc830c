import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brqsim import analytics, protocol
from brqsim.channel import Deterministic, EmpiricalTrace, LinkConfig, Rayleigh, capacity
from brqsim.engine import RunConfig, run_replicated
from brqsim.errors import BrqError, ChainBrokenError
from brqsim.protocol import (
    ACK,
    BrqReceiver,
    BrqTransmitter,
    ReassemblyStream,
    SourceStream,
    parity_bit_count,
    reward_of_chain,
    run_full_csit,
    run_quantized,
)
from brqsim.quantizer import planned_config

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
    def test_no_deficit(self):
        assert parity_bit_count(2.0, 5.0, 100) == 0.0

    def test_half_deficit(self):
        assert parity_bit_count(2.0, 1.0, 100) == pytest.approx(100.0)

    def test_zero_side_information(self):
        assert parity_bit_count(2.0, 0.0, 100) == pytest.approx(200.0)

    def test_integer_mode_rounds_up(self):
        raw = 100 * (4.0 - capacity(7.5))
        assert parity_bit_count(4.0, 7.5, 100, "integer") == math.ceil(raw)
        # exact integers stay exact
        assert parity_bit_count(2.0, 1.0, 100, "integer") == 100.0

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            parity_bit_count(2.0, -1.0, 100)


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


class TestRewardOfChain:
    def test_empty_chain(self):
        assert reward_of_chain(2.0, 100, []) == pytest.approx(200.0)

    def test_two_outage_slots(self):
        got = reward_of_chain(2.0, 100, [1.0, 0.5])
        assert got == pytest.approx(100 * (2.0 + 1.0 + capacity(0.5)))

    def test_rejects_decodable_snr(self):
        with pytest.raises(ValueError):
            reward_of_chain(2.0, 100, [3.0])


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
    # Cell indices and edges are rounded, so at a cell edge the quantized
    # bound can land a few ulps off; the receiver's parity check allows 1e-9 bits.
    slack = 1e-12 * gamma_r
    assert [rec.slot for rec in log.slot_records] == list(range(len(snrs)))
    for rec in log.slot_records:
        t = rec.slot
        assert rec.instance == t % processes
        if t < processes or snrs[t - processes] >= gamma_r:
            assert rec.eff_snr is None
        elif cell_width == 0.0:
            assert rec.eff_snr == snrs[t - processes]
        else:
            reported = snrs[t - processes]
            assert reported - cell_width - slack < rec.eff_snr <= reported + slack


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
        # with F >= 4 and L <= 8 every block fits the budget that the planner
        # sizes for an all-failed block
        horizon = 2 * length * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        link = make_link(rate=RATE, feedback_bits=fbits, block_length=length)
        trace = EmpiricalTrace(snrs)
        log = run_quantized(
            link, trace, horizon, np.random.default_rng(0), record_slots=True
        )
        gamma_r = link.gamma_r
        d = planned_config(fbits, length, trace.decode_prob(gamma_r), gamma_r).cell_width
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


def same_outcome(kernel, oracle):
    """Run both session functions and check they agree exactly: every
    scalar of the log, `delay_hist` with its key order, every renewal and
    every slot record, or the same error type and message.

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
    assert_identical(list(got.renewals), want.renewals)
    assert_identical(got.slot_records, want.slot_records)
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
            p_r = trace.decode_prob(gamma_r)
            quantizer = planned_config(feedback_bits, length, p_r, gamma_r)
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
        # small budgets overflow on some blocks: both must fail the same way
        horizon = 2 * length * rounds
        snrs = data.draw(st.lists(_TRACE_SNR, min_size=horizon, max_size=horizon))
        kernel_and_oracle(snrs, fbits, length, include_warmup, accounting)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(None, 2), (2.0, 16), (4.0, 8), (2.0, 64)]),
        st.booleans(),
        _ACCOUNTING,
    )
    def test_rayleigh_traces(self, seed, scheme, include_warmup, accounting):
        # thousands of arbitrary doubles: np.log2 in place of math.log2 differs
        # from `capacity` in the last bit on about 0.1% of them
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
            lambda: protocol._run_kernel(link, snrs, processes, reports, None, 0, True),
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
            protocol._run_kernel(link, snrs, processes, reports, None, 0, False)
        slot = 2 * processes - 1
        required = 100 * (INT_RATE - capacity(3.0))
        assert str(caught.value) == (
            f"slot {slot} carries {float(math.ceil(100 * (INT_RATE - capacity(6.0))))} "
            f"parity bits, slot {slot - processes} needs {required}"
        )


class TestKernelEdgeCases:
    GOOD = 25.0  # above RATE's threshold gamma_R = 20

    def test_horizon_one(self):
        for snr in (self.GOOD, 3.0):
            log, _ = kernel_and_oracle([snr])
            assert log.renewal_count == (snr >= 20.0)

    def test_warmup_fills_whole_horizon(self):
        log, _ = kernel_and_oracle([self.GOOD, 3.0, 7.0, self.GOOD], 4.0, 2)
        assert log.warmup_slots == log.horizon == 4
        assert log.injected_bits == log.delivered_bits == log.delivered_rate == 0.0
        assert log.delay_hist == {}

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_all_outage(self, fbits):
        snrs = [3.0, 0.5, 19.0, 7.0] * 4
        log, _ = kernel_and_oracle(snrs, fbits, 2)
        assert log.renewal_count == 0
        assert list(log.renewals) == []
        assert log.delay_hist == {}
        assert log.delivered_bits == 0.0
        link = make_link(rate=RATE, feedback_bits=fbits, block_length=2)
        run = RunConfig(seed=1, replications=1, horizon=len(snrs))
        summary = run_replicated(run, link, EmpiricalTrace(snrs))
        assert summary.to_json_dict()["delay_mean"] is None

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_all_decoding(self, fbits):
        log, _ = kernel_and_oracle([self.GOOD] * 16, fbits, 2, include_warmup=True)
        assert log.renewal_count == 16
        assert all(r.chain_length == 1 for r in log.renewals)
        assert log.delay_hist == {0: 16 * 100 * RATE}
        assert log.undelivered_bits == 0.0

    @pytest.mark.parametrize("below", [1, 100])
    def test_integer_parity_just_below_threshold_is_positive_zero(self, below):
        # an outage SNR within ulps of gamma_R leaves under 1e-9 bits to
        # cover: integer parity is 0.0, never the -0.0 np.ceil gives
        snr = 2.0**INT_RATE - 1.0
        for _ in range(below):
            snr = math.nextafter(snr, 0.0)
        log, _ = kernel_and_oracle([snr, 3.0, 25.0], accounting="integer")
        assert repr(log.slot_records[1].parity_bits) == "0.0"
        assert log.slot_records[1].new_bits == 439.0

    @pytest.mark.parametrize("fbits", [None, 4.0])
    def test_snr_at_threshold_decodes(self, fbits):
        gamma_r = 2.0**RATE - 1.0
        log, _ = kernel_and_oracle([3.0, gamma_r, gamma_r, 3.0], fbits, 2, True)
        assert [r.decoded for r in log.slot_records] == [False, True, True, False]

    @pytest.mark.parametrize(
        "fbits, snrs, zero_slot",
        [(None, [0.0, 25.0], 1), (4.0, [0.0, 3.0, 3.0, 3.0, 25.0, 3.0, 3.0, 3.0], 4)],
    )
    def test_zero_snr_sends_no_new_bits(self, fbits, snrs, zero_slot):
        # SNR 0 reports cell 0, whose lower edge is 0: the next slot of its
        # process is all parity, and its zero new bits stay out of delay_hist
        log, _ = kernel_and_oracle(snrs, fbits, 2, include_warmup=True)
        assert log.slot_records[zero_slot].eff_snr == 0.0
        assert log.slot_records[zero_slot].new_bits == 0.0
        assert log.slot_records[zero_slot].renewal
        assert log.delay_hist == {zero_slot: 100 * RATE}


class TestRxStep:
    def test_immediate_renewal_chain_length_one(self):
        link = make_link()
        tx, rx, _ = fresh_session(link)
        pkt = tx.step(0, ACK)
        record = rx.step(0, 5.0, pkt)
        assert record is not None
        assert record.chain_length == 1
        assert record.reward_bits == pytest.approx(200.0)
        assert record.bit_delays == [(pytest.approx(200.0), 0)]

    def test_worked_three_slot_chain(self):
        # two outage slots resolved by a third decodable one
        link = make_link(rate=RATE)
        tx, rx, stream = fresh_session(link)
        snrs = [3.0, 7.0, 25.0]
        feedback = ACK
        record = None
        for t, snr in enumerate(snrs):
            pkt = tx.step(t, feedback)
            record = rx.step(t, snr, pkt)
            feedback = ACK if snr >= link.gamma_r else snr
        assert record is not None
        assert record.chain_length == 3
        expected = 100 * (RATE + capacity(3.0) + capacity(7.0))
        assert record.reward_bits == pytest.approx(expected, abs=1e-9)
        assert record.reward_bits == pytest.approx(
            reward_of_chain(RATE, 100, [3.0, 7.0]), abs=1e-9
        )
        # delivered rate over the three slots matches the closed form
        rate = record.reward_bits / (100 * 3)
        assert rate == pytest.approx(
            analytics.three_slot_backtrack_rate(RATE, 3.0, 7.0), abs=1e-12
        )
        # everything released in order
        assert stream.released_bits == pytest.approx(record.reward_bits)
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
        injected = sum(r.new_bits for r in log.slot_records)
        delivered = sum(r.reward_bits for r in log.slot_records if r.renewal)
        assert injected == pytest.approx(log.injected_bits, abs=1e-6)
        assert delivered == pytest.approx(log.delivered_bits, abs=1e-6)
        assert log.undelivered_bits == pytest.approx(injected - delivered, abs=1e-6)
        last_renewal = max(
            (r.slot for r in log.slot_records if r.renewal), default=-1
        )
        tail = sum(r.new_bits for r in log.slot_records if r.slot > last_renewal)
        assert log.undelivered_bits == pytest.approx(tail, abs=1e-6)
        # single-process delivery is in payload order: nothing is ever held
        assert log.released_bits == pytest.approx(log.delivered_bits, abs=1e-6)
        assert log.held_window_bits == 0.0

    def test_lemma_reward_equality(self):
        link = make_link(rate=RATE)
        log = run_full_csit(link, Rayleigh(10.0), 20_000, np.random.default_rng(4))
        assert log.renewal_count > 100
        for record in log.renewals:
            recomputed = reward_of_chain(link.rate, link.slot_uses, record.effective_snrs)
            assert record.reward_bits == pytest.approx(recomputed, abs=1e-6)
            assert len(record.effective_snrs) == record.chain_length - 1

    def test_mean_delay_near_geometric(self):
        link = make_link(rate=RATE)
        log = run_full_csit(link, Rayleigh(10.0), 200_000, np.random.default_rng(6))
        assert log.mean_delay == pytest.approx(math.exp(2.0) - 1.0, rel=0.05)

    def test_trace_coupled_min_accounting(self):
        # cumulative reward at every renewal equals N * sum min(C, R)
        rng = np.random.default_rng(8)
        snrs = tuple(rng.exponential(10.0, 3000))
        link = make_link(rate=RATE)
        log = run_full_csit(link, EmpiricalTrace(snrs), 3000, np.random.default_rng(0))
        caps = [min(capacity(s), link.rate) for s in snrs]
        cum = 0.0
        running = 0.0
        idx = 0
        for record in log.renewals:
            cum += record.reward_bits
            while idx <= record.slot:
                running += link.slot_uses * caps[idx]
                idx += 1
            assert abs(cum - running) < 1e-6 * (record.slot + 1)

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
        for rec in log.slot_records:
            assert rec.parity_bits == int(rec.parity_bits)
            assert rec.new_bits == int(rec.new_bits)
            assert rec.parity_bits + rec.new_bits == 400
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
                link, EmpiricalTrace(snrs), 6, np.random.default_rng(0)
            )
            # on success slots the trace uses `good`, so the accounting
            # reference uses min(C, R) = R there and C(outage) elsewhere
            ref_caps = [link.rate if ok else caps[i] for i, ok in enumerate(pattern)]
            rewards, pending = enumerate_chains(pattern, ref_caps, link.rate, 100)
            got = [r.reward_bits for r in log.renewals]
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

    def test_sim_below_analytic_reference(self):
        model = Rayleigh(10.0)
        link = make_link(rate=RATE, feedback_bits=1.0, block_length=64)
        log = run_quantized(link, model, 128 * 500, np.random.default_rng(9))
        bound = analytics.avg_rate_quantized(model, RATE, 1.0)
        assert log.delivered_rate <= bound + 1e-9
        assert log.integrity_ok

    def test_degenerate_single_cell_rate(self):
        # F=1, L=64 plans a single cell: every chained packet is pure
        # parity and the delivered rate collapses to about R * p_R
        model = Rayleigh(10.0)
        link = make_link(rate=RATE, feedback_bits=1.0, block_length=64)
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
        for rec in log.slot_records:
            block, pos = divmod(rec.slot, 4)
            assert rec.instance == (block % 2) * 4 + pos

    def test_integer_mode_byte_exact_prefix(self):
        link = make_link(
            rate=4.0, feedback_bits=2.0, block_length=16, accounting="integer"
        )
        log = run_quantized(link, Rayleigh(10.0), 32 * 200, np.random.default_rng(13))
        assert log.integrity_ok
        assert log.delivered_bits > 0
        assert log.released_bits > 0
        # every decoded window is either released in order or held behind
        # a gap; together they account for all chain rewards exactly
        pushed = sum(r.reward_bits for r in log.renewals)
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
