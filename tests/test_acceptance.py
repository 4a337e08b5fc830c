"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail
line per criterion.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from chain_reference import reward_of_chain
from scipy import stats

from brqsim import analytics, engine
from brqsim.channel import (
    Deterministic,
    EmpiricalTrace,
    LinkConfig,
    Rayleigh,
    capacity,
)
from brqsim.cli import main as cli_main
from brqsim.protocol import run_full_csit, run_quantized

GAMMA = 10.0
RATE_K2 = math.log2(1.0 + 2.0 * GAMMA)  # decode threshold 20, p_R = e^-2
MODEL = Rayleigh(GAMMA)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_theorem1_agreement():
    link = LinkConfig(rate=RATE_K2, slot_uses=100)
    run = engine.RunConfig(seed=1, replications=20, horizon=100_000)
    started = time.time()
    summary = engine.run_replicated(run, link, MODEL)
    elapsed = time.time() - started
    target = analytics.avg_rate_full_csit(MODEL, RATE_K2)
    assert abs(summary.rate_mean - target) <= summary.rate_half_width
    assert abs(summary.rate_mean - target) / target < 0.005
    assert summary.integrity == "pass"
    assert elapsed < 30.0
    report(
        1,
        f"simulated {summary.rate_mean:.6f} vs quadrature {target:.6f} "
        f"(CI +/-{summary.rate_half_width:.6f}, "
        f"{abs(summary.rate_mean - target) / target:.4%} relative, {elapsed:.1f}s)",
    )


def test_criterion_02_trace_coupled_equivalence():
    link = LinkConfig(rate=RATE_K2, slot_uses=100)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        snrs = tuple(rng.exponential(GAMMA, 10_000))
        log = run_full_csit(
            link, EmpiricalTrace(snrs), 10_000, np.random.default_rng(0), record_slots=True
        )
        reference = np.cumsum(np.minimum(np.log2(1.0 + np.asarray(snrs)), RATE_K2))
        rewards = log.slot_columns["reward_bits"].tolist()
        cumulative = 0.0
        assert log.renewal_count > 0
        for slot in log.renewal_slots.tolist():
            cumulative += rewards[slot]
            delta = abs(cumulative - 100.0 * reference[slot])
            per_slot = delta / (slot + 1)
            worst = max(worst, per_slot)
            assert per_slot < 1e-6
    report(2, f"100 traces x 10^4 slots, worst drift {worst:.2e} bits/slot")


def test_criterion_03_lemma1_conservation_enumeration():
    outage = (1.0, 0.4, 2.2, 0.0, 1.7, 2.9, 0.8, 3.5, 7.0, 12.0)
    good = 25.0
    link = LinkConfig(rate=RATE_K2, slot_uses=100)
    checked = 0
    for pattern in itertools.product((False, True), repeat=10):
        snrs = tuple(good if ok else outage[i] for i, ok in enumerate(pattern))
        log = run_full_csit(
            link, EmpiricalTrace(snrs), 10, np.random.default_rng(0), record_slots=True
        )

        # reference chain rewards straight from the reward formula
        expected = []
        chain_snrs: list[float] = []
        fresh = True
        for i, ok in enumerate(pattern):
            if not fresh:
                chain_snrs.append(snrs[i - 1])
            fresh = False
            if ok:
                expected.append(reward_of_chain(RATE_K2, 100, chain_snrs))
                chain_snrs = []
                fresh = True
        got = log.slot_columns["reward_bits"][log.renewal_slots].tolist()
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-9 * max(1.0, b)
        assert abs(
            log.delivered_bits + log.undelivered_bits - log.injected_bits
        ) < 1e-9
        checked += 1
    assert checked == 1024
    report(3, "all 2^10 success patterns: rewards and conservation exact")


def test_criterion_04_delay_law():
    link = LinkConfig(rate=RATE_K2, slot_uses=100)
    log = run_full_csit(link, MODEL, 1_000_000, np.random.default_rng(4))
    target = math.exp(2.0) - 1.0
    assert abs(log.mean_delay - target) / target < 0.02

    # chi-square on the independent per-chain waiting times; per-slot and
    # per-bit delays are serially dependent inside a chain
    p_r = MODEL.decode_prob(link.gamma_r)
    waits = log.chain_lengths - 1
    kmax = 40
    observed = np.bincount(np.minimum(waits, kmax), minlength=kmax + 1).astype(float)
    pmf = np.array([(1.0 - p_r) ** j * p_r for j in range(kmax)])
    expected = np.append(pmf, (1.0 - p_r) ** kmax) * waits.size
    assert expected.min() > 5.0
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01

    # the mean delay grows with the rate (k = 3 beats k = 2)
    rate_k3 = math.log2(1.0 + 3.0 * GAMMA)
    log_k3 = run_full_csit(
        LinkConfig(rate=rate_k3, slot_uses=100), MODEL, 200_000, np.random.default_rng(4)
    )
    log_k2 = run_full_csit(link, MODEL, 200_000, np.random.default_rng(4))
    assert log_k3.mean_delay > log_k2.mean_delay
    assert analytics.avg_delay_slots(MODEL, rate_k3) > analytics.avg_delay_slots(
        MODEL, RATE_K2
    )
    report(
        4,
        f"mean delay {log.mean_delay:.4f} vs {target:.4f} "
        f"({abs(log.mean_delay - target) / target:.3%}), chi-square p={p_value:.3f}, "
        f"k=3 delay {log_k3.mean_delay:.2f} > k=2 delay {log_k2.mean_delay:.2f}",
    )


def test_criterion_05_payload_integrity_quantized():
    link = LinkConfig(
        rate=4.0,
        slot_uses=100,
        feedback_bits=2.0,
        block_length=64,
        accounting="integer",
    )
    horizon = 128 * 782  # about 1e5 slots, a multiple of 2L
    log = run_quantized(
        link, MODEL, horizon, np.random.default_rng(2), np.random.default_rng(77)
    )
    # a ChainBrokenError inside run_quantized would have failed the test
    assert log.integrity_ok
    assert log.delivered_bits > 0
    report(
        5,
        f"{horizon} quantized slots, released windows match the payload replay "
        f"in offset, length and fingerprint, "
        f"{log.renewal_count} renewals, zero chain breaks",
    )


def test_criterion_06_quantized_ordering_and_saturation():
    ratios = [0.25 * i for i in range(1, 33)]  # 0.25 .. 8.0
    rates = [math.log2(1.0 + x * GAMMA) for x in ratios]
    curves = {}
    for fbits in (1.0, 2.0, 8.0):
        curves[fbits] = [
            analytics.avg_rate_quantized(MODEL, r, fbits) for r in rates
        ]
    full = [analytics.avg_rate_full_csit(MODEL, r) for r in rates]

    for i in range(len(ratios)):
        assert curves[1.0][i] <= curves[2.0][i] + 1e-9
        assert curves[2.0][i] <= curves[8.0][i] + 1e-9
        assert curves[8.0][i] <= full[i] + 1e-9

    def argmax_slope_ratio(values):
        # slope against the transmission rate, the curves' driving variable
        slopes = [
            (values[i + 1] - values[i]) / (rates[i + 1] - rates[i])
            for i in range(len(values) - 1)
        ]
        best = max(range(len(slopes)), key=lambda i: slopes[i])
        return 0.5 * (ratios[best] + ratios[best + 1])

    knee_f8 = argmax_slope_ratio(curves[8.0])
    knee_f1 = argmax_slope_ratio(curves[1.0])
    assert knee_f8 < knee_f1

    # the low-budget schemes keep growing where F=8 has flattened
    sat_f8 = next(
        i for i, v in enumerate(curves[8.0]) if v >= 0.99 * max(curves[8.0])
    )
    growth = {f: curves[f][-1] - curves[f][sat_f8] for f in (1.0, 2.0, 8.0)}
    assert growth[1.0] > 0.1
    assert growth[2.0] > 0.1
    assert growth[8.0] < 0.05
    report(
        6,
        f"ordering holds on 32 ratios; steepest-growth ratio F=8 at {knee_f8:.2f} "
        f"< F=1 at {knee_f1:.2f}; growth past F=8 saturation: "
        f"F=1 {growth[1.0]:.3f}, F=2 {growth[2.0]:.3f}, F=8 {growth[8.0]:.3f}",
    )


def test_criterion_07_fig4_normalized_property():
    grid_db = list(range(0, 31, 2))
    normalized = []
    for db in grid_db:
        mean_snr = 10.0 ** (db / 10.0)
        model = Rayleigh(mean_snr)
        rate = math.log2(1.0 + 3.0 * mean_snr)
        normalized.append(
            analytics.avg_rate_full_csit(model, rate)
            / analytics.waterfilling_rate(model)
        )
    assert all(b >= a - 1e-12 for a, b in zip(normalized, normalized[1:]))
    assert normalized[grid_db.index(20)] > normalized[grid_db.index(10)]

    limit_gap = abs(
        analytics.avg_rate_full_csit(MODEL, 30.0)
        - analytics.avg_rate_prior_fixed_power(MODEL)
    )
    assert limit_gap < 1e-6
    report(
        7,
        f"normalized k=3 curve monotone over 0-30 dB "
        f"({normalized[0]:.4f} -> {normalized[-1]:.4f}); R=30 limit gap {limit_gap:.1e}",
    )


def test_criterion_08_baseline_sanity():
    for db in range(0, 31, 2):
        mean_snr = 10.0 ** (db / 10.0)
        model = Rayleigh(mean_snr)
        wf = analytics.waterfilling_rate(model)
        pf = analytics.avg_rate_prior_fixed_power(model)
        assert wf >= pf - 1e-9
        for k in (2.0, 3.0):
            full = analytics.avg_rate_full_csit(model, math.log2(1.0 + k * mean_snr))
            assert pf >= full - 1e-9
    const = Deterministic(7.0)
    c0 = capacity(7.0)
    assert analytics.waterfilling_rate(const) == pytest.approx(c0, abs=1e-12)
    assert analytics.avg_rate_prior_fixed_power(const) == pytest.approx(c0, abs=1e-12)
    assert analytics.avg_rate_full_csit(const, 2.0 * c0) == pytest.approx(c0, abs=1e-12)
    report(8, "waterfilling >= fixed-power >= full-CSIT on the whole grid")


def test_criterion_09_two_phase_ir_and_three_slot_trace():
    rates = np.linspace(0.5, 6.0, 10)
    snrs = np.linspace(0.0, 60.0, 10)
    for rate in rates:
        for snr in snrs:
            assert analytics.two_phase_ir_rate(float(rate), float(snr)) == min(
                float(rate), capacity(float(snr))
            )

    link = LinkConfig(rate=RATE_K2, slot_uses=100)
    trace = EmpiricalTrace((3.0, 7.0, 25.0))
    log = run_full_csit(link, trace, 3, np.random.default_rng(0))
    expected = analytics.three_slot_backtrack_rate(RATE_K2, 3.0, 7.0)
    assert log.delivered_rate == pytest.approx(expected, abs=1e-12)
    assert log.delivered_rate == pytest.approx(
        (RATE_K2 + capacity(3.0) + capacity(7.0)) / 3.0, abs=1e-12
    )
    report(
        9,
        f"min accounting exact on 100 grid points; three-slot trace rate "
        f"{log.delivered_rate:.6f}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    sim = [
        "simulate", "--mean-snr-db", "10", "--rate-factor", "2",
        "--slots", "4000", "--replications", "4", "--seed", "21",
    ]
    paths = [tmp_path / name for name in ("a.json", "b.json")]
    assert cli_main(sim + ["--output", str(paths[0])]) == 0
    assert cli_main(sim + ["--output", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    fig = ["fig5", "--mean-snr-db", "10", "--ratio-grid", "0.5:4:0.5"]
    f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert cli_main(fig + ["--output", str(f1)]) == 0
    assert cli_main(fig + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()

    payload = json.loads(paths[0].read_text())
    assert payload["integrity"] == "pass"
    report(10, "CSV/JSON outputs byte-identical across reruns")
