import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brqsim import analytics
from brqsim.channel import Deterministic, EmpiricalTrace, Rayleigh
from brqsim.errors import InfiniteDelayError, InsufficientFeedbackError, NumericError

GAMMA = 10.0
RATE = math.log2(21.0)  # decode threshold 20, p_R = e^-2
P_R = math.exp(-2.0)

# Frozen 1e7-sample Monte Carlo oracles (seed 20260810), mean and 3*SE.
MC_FULL = (2.8392143606481866, 0.0011491055559302767)
MC_PRIOR_FIXED = (2.9072054406128407, 0.0012474707514554093)
MC_QUANT_F1 = (1.3733661117245246, 0.0011650978742826449)
# 1e6-bin discretized water-filling oracle, Rayleigh mean 10, unit power.
WF_GRID_ORACLE = 2.9794218654480153
# 50-digit evaluation of the entropy of e^-2.
H_E2 = 0.57189073829133896


def model():
    return Rayleigh(GAMMA)


@st.composite
def rayleigh_points(draw):
    """(mean SNR m, rate R): m from -30 to 40 dB, R = log2(1 + k m), k in [0.01, 8].

    The low end puts 1/m past the point where e^(1/m) overflows.
    """
    m = 10.0 ** (draw(st.floats(-30.0, 40.0)) / 10.0)
    return m, math.log2(1.0 + draw(st.floats(0.01, 8.0)) * m)


def _with_grid_examples(test):
    """Also run a property test at mean SNR 1, 5, 30 and rate 0.5, 2, 5."""
    for mean_snr in (1.0, 5.0, 30.0):
        for rate in (0.5, 2.0, 5.0):
            test = example(point=(mean_snr, rate))(test)
    return test


class TestAvgRateFullCsit:
    def test_zero_rate(self):
        assert analytics.avg_rate_full_csit(model(), 0.0) == 0.0
        assert analytics.avg_rate_full_csit(Deterministic(3.0), 0.0) == 0.0

    def test_deterministic_above_threshold(self):
        assert analytics.avg_rate_full_csit(Deterministic(10.0), 2.0) == pytest.approx(
            2.0
        )

    def test_deterministic_below_threshold(self):
        assert analytics.avg_rate_full_csit(Deterministic(1.0), 2.0) == pytest.approx(
            1.0
        )

    def test_matches_monte_carlo_oracle(self):
        mean, band = MC_FULL
        assert abs(analytics.avg_rate_full_csit(model(), RATE) - mean) < band

    def test_nondecreasing_in_rate(self):
        rates = np.linspace(0.1, 12.0, 40)
        values = [analytics.avg_rate_full_csit(model(), r) for r in rates]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_converges_to_prior_fixed_at_large_rate(self):
        full = analytics.avg_rate_full_csit(model(), 30.0)
        fixed = analytics.avg_rate_prior_fixed_power(model())
        assert abs(full - fixed) < 1e-6


class TestAvgRateRLimited:
    @settings(deadline=None)
    @given(point=rayleigh_points())
    @_with_grid_examples
    def test_equals_full_csit_on_grid(self, point):
        # Quadrature of min{C, R} against the exponential-integral closed form.
        mean_snr, rate = point
        m = Rayleigh(mean_snr)
        assert analytics.avg_rate_r_limited(m, rate) == pytest.approx(
            analytics.avg_rate_full_csit(m, rate), rel=1e-9
        )

    def test_deterministic_outage(self):
        assert analytics.avg_rate_r_limited(Deterministic(1.0), 2.0) == pytest.approx(
            1.0
        )

    def test_matches_monte_carlo_oracle(self):
        mean, band = MC_FULL
        assert abs(analytics.avg_rate_r_limited(model(), RATE) - mean) < band


class TestZeroRate:
    """At R = 0 the general formulas give +0.0 on every model: the
    Rayleigh closed form (through the E1 series at -30 dB), the outage
    quadrature and the plain sums."""

    @pytest.mark.parametrize("rate_of", [analytics.avg_rate_full_csit,
                                         analytics.avg_rate_r_limited])
    @pytest.mark.parametrize("model", [
        Rayleigh(1e-3), Rayleigh(10.0), Rayleigh(1e6), Deterministic(0.0),
        Deterministic(3.0), EmpiricalTrace((0.0, 0.5, 7.0)),
    ], ids=["rayleigh-30dB", "rayleigh10dB", "rayleigh60dB", "deterministic0",
            "deterministic3", "trace"])
    def test_is_positive_zero(self, rate_of, model):
        got = rate_of(model, 0.0)
        assert type(got) is float
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


class TestPriorFixedPower:
    def test_deterministic(self):
        assert analytics.avg_rate_prior_fixed_power(Deterministic(3.0)) == pytest.approx(
            2.0
        )

    def test_matches_monte_carlo_oracle(self):
        mean, band = MC_PRIOR_FIXED
        assert abs(analytics.avg_rate_prior_fixed_power(model()) - mean) < band

    def test_trace_mean(self):
        trace = EmpiricalTrace((1.0, 3.0))
        assert analytics.avg_rate_prior_fixed_power(trace) == pytest.approx(1.5)

    # Adaptive quadrature over [0, inf) was 1.7e-8 and 4.5e-6 low at the
    # first two points; the last two cover both branches of e^x E1(x).
    @pytest.mark.parametrize("db", [4.2225, 26.6337, -30.0, 40.0])
    def test_rayleigh_matches_exponential_integral(self, db):
        mean_snr = 10.0 ** (db / 10.0)
        with mp.workdps(40):
            x = 1 / mp.mpf(mean_snr)
            oracle = mp.exp(x) * mp.e1(x) / mp.log(2)
            got = analytics.avg_rate_prior_fixed_power(Rayleigh(mean_snr))
            assert abs(got - oracle) <= 1e-13 * oracle


class TestWaterfilling:
    def test_deterministic_reduces_to_fixed_power(self):
        assert analytics.waterfilling_rate(Deterministic(7.0)) == pytest.approx(
            capacity_of(7.0)
        )

    def test_two_point_kkt_oracle(self):
        # Equiprobable SNRs {1, 3}, unit power: both states active, so
        # 1/level = 1 + (1 + 1/3)/2 = 5/3 and the rate is log2(25/3)/2.
        level = 3.0 / 5.0
        p1, p3 = 1.0 / level - 1.0, 1.0 / level - 1.0 / 3.0
        assert p1 > 0 and p3 > 0 and (p1 + p3) / 2 == pytest.approx(1.0)
        oracle = 0.5 * (math.log2(1 + 1 * p1) + math.log2(1 + 3 * p3))
        got = analytics.waterfilling_rate(EmpiricalTrace((1.0, 3.0)))
        assert got == pytest.approx(oracle, abs=1e-8)
        assert oracle == pytest.approx(1.5294468445267841, abs=1e-12)

    def test_rayleigh_grid_oracle(self):
        got = analytics.waterfilling_rate(model())
        assert got == pytest.approx(WF_GRID_ORACLE, abs=5e-7)

    def test_beats_fixed_power(self):
        for mean_snr in (1.0, 10.0, 100.0):
            m = Rayleigh(mean_snr)
            assert analytics.waterfilling_rate(m) >= analytics.avg_rate_prior_fixed_power(
                m
            ) - 1e-9

    @pytest.mark.parametrize("db", np.linspace(-30.0, 40.0, 29).tolist())
    def test_rayleigh_matches_40_digit_root(self, db):
        # geometric bisection to 150 halvings of [m / (100 (1 + m)), 1],
        # which brackets the level at every mean SNR here
        mean_snr = 10.0 ** (db / 10.0)
        with mp.workdps(40):
            m = mp.mpf(mean_snr)

            def excess_power(level):
                return mp.exp(-level / m) / level - mp.e1(level / m) / m - 1

            lo, hi = m / (100 * (1 + m)), mp.mpf(1)
            assert excess_power(lo) > 0 > excess_power(hi)
            for _ in range(150):
                mid = mp.sqrt(lo * hi)
                lo, hi = (mid, hi) if excess_power(mid) > 0 else (lo, mid)
            oracle = mp.e1(lo / m) / mp.log(2)
            got = analytics.waterfilling_rate(Rayleigh(mean_snr))
            assert abs(got - oracle) <= 1e-13 * oracle

    def test_every_level_above_the_floor_is_solved(self):
        # the Newton start is left of the root (power >= 1) from a level of
        # about 1e-54 up to the largest float mean SNR, else the solve raises
        m = np.geomspace(1e-55, 1.7e308, 100_001)
        rates = analytics.rayleigh_waterfilling_rate(m)
        assert np.all(np.isfinite(rates)) and np.all(np.diff(rates) > 0)

    @pytest.mark.parametrize("model", [Rayleigh(1e-300), EmpiricalTrace((0.0, 0.0))])
    def test_level_below_the_floor_raises(self, model):
        # -3000 dB puts the level near 7e-298; a dead trace has no level
        with pytest.raises(NumericError, match="water-level bracket: lower end"):
            analytics.waterfilling_rate(model)


def capacity_of(snr):
    return math.log2(1.0 + snr)


class TestAvgDelay:
    def test_always_decodes(self):
        assert analytics.avg_delay_slots(Deterministic(10.0), 1.0) == 0.0

    def test_fair_coin(self):
        trace = EmpiricalTrace((0.0, 10.0))
        assert analytics.avg_delay_slots(trace, 1.0) == pytest.approx(1.0)

    def test_reference_point_and_sampler_oracle(self):
        target = math.exp(2.0) - 1.0
        assert analytics.avg_delay_slots(model(), RATE) == pytest.approx(
            target, rel=1e-12
        )
        rng = np.random.default_rng(314)
        draws = rng.geometric(P_R, 1_000_000) - 1  # failures before first success
        se = math.sqrt((1 - P_R) / P_R**2 / draws.size)
        assert abs(draws.mean() - target) < 3 * se
        assert abs(analytics.avg_delay_slots(model(), RATE) - draws.mean()) < 3 * se

    def test_grows_with_rate(self):
        d2 = analytics.avg_delay_slots(model(), math.log2(1 + 2 * GAMMA))
        d3 = analytics.avg_delay_slots(model(), math.log2(1 + 3 * GAMMA))
        assert d3 > d2

    def test_infinite_delay(self):
        with pytest.raises(InfiniteDelayError):
            analytics.avg_delay_slots(Deterministic(1.0), 2.0)


class TestTwoPhaseIr:
    @pytest.mark.parametrize(
        "rate,snr,expected",
        [(3.0, 3.0, 2.0), (1.0, 3.0, 1.0), (2.0, 3.0, 2.0)],
    )
    def test_values(self, rate, snr, expected):
        assert analytics.two_phase_ir_rate(rate, snr) == pytest.approx(expected)

    def test_zero_snr_returns_zero(self):
        assert analytics.two_phase_ir_rate(2.0, 0.0) == 0.0

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_rate_no_link_runs_at(self, rate):
        with pytest.raises(ValueError, match=f"rate must be finite and positive, got {rate}"):
            analytics.two_phase_ir_rate(rate, 3.0)

    def test_equals_min_on_grid(self):
        for rate in np.linspace(0.5, 5.0, 10):
            for snr in np.linspace(0.0, 40.0, 10):
                expected = min(rate, math.log2(1 + snr))
                assert analytics.two_phase_ir_rate(rate, snr) == expected


class TestThreeSlotBacktrack:
    def test_worked_example(self):
        assert analytics.three_slot_backtrack_rate(2.0, 1.0, 1.0) == pytest.approx(
            4.0 / 3.0
        )

    def test_zero_side_information(self):
        assert analytics.three_slot_backtrack_rate(2.0, 0.0, 0.0) == pytest.approx(
            2.0 / 3.0
        )

    def test_substitution(self):
        got = analytics.three_slot_backtrack_rate(RATE, 3.0, 7.0)
        assert got == pytest.approx((RATE + 2.0 + 3.0) / 3.0, rel=1e-12)

    def test_rejects_decodable_slot(self):
        with pytest.raises(ValueError):
            analytics.three_slot_backtrack_rate(2.0, 3.0, 1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_rate_no_link_runs_at(self, rate):
        with pytest.raises(ValueError, match=f"rate must be finite and positive, got {rate}"):
            analytics.three_slot_backtrack_rate(rate, 1.0, 1.0)


class TestBinaryEntropy:
    def test_half(self):
        assert analytics.binary_entropy(0.5) == 1.0

    def test_edges(self):
        assert analytics.binary_entropy(0.0) == 0.0
        assert analytics.binary_entropy(1.0) == 0.0

    def test_high_precision_oracle(self):
        assert analytics.binary_entropy(P_R) == pytest.approx(H_E2, abs=1e-14)

    def test_range_check(self):
        with pytest.raises(ValueError):
            analytics.binary_entropy(1.2)


class TestDistortionBound:
    def test_zero_entropy_case(self):
        assert analytics.distortion_bound(1.0, 0.0, 10.0) == pytest.approx(5.0)

    def test_one_bit_above_mask(self):
        for p in (0.1, 0.3, P_R):
            h = analytics.binary_entropy(p)
            assert analytics.distortion_bound(h + 1.0, p, 10.0) == pytest.approx(5.0)

    def test_frozen_value(self):
        got = analytics.distortion_bound(8.0, P_R, 10.0)
        assert got == pytest.approx(10.0 * 2.0 ** -(8.0 - H_E2), rel=1e-12)
        assert got == pytest.approx(0.05806525012330033, abs=1e-12)

    def test_strictly_decreasing_in_budget(self):
        values = [analytics.distortion_bound(f, P_R, 10.0) for f in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_insufficient_feedback(self):
        with pytest.raises(InsufficientFeedbackError):
            analytics.distortion_bound(analytics.binary_entropy(0.3), 0.3, 10.0)

    def test_nan_budget_rejected_and_infinite_budget_exact(self):
        with pytest.raises(ValueError, match="^feedback_bits must be finite and nonnegative, got nan$"):
            analytics.distortion_bound(math.nan, P_R, 10.0)
        assert analytics.distortion_bound(math.inf, P_R, 10.0) == 0.0

    @settings(deadline=None)
    @example(point=(100.0, 1.0), fbits=1.0)
    @given(point=rayleigh_points(), fbits=st.floats(1.01, 12.0))
    def test_is_the_distortion_of_the_quantized_rate(self, point, fbits):
        # one expression for both: where the bound reaches gamma_R, the
        # quantized rate has no outage term, to the last bit
        mean_snr, rate = point
        m = Rayleigh(mean_snr)
        gamma_r = analytics.inv_capacity(rate)
        p_r = m.decode_prob(gamma_r)
        if analytics.distortion_bound(fbits, p_r, mean_snr) >= gamma_r:
            assert analytics.avg_rate_quantized(m, rate, fbits) == rate * p_r


class TestAvgRateQuantized:
    def test_matches_monte_carlo_oracle(self):
        mean, band = MC_QUANT_F1
        assert abs(analytics.avg_rate_quantized(model(), RATE, 1.0) - mean) < band

    def test_large_budget_approaches_full_csit(self):
        full = analytics.avg_rate_full_csit(model(), RATE)
        quant = analytics.avg_rate_quantized(model(), RATE, 40.0)
        assert quant <= full + 1e-9
        assert full - quant < 1e-6

    def test_coarse_distortion_leaves_only_fresh_slots(self):
        # distortion >= threshold: the outage integrand vanishes exactly
        m = Rayleigh(100.0)
        rate = 1.0  # threshold 1, d = 100 * 2^-(F - H) > 1 for F = 1
        p_r = m.decode_prob(1.0)
        d = analytics.distortion_bound(1.0, p_r, 100.0)
        assert d >= 1.0
        assert analytics.avg_rate_quantized(m, rate, 1.0) == rate * p_r

    @settings(deadline=None)
    @given(point=rayleigh_points(), fbits=st.floats(1.01, 12.0))
    def test_memoryless_shortcut_matches_integral(self, point, fbits):
        # The original integrand pdf(g) log2(1 + (g - d)^+) over [0, gamma_R].
        mean_snr, rate = point
        m = Rayleigh(mean_snr)
        gamma_r = 2.0**rate - 1.0
        p_r = m.decode_prob(gamma_r)
        d = analytics.distortion_bound(fbits, p_r, mean_snr)
        with mp.workdps(30):
            def integrand(g):
                return mp.exp(-g / mean_snr) / mean_snr * mp.log(1 + max(g - d, 0), 2)

            points = [0, d, gamma_r] if d < gamma_r else [0, gamma_r]
            oracle = float(mp.quad(integrand, points)) + rate * p_r
        got = analytics.avg_rate_quantized(m, rate, fbits)
        assert type(got) is float
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_nondecreasing_in_budget(self):
        values = [
            analytics.avg_rate_quantized(model(), RATE, f) for f in (1, 2, 4, 8, 16)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_requires_rayleigh(self):
        with pytest.raises(TypeError):
            analytics.avg_rate_quantized(Deterministic(10.0), RATE, 2.0)

    def test_insufficient_feedback_propagates(self):
        # p_R = 0.5 maximizes the mask entropy at exactly 1 bit
        m = Rayleigh(1.0 / math.log(2.0))
        with pytest.raises(InsufficientFeedbackError):
            analytics.avg_rate_quantized(m, 1.0, 1.0)


class TestOrderingInvariant:
    def test_scheme_ordering_on_grid(self):
        for mean_snr in (2.0, 10.0, 50.0):
            m = Rayleigh(mean_snr)
            wf = analytics.waterfilling_rate(m)
            pf = analytics.avg_rate_prior_fixed_power(m)
            assert wf >= pf - 1e-9
            for k in (2.0, 3.0):
                rate = math.log2(1 + k * mean_snr)
                full = analytics.avg_rate_full_csit(m, rate)
                assert pf >= full - 1e-9
                prev = 0.0
                for f in (1.0, 2.0, 8.0):
                    quant = analytics.avg_rate_quantized(m, rate, f)
                    assert quant >= prev - 1e-9
                    assert full >= quant - 1e-9
                    prev = quant

