import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from brqsim.channel import (
    Deterministic,
    EmpiricalTrace,
    LinkConfig,
    Rayleigh,
    capacity,
    inv_capacity,
)
from brqsim.errors import TraceExhaustedError


@pytest.mark.parametrize("snr,expected", [(1.0, 1.0), (3.0, 2.0), (0.0, 0.0)])
def test_capacity_values(snr, expected):
    assert capacity(snr) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("rate,expected", [(1.0, 1.0), (2.0, 3.0), (0.0, 0.0)])
def test_inv_capacity_values(rate, expected):
    assert inv_capacity(rate) == pytest.approx(expected, abs=1e-12)


def test_capacity_rejects_negative():
    with pytest.raises(ValueError):
        capacity(-0.1)
    with pytest.raises(ValueError):
        inv_capacity(-0.1)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_inv_capacity_rejects_non_finite(rate):
    with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
        inv_capacity(rate)


def test_capacity_inverse_on_dense_grid():
    for rate in np.linspace(0.0, 20.0, 400):
        back = capacity(inv_capacity(rate))
        assert back == pytest.approx(rate, rel=1e-12, abs=1e-12)
    for snr in np.geomspace(1e-6, 1e6, 400):
        back = inv_capacity(capacity(snr))
        assert back == pytest.approx(snr, rel=1e-12)


def test_capacity_monotone():
    grid = np.linspace(0.0, 100.0, 500)
    caps = [capacity(g) for g in grid]
    assert all(b >= a for a, b in zip(caps, caps[1:]))


# The kernel's parity check passes over every report at or below its slot's
# SNR: such a report sizes no less parity only if C never falls as the SNR
# rises, which must hold between neighbouring doubles too.
@given(st.floats(min_value=1e-300, max_value=1e300))
def test_capacity_monotone_at_the_next_double(snr):
    low, high = capacity(np.array([snr, np.nextafter(snr, math.inf)]))
    assert high >= low


def test_capacity_monotone_at_the_next_double_on_a_million_snrs():
    snrs = 10.0 ** np.random.default_rng(0).uniform(-300.0, 300.0, 10**6)
    assert np.all(capacity(np.nextafter(snrs, math.inf)) >= capacity(snrs))


def test_capacity_is_a_float_per_scalar_and_elementwise_on_an_array():
    for snr in (3.0, 3, np.float64(3.0)):
        assert type(capacity(snr)) is float and capacity(snr) == 2.0
    caps = capacity(np.array([0.0, 1.0, 3.0, 7.0]))
    assert isinstance(caps, np.ndarray) and caps.tolist() == [0.0, 1.0, 2.0, 3.0]


class TestRayleigh:
    def test_pdf_values(self):
        assert Rayleigh(1.0).pdf(0.0) == pytest.approx(1.0)
        assert Rayleigh(2.0).pdf(2.0) == pytest.approx(0.5 * math.exp(-1.0))

    def test_pdf_integrates_to_one(self):
        model = Rayleigh(7.3)
        total, _ = integrate.quad(model.pdf, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_decode_prob_closed_form(self):
        model = Rayleigh(10.0)
        assert model.decode_prob(20.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert model.decode_prob(0.0) == 1.0

    def test_decode_prob_matches_pdf_quadrature(self):
        model = Rayleigh(3.7)
        for thr in (0.5, 2.0, 11.0):
            tail, _ = integrate.quad(model.pdf, thr, np.inf)
            assert model.decode_prob(thr) == pytest.approx(tail, abs=1e-9)

    def test_sample_mean_matches_model(self):
        rng = np.random.default_rng(2024)
        draws = Rayleigh(10.0).sample(rng, 1_000_000)
        assert abs(draws.mean() - 10.0) < 0.1

    def test_sample_deterministic_given_seed(self):
        a = Rayleigh(5.0).sample(np.random.default_rng(99), 1000)
        b = Rayleigh(5.0).sample(np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)

    def test_empirical_decode_frequency(self):
        model = Rayleigh(10.0)
        rng = np.random.default_rng(7)
        n = 1_000_000
        draws = model.sample(rng, n)
        p = model.decode_prob(20.0)
        freq = float((draws >= 20.0).mean())
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * se

    def test_requires_positive_mean(self):
        with pytest.raises(ValueError):
            Rayleigh(0.0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_requires_finite_mean(self, mean):
        with pytest.raises(ValueError):
            Rayleigh(mean)


class TestDeterministic:
    def test_decode_prob(self):
        assert Deterministic(5.0).decode_prob(3.0) == 1.0
        assert Deterministic(5.0).decode_prob(5.0) == 1.0
        assert Deterministic(5.0).decode_prob(6.0) == 0.0

    def test_sample_constant(self):
        rng = np.random.default_rng(0)
        model = Deterministic(5.0)
        assert np.all(model.sample(rng, 10) == 5.0)

    @pytest.mark.parametrize("snr", [-1.0, math.nan, math.inf])
    def test_requires_finite_nonnegative_snr(self, snr):
        with pytest.raises(ValueError):
            Deterministic(snr)


class TestEmpiricalTrace:
    def test_decode_prob_is_fraction(self):
        trace = EmpiricalTrace((1.0, 2.0, 3.0, 4.0))
        assert trace.decode_prob(2.5) == pytest.approx(0.5)
        assert trace.decode_prob(0.0) == 1.0

    def test_sample_returns_prefix(self):
        trace = EmpiricalTrace((1.0, 2.0, 3.0))
        rng = np.random.default_rng(0)
        assert np.array_equal(trace.sample(rng, 2), [1.0, 2.0])

    def test_exhaustion(self):
        trace = EmpiricalTrace((1.0, 2.0))
        with pytest.raises(TraceExhaustedError):
            trace.sample(np.random.default_rng(0), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_entries_not_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            EmpiricalTrace((3.0, bad, 25.0))


class TestLinkConfig:
    def test_gamma_r_derived_from_rate(self):
        link = LinkConfig(rate=2.0)
        assert link.gamma_r == pytest.approx(3.0, rel=1e-12)
        assert capacity(link.gamma_r) == pytest.approx(link.rate, rel=1e-12)

    def test_integer_mode_needs_whole_bits(self):
        LinkConfig(rate=4.0, slot_uses=100, accounting="integer")
        with pytest.raises(ValueError):
            LinkConfig(rate=math.log2(21.0), slot_uses=100, accounting="integer")

    def test_field_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(rate=0.0)
        with pytest.raises(ValueError):
            LinkConfig(rate=1.0, slot_uses=0)
        with pytest.raises(ValueError):
            LinkConfig(rate=1.0, accounting="other")
        # L pools the feedback budget, so it is checked only with a budget
        with pytest.raises(ValueError, match="^block_length must be >= 2, got 1$"):
            LinkConfig(rate=1.0, feedback_bits=2.0, block_length=1)
        assert LinkConfig(rate=1.0, block_length=1).block_length == 1
        for rate in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite and positive"):
                LinkConfig(rate=rate)
        for fbits in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^feedback_bits must be finite and nonneg"):
                LinkConfig(rate=1.0, feedback_bits=fbits)
