import math

import numpy as np
import pytest
from scipy import integrate

from brqsim.channel import (
    Deterministic,
    EmpiricalTrace,
    LinkConfig,
    Rayleigh,
    capacity,
    inv_capacity,
)
from brqsim.errors import NoDensityError, TraceExhaustedError


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


class TestDeterministic:
    def test_decode_prob(self):
        assert Deterministic(5.0).decode_prob(3.0) == 1.0
        assert Deterministic(5.0).decode_prob(5.0) == 1.0
        assert Deterministic(5.0).decode_prob(6.0) == 0.0

    def test_sample_constant(self):
        rng = np.random.default_rng(0)
        model = Deterministic(5.0)
        assert model.sample(rng) == 5.0
        assert np.all(model.sample(rng, 10) == 5.0)

    def test_no_density(self):
        with pytest.raises(NoDensityError):
            Deterministic(5.0).pdf(1.0)


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

    def test_no_density(self):
        with pytest.raises(NoDensityError):
            EmpiricalTrace((1.0,)).pdf(1.0)

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
        with pytest.raises(ValueError):
            LinkConfig(rate=1.0, block_length=1)
