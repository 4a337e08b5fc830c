"""Rayleigh-fading reference values computed apart from brqsim.

Every rate here comes from exponential-integral closed forms (Alouini &
Goldsmith, IEEE TVT 1999) or from a finite sum over quantizer cells; none
of it calls brqsim or adaptive quadrature.  `m` is the linear mean SNR,
`rate` the codebook rate R in bits per channel use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1

LN2 = math.log(2.0)

# Statistical checks allow this many standard deviations; a correct
# program fails one with probability of order 1e-9.
N_SIGMA = 6.0
# Tail probability used to cap the open chain left at the end of a run.
TAIL_PROB = 1e-10


def gamma_of(rate: float) -> float:
    """Decode threshold 2^R - 1."""
    return 2.0 ** rate - 1.0


def rate_of_factor(m: float, k: float) -> float:
    """R = log2(1 + k m), the rate-factor parameterisation."""
    return math.log2(1.0 + k * m)


def decode_prob(m: float, rate: float) -> float:
    """p_R = P(g >= gamma_R) = e^{-gamma_R/m}."""
    return math.exp(-gamma_of(rate) / m)


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def capacity_below(m: float, gamma: float) -> float:
    """E[log2(1+g); g < gamma] for g ~ Exp(mean m)."""
    if gamma <= 0.0:
        return 0.0
    a = 1.0 / m
    head = math.exp(a) * (exp1(a) - exp1((1.0 + gamma) * a)) / LN2
    return head - math.log2(1.0 + gamma) * math.exp(-gamma * a)


def ergodic_rate(m: float) -> float:
    """E[log2(1+g)] = e^{1/m} E1(1/m) / ln 2 (fixed-power prior CSIT)."""
    return math.exp(1.0 / m) * exp1(1.0 / m) / LN2


def full_csit_rate(m: float, rate: float) -> float:
    """E[C; g < gamma_R] + R e^{-gamma_R/m}."""
    gamma = gamma_of(rate)
    return capacity_below(m, gamma) + rate * math.exp(-gamma / m)


def distortion(m: float, rate: float, fbits: float) -> float | None:
    """d = m 2^{-(F - H(p_R))}, or None where F <= H(p_R)."""
    h = entropy(decode_prob(m, rate))
    if fbits <= h:
        return None
    return m * 2.0 ** -(fbits - h)


def quantized_surrogate_rate(m: float, rate: float, fbits: float) -> float | None:
    """e^{-d/m} E[C; g < gamma_R - d] + R p_R, or None where F <= H(p_R)."""
    d = distortion(m, rate, fbits)
    if d is None:
        return None
    gamma = gamma_of(rate)
    low = math.exp(-d / m) * capacity_below(m, gamma - d) if gamma > d else 0.0
    return low + rate * math.exp(-gamma / m)


def water_level(m: float) -> float:
    """lambda solving e^{-lambda/m}/lambda - E1(lambda/m)/m = 1.

    With x = lambda/m the equation is e^{-x}/x - E1(x) = m, whose left
    side falls from +inf to 0, so the root is bracketed on (0, 60].
    """
    def excess(x: float) -> float:
        return math.exp(-x) / x - exp1(x) - m

    x = brentq(excess, 1e-12, 60.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return x * m


def waterfilling_rate(m: float) -> float:
    """E1(lambda/m) / ln 2 at the unit-power water level."""
    return exp1(water_level(m) / m) / LN2


# --- Monte Carlo moments -------------------------------------------------


def _legendre_outage_moment(m: float, gamma: float, power: int) -> float:
    """E[log2(1+g)^power; g < gamma] by 400-point Gauss-Legendre.

    The integrand is smooth on [0, gamma]; this only feeds variances, where
    relative accuracy of 1e-6 is far more than enough.
    """
    if gamma <= 0.0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(400)
    g = 0.5 * gamma * (x + 1.0)
    vals = np.log2(1.0 + g) ** power * np.exp(-g / m) / m
    return float(0.5 * gamma * np.dot(w, vals))


def full_slot_moments(m: float, rate: float) -> tuple[float, float]:
    """Mean and variance of one full-CSIT slot's injected bits per use.

    A slot carries R after a decoded predecessor and C(g) after a failed
    one with SNR g, so the injected load is f(g) = R 1{g>=gamma} +
    C(g) 1{g<gamma} of the predecessor's i.i.d. SNR.
    """
    gamma = gamma_of(rate)
    p = math.exp(-gamma / m)
    mean = capacity_below(m, gamma) + rate * p
    second = _legendre_outage_moment(m, gamma, 2) + rate * rate * p
    return mean, max(second - mean * mean, 0.0)


def cell_count(fbits: float, block_length: int) -> int:
    """K: the largest power of two for which an all-failed block fits.

    The all-failed block costs ceil(log2(L+1)) count bits plus L cell
    indices of log2 K bits within floor(L F) bits.
    """
    budget = math.floor(block_length * fbits + 1e-9)
    free = budget - math.ceil(math.log2(block_length + 1))
    if free < 0:
        raise ValueError(f"F={fbits}, L={block_length}: no room for a success count")
    return 2 ** (free // block_length)


def quantized_slot_moments(
    m: float, rate: float, fbits: float, block_length: int
) -> tuple[float, float, float]:
    """Cell width d and mean and variance of one quantized slot's injected bits.

    After a failed predecessor with SNR g the transmitter sees the cell's
    lower edge floor(g/d) d, with d = gamma_R / K, so the load is a finite
    sum over the K cells: sum_j C(j d) P(j d <= g < (j+1) d) + R p_R.
    """
    gamma = gamma_of(rate)
    k = cell_count(fbits, block_length)
    d = gamma / k
    edges = np.arange(k + 1) * d
    edges[-1] = gamma
    mass = np.exp(-edges[:-1] / m) - np.exp(-edges[1:] / m)
    load = np.log2(1.0 + np.arange(k) * d)
    p = math.exp(-gamma / m)
    mean = float(np.dot(load, mass)) + rate * p
    second = float(np.dot(load * load, mass)) + rate * rate * p
    return d, mean, max(second - mean * mean, 0.0)


def open_chain_cap(p: float, replications: int) -> int:
    """Slots of a trailing open chain exceeded with probability TAIL_PROB.

    A run ends inside a chain of T failed slots, P(T >= t) = (1-p)^t; the
    cap holds for every replication at once.
    """
    if p >= 1.0:
        return 0
    return math.ceil(math.log(TAIL_PROB / replications) / math.log1p(-p))


def delay_moments(m: float, rate: float) -> tuple[float, float]:
    """Mean delay (1-p)/p and the per-chain variance term for its estimator.

    A run's bit-weighted mean delay is sum(A)/sum(B) over complete chains,
    with B a chain's bits and A its bit-slots of waiting.  Chains are
    i.i.d.: length L ~ Geometric(p) on {1, 2, ...}, the first slot carries
    R and each later one C(g) of a failed SNR (mean a, second moment b).
    The delta method gives Var(sum A / sum B) = E[W^2] / (n E[B]^2) for
    n chains, with W = A - mu B.  Returns (mu, E[W^2] / E[B]^2).
    """
    gamma = gamma_of(rate)
    p = math.exp(-gamma / m)
    q = 1.0 - p
    mu = q / p
    a = capacity_below(m, gamma) / q
    b = _legendre_outage_moment(m, gamma, 2) / q
    top = math.ceil(math.log(1e-18) / math.log(q)) + 2
    ell = np.arange(1, top + 1, dtype=float)
    prob = q ** (ell - 1.0) * p
    # A chain of length l = n + 1 holds the fresh slot (R bits, delay n) and
    # n later slots whose C(g) bits wait i = 0 .. n-1 slots.
    n = ell - 1.0
    s1 = n * (n - 1.0) / 2.0 - mu * n  # sum of (i - mu) over i < n
    s2 = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0 - 2.0 * mu * n * (n - 1.0) / 2.0 + mu * mu * n
    cond_mean = rate * (n - mu) + a * s1
    cond_var = (b - a * a) * s2
    ew2 = float(np.dot(prob, cond_mean ** 2 + cond_var))
    eb = rate + a * mu
    return mu, ew2 / (eb * eb)
