"""Average rates, delay and feedback budgets of backtrack retransmission.

For Rayleigh fading every rate is an exponential-integral closed form
(Alouini & Goldsmith, IEEE TVT 1999), computed by array kernels
(`rayleigh_*`) over a whole grid at once: the fig4/fig5 sweeps call each
once per column, the per-point functions on one-element arrays, so both
give the same bits.  The water level is a Newton root to machine
precision.  Deterministic channels and empirical traces are plain sums.
Adaptive quadrature is kept only in `avg_rate_r_limited`, an independent
check of the closed forms; protocol/engine simulate every rate here.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable

import numpy as np

from .channel import (
    Deterministic,
    EmpiricalTrace,
    FadingModel,
    Rayleigh,
    capacity,
    check_feedback_bits,
    check_link_rate,
    inv_capacity,
)
from .errors import InfiniteDelayError, InsufficientFeedbackError, NumericError


class _LazyModule:
    """Stands in for a module global of this file until its first use.

    The first attribute lookup imports the module and puts it in place of
    the stand-in, so every later lookup costs what a plain module costs.
    """

    def __init__(self, name: str, module: str) -> None:
        self._name, self._module = name, module

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        globals()[self._name] = module
        return getattr(module, attr)


# scipy is imported on first use: its import costs several times a typical
# simulate run, which needs none of it; fig4/fig5 need only E1, and only
# avg_rate_r_limited integrates.
integrate = _LazyModule("integrate", "scipy.integrate")
special = _LazyModule("special", "scipy.special")

_LN2 = math.log(2.0)

# Rayleigh integrands are negligible beyond this many mean-SNR multiples;
# capping there keeps the adaptive rule from hunting over empty decades.
_TAIL_MULTIPLES = 60.0
# Tolerances of that quadrature, used by the avg_rate_r_limited reference only.
_QUAD_REL_TOL = 1e-9
_QUAD_ABS_TOL = 1e-12
_QUAD_MAX_SUBDIVISIONS = 200

# From here up, where e^x is about to overflow, e^x E1(x) is summed from
# its asymptotic series; eight terms leave an error below 1e-18 relative.
_SERIES_FROM = 700.0
_SERIES_TERMS = 8

# The water-level solve starts no lower than this (a mean SNR near -560 dB).
_WF_LEVEL_FLOOR = 1e-54
_WF_MAX_STEPS = 100


def _one(kernel, *args) -> float:
    """`kernel` at one point: its arguments as one-element arrays."""
    return float(kernel(*(np.array([a], dtype=float) for a in args))[0])


def _scaled_e1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x), elementwise for x > 0."""
    out, near = np.empty_like(x), x < _SERIES_FROM
    out[near] = np.exp(x[near]) * special.exp1(x[near])
    far = x[~near]
    if far.size:  # sum over n of (-1)^n n! / x^(n+1)
        term, total = 1.0 / far, np.zeros_like(far)
        for n in range(1, _SERIES_TERMS + 1):
            total += term
            term *= -n / far
        out[~near] = total
    return out


def _capacity_below(m: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """E[C(snr); snr < gamma] for Rayleigh fading with mean m, elementwise.

    [G(1/m) - e^(-gamma/m) G((1+gamma)/m)] / ln 2 - log2(1+gamma) e^(-gamma/m)
    with G(x) = e^x E1(x); as gamma grows it tends to G(1/m) / ln 2.
    """
    with np.errstate(over="ignore"):  # an x past the float range: e^-inf = G(inf) = 0
        tail = np.exp(-gamma / m)  # P(snr >= gamma)
        head = _scaled_e1(1.0 / m) - tail * _scaled_e1((1.0 + gamma) / m)
    return head / _LN2 - np.log2(1.0 + gamma) * tail


def _entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits elementwise, 0 at p = 0 and p = 1."""
    return (special.entr(p) + special.entr(1.0 - p)) / _LN2  # entr(p) = -p ln p


def _distortion(m, h, feedback_bits) -> np.ndarray:
    """The SNR distortion m * 2**-(F - H) that F feedback bits per slot
    leave after a success mask costing H bits, elementwise; 0 at F = inf."""
    return m * np.exp2(np.minimum(h - feedback_bits, 0.0))


def rayleigh_rate(m, rate, gamma_r, p_r, feedback_bits=math.inf) -> np.ndarray:
    """avg_rate_quantized at one budget F, or avg_rate_full_csit at F = inf,
    over arrays of mean SNRs m, rates R, gamma_R = 2**R - 1 and p_R =
    e^(-gamma_R/m); NaN where F <= H(p_R), as the budget cannot cover the
    success mask.  Where d >= gamma_R, R = 0 included, the outage term is
    exactly 0 (G(1/m) less itself)."""
    if feedback_bits != math.inf:
        check_feedback_bits(feedback_bits)
    h = _entropy(p_r)
    d = _distortion(m, h, feedback_bits)
    low = np.exp(-d / m) * _capacity_below(m, np.maximum(gamma_r - d, 0.0))
    return np.where(feedback_bits > h, low + rate * p_r, np.nan)


def rayleigh_prior_fixed_rate(m) -> np.ndarray:
    """avg_rate_prior_fixed_power for Rayleigh fading over mean SNRs m."""
    with np.errstate(over="ignore"):  # G(inf) = 0
        return _scaled_e1(1.0 / m) / _LN2


def _water_level(power_slope, level: np.ndarray) -> np.ndarray:
    """The levels where the mean power P is 1, by Newton's method from `level`.

    `power_slope(level)` gives P and P' elementwise.  P is convex and
    decreasing, so from a start left of the root (P >= 1) the steps rise
    to it without passing it; each level stops where it no longer moves.
    """
    power, slope = power_slope(level)
    if not ((power >= 1.0) & (level >= _WF_LEVEL_FLOOR)).all():
        raise NumericError("water-level bracket: lower end carries too little power")
    for _ in range(_WF_MAX_STEPS):
        new = np.maximum(level, level + (power - 1.0) / -slope)  # no step back at the root
        if np.array_equal(new, level):
            return level
        level = new
        power, slope = power_slope(level)
    residual = np.max(np.abs(power - 1.0))
    raise NumericError(f"water-level Newton solve stalled: power residual {residual:.2e}")


def rayleigh_waterfilling_rate(m) -> np.ndarray:
    """waterfilling_rate for Rayleigh fading over mean SNRs m.

    At level l, P(l) = e^(-l/m)/l - E1(l/m)/m, P'(l) = -e^(-l/m)/l^2 and the
    rate is E1(l/m)/ln 2.  The start l = m/(1+m) max(0.7, L - 2 ln L - 0.5),
    L = ln(1 + 1/m), follows the root's asymptotes (l near 1 for large m,
    e^(-l/m) m / l^2 near 1 for small m) from the left: its power is at
    least 1.14 for m from 1e-57 to 1.8e308, checked on a grid of 4 million.
    """

    def power_slope(level):
        x = level / m
        share = np.exp(-x) / level
        with np.errstate(over="ignore"):  # an infinite slope makes no step
            return share - special.exp1(x) / m, -share / level

    big = np.log1p(1.0 / np.maximum(m, np.finfo(float).tiny))
    start = np.maximum(0.7, big - 2.0 * np.log(np.maximum(big, 1.0)) - 0.5)
    level = _water_level(power_slope, start * (m / (1.0 + m)))
    return special.exp1(level / m) / _LN2


def _quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    out = integrate.quad(
        f,
        lo,
        hi,
        epsrel=_QUAD_REL_TOL,
        epsabs=_QUAD_ABS_TOL,
        limit=_QUAD_MAX_SUBDIVISIONS,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:  # scipy appends an explanation when it gave up
        achieved = abserr / max(abs(value), 1.0)
        raise NumericError(
            f"quadrature did not converge: achieved ~{achieved:.2e} relative "
            f"({abserr:.2e} absolute), requested {_QUAD_REL_TOL:.0e}"
        )
    return value


def _expect_outage(
    model: FadingModel, f: Callable[[float], float], threshold: float
) -> float:
    """E[f(snr); snr < threshold] for the supported models."""
    if threshold <= 0:
        return 0.0
    if isinstance(model, Rayleigh):
        hi = min(threshold, _TAIL_MULTIPLES * model.mean_snr)
        return _quad(lambda g: model.pdf(g) * f(g), 0.0, hi)
    if isinstance(model, Deterministic):
        return f(model.snr) if model.snr < threshold else 0.0
    if isinstance(model, EmpiricalTrace):
        return sum(f(s) for s in model.snrs if s < threshold) / len(model.snrs)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def avg_rate_full_csit(model: FadingModel, rate: float) -> float:
    """Average delivered rate of backtrack retransmission with full delayed CSIT.

    E[C(snr); snr < gamma_R] + rate * P(snr >= gamma_R), where
    gamma_R = 2**rate - 1.
    """
    gamma_r = inv_capacity(rate)
    p_r = model.decode_prob(gamma_r)
    if isinstance(model, Rayleigh):
        return _one(rayleigh_rate, model.mean_snr, rate, gamma_r, p_r)
    return _expect_outage(model, capacity, gamma_r) + rate * p_r


def avg_rate_r_limited(model: FadingModel, rate: float) -> float:
    """Average rate of the prior-CSIT reference that transmits at min{C(snr), R}.

    Equals avg_rate_full_csit; evaluated by quadrature of the min
    expectation, apart from the closed forms, so the equality stays
    checkable.
    """
    gamma_r = inv_capacity(rate)
    low = _expect_outage(model, lambda g: min(capacity(g), rate), gamma_r)
    return low + rate * model.decode_prob(gamma_r)


def avg_rate_prior_fixed_power(model: FadingModel) -> float:
    """Ergodic capacity E[C(snr)] at fixed unit power (prior-CSIT baseline)."""
    if isinstance(model, Rayleigh):
        return _one(rayleigh_prior_fixed_rate, model.mean_snr)
    return _expect_outage(model, capacity, math.inf)


def waterfilling_rate(model: FadingModel) -> float:
    """Average rate with prior CSIT and water-filling power allocation:
    E[log2(snr / level); snr > level] at the water level where the mean
    power E[(1/level - 1/snr)^+] is 1, solved by `_water_level`."""
    if isinstance(model, Deterministic):
        # Constant channel: all power goes to the single state.
        return capacity(model.snr)
    if isinstance(model, Rayleigh):
        return _one(rayleigh_waterfilling_rate, model.mean_snr)
    if not isinstance(model, EmpiricalTrace):
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    live, n = np.array([s for s in model.snrs if s > 0.0]), len(model.snrs)

    def power_slope(level):
        above = live > level[0]
        count = np.count_nonzero(above)
        return (count / level - np.sum(1.0 / live[above])) / n, -count / (n * level**2)

    # P(l) >= P(snr >= 2l) / (2l), so l = min(P(snr > 0), min snr) / 2 starts left
    start = 0.5 * min(live.size / n, live.min()) if live.size else 1.0
    level = float(_water_level(power_slope, np.array([start]))[0])
    return float(np.sum(np.log2(live[live > level] / level))) / n


def avg_delay_slots(model: FadingModel, rate: float) -> float:
    """Mean number of failed slots a new bit waits before its decoding slot.

    The wait is geometric with the per-slot decoding probability p_R, so
    the mean is (1 - p_R) / p_R, which grows with the rate.
    """
    p = model.decode_prob(inv_capacity(rate))
    if p == 0:
        raise InfiniteDelayError("decoding probability is zero")
    return (1.0 - p) / p


def two_phase_ir_rate(rate: float, snr: float) -> float:
    """Equivalent rate of one rate-R slot plus minimal variable-length redundancy.

    The retransmission phase sizes itself to the receiver's side
    information, so the pair delivers min{R, C(snr)}; snr = 0 yields
    rate 0 (the retransmission never ends), not an error.
    """
    return min(check_link_rate(rate), capacity(snr))


def three_slot_backtrack_rate(rate: float, snr1: float, snr2: float) -> float:
    """Delivered rate over two outage slots resolved by a third decodable one."""
    check_link_rate(rate)
    c1, c2 = capacity(snr1), capacity(snr2)
    if c1 >= rate or c2 >= rate:
        raise ValueError("both leading slots must be in outage (C(snr) < rate)")
    return (rate + c1 + c2) / 3.0


def binary_entropy(p: float) -> float:
    """Entropy -p*log2(p) - (1-p)*log2(1-p) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return _one(_entropy, p)


def distortion_bound(feedback_bits: float, p_r: float, mean_snr: float) -> float:
    """Worst-case SNR quantization distortion for a per-slot budget of F bits.

    The success mask consumes H(p_R) bits per slot asymptotically; the
    remainder quantizes the SNR, giving mean_snr * 2**-(F - H(p_R)).
    """
    if mean_snr <= 0:
        raise ValueError(f"mean SNR must be positive, got {mean_snr}")
    if feedback_bits != math.inf:
        check_feedback_bits(feedback_bits)
    h = binary_entropy(p_r)
    if feedback_bits <= h:
        raise InsufficientFeedbackError(
            f"feedback budget {feedback_bits} does not exceed mask cost {h:.4f}"
        )
    return _one(_distortion, mean_snr, h, feedback_bits)


def avg_rate_quantized(model: Rayleigh, rate: float, feedback_bits: float) -> float:
    """Average rate with F feedback bits per slot and block-quantized CSIT.

    Uses the conservative lower-bound SNR (snr - d)^+ with the distortion
    budget d = distortion_bound(F, p_R, mean_snr), so the value never
    exceeds the full-CSIT rate and grows toward it as F increases.  The
    exponential law is memoryless, so E[C(snr - d); d <= snr < gamma_R]
    is e^(-d/m) E[C(snr); snr < gamma_R - d].
    """
    if not isinstance(model, Rayleigh):
        raise TypeError("quantized-rate analysis is defined for Rayleigh fading only")
    gamma_r = inv_capacity(rate)
    p_r = model.decode_prob(gamma_r)
    distortion_bound(feedback_bits, p_r, model.mean_snr)  # raises where F <= H(p_R)
    return _one(rayleigh_rate, model.mean_snr, rate, gamma_r, p_r, feedback_bits)
