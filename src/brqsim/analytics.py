"""Average rates, delay and feedback budgets of backtrack retransmission.

For Rayleigh fading every rate is an exponential-integral closed form
(Alouini & Goldsmith, IEEE TVT 1999); deterministic channels and
empirical traces are plain sums.  Adaptive quadrature is kept only in
`avg_rate_r_limited`, an independent evaluation that the tests compare
the closed forms against.  Every function here also has a Monte Carlo
counterpart in the protocol/engine modules.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import integrate, special

from .channel import (
    Deterministic,
    EmpiricalTrace,
    FadingModel,
    Rayleigh,
    capacity,
    inv_capacity,
)
from .errors import InfiniteDelayError, InsufficientFeedbackError, NumericError

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

_WF_BRACKET_EPS = 1e-12
_WF_POWER_TOL = 1e-9


def _e1(x: float) -> float:
    """Exponential integral E1(x) as a Python float."""
    return float(special.exp1(x))


def _scaled_e1(x: float) -> float:
    """e^x E1(x) for x > 0."""
    if x < _SERIES_FROM:
        return math.exp(x) * _e1(x)
    # sum over n of (-1)^n n! / x^(n+1)
    term, total = 1.0 / x, 0.0
    for n in range(1, _SERIES_TERMS + 1):
        total += term
        term *= -n / x
    return float(total)


def _rayleigh_capacity_below(m: float, gamma: float) -> float:
    """E[C(snr); snr < gamma] for Rayleigh fading with mean m.

    [G(1/m) - e^(-gamma/m) G((1+gamma)/m)] / ln 2 - log2(1+gamma) e^(-gamma/m)
    with G(x) = e^x E1(x); as gamma grows it tends to G(1/m) / ln 2.
    """
    tail = math.exp(-gamma / m)  # P(snr >= gamma)
    head = _scaled_e1(1.0 / m) - tail * _scaled_e1((1.0 + gamma) / m)
    return head / _LN2 - math.log2(1.0 + gamma) * tail


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
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate == 0:
        return 0.0
    gamma_r = inv_capacity(rate)
    if isinstance(model, Rayleigh):
        low = _rayleigh_capacity_below(model.mean_snr, gamma_r)
    else:
        low = _expect_outage(model, capacity, gamma_r)
    return low + rate * model.decode_prob(gamma_r)


def avg_rate_r_limited(model: FadingModel, rate: float) -> float:
    """Average rate of the prior-CSIT reference that transmits at min{C(snr), R}.

    Equals avg_rate_full_csit; evaluated by quadrature of the min
    expectation, apart from the closed forms, so the equality stays
    checkable.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate == 0:
        return 0.0
    gamma_r = inv_capacity(rate)
    low = _expect_outage(model, lambda g: min(capacity(g), rate), gamma_r)
    return low + rate * model.decode_prob(gamma_r)


def avg_rate_prior_fixed_power(model: FadingModel) -> float:
    """Ergodic capacity E[C(snr)] at fixed unit power (prior-CSIT baseline)."""
    if isinstance(model, Rayleigh):
        return _scaled_e1(1.0 / model.mean_snr) / _LN2
    if isinstance(model, Deterministic):
        return capacity(model.snr)
    if isinstance(model, EmpiricalTrace):
        return sum(capacity(s) for s in model.snrs) / len(model.snrs)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def _wf_mean_power(model: FadingModel, level: float) -> float:
    """Mean transmit power E[(1/level - 1/snr)^+] at a given water level."""
    if isinstance(model, Rayleigh):
        m = model.mean_snr
        return math.exp(-level / m) / level - _e1(level / m) / m
    if isinstance(model, EmpiricalTrace):
        total = 0.0
        for s in model.snrs:
            if s > level:
                total += 1.0 / level - 1.0 / s
        return total / len(model.snrs)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def waterfilling_rate(model: FadingModel, power_budget: float = 1.0) -> float:
    """Average rate with prior CSIT and water-filling power allocation.

    Solves the water level by bisection so the mean power meets the
    budget within 1e-9, then takes E[log2(snr / level); snr > level].
    """
    if power_budget <= 0:
        raise ValueError(f"power budget must be positive, got {power_budget}")
    if isinstance(model, Deterministic):
        # Constant channel: all power goes to the single state.
        return capacity(model.snr * power_budget)

    lo, hi = _WF_BRACKET_EPS, 1.0 / _WF_BRACKET_EPS
    for _ in range(8):
        if _wf_mean_power(model, lo) >= power_budget:
            break
        lo /= 1e6
    else:
        raise NumericError("water-level bracket: lower end carries too little power")
    for _ in range(8):
        if _wf_mean_power(model, hi) <= power_budget:
            break
        hi *= 1e6
    else:
        raise NumericError("water-level bracket: upper end carries too much power")

    level = lo
    power = _wf_mean_power(model, level)
    for _ in range(200):
        level = 0.5 * (lo + hi)
        power = _wf_mean_power(model, level)
        if abs(power - power_budget) <= _WF_POWER_TOL:
            break
        if power > power_budget:
            lo = level
        else:
            hi = level
    else:
        raise NumericError(
            f"water-level bisection stalled: power residual {power - power_budget:.2e}"
        )

    if isinstance(model, Rayleigh):
        return _e1(level / model.mean_snr) / _LN2
    total = 0.0
    for s in model.snrs:
        if s > level:
            total += math.log2(s / level)
    return total / len(model.snrs)


def avg_delay_slots(model: FadingModel, rate: float) -> float:
    """Mean number of failed slots a new bit waits before its decoding slot.

    The wait is geometric with the per-slot decoding probability p_R, so
    the mean is (1 - p_R) / p_R, which grows with the rate.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
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
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return min(rate, capacity(snr))


def three_slot_backtrack_rate(rate: float, snr1: float, snr2: float) -> float:
    """Delivered rate over two outage slots resolved by a third decodable one."""
    c1, c2 = capacity(snr1), capacity(snr2)
    if c1 >= rate or c2 >= rate:
        raise ValueError("both leading slots must be in outage (C(snr) < rate)")
    return (rate + c1 + c2) / 3.0


def binary_entropy(p: float) -> float:
    """Entropy -p*log2(p) - (1-p)*log2(1-p) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def distortion_bound(feedback_bits: float, p_r: float, mean_snr: float) -> float:
    """Worst-case SNR quantization distortion for a per-slot budget of F bits.

    The success mask consumes H(p_R) bits per slot asymptotically; the
    remainder quantizes the SNR, giving mean_snr * 2**-(F - H(p_R)).
    """
    if mean_snr <= 0:
        raise ValueError(f"mean SNR must be positive, got {mean_snr}")
    h = binary_entropy(p_r)
    if feedback_bits <= h:
        raise InsufficientFeedbackError(
            f"feedback budget {feedback_bits} does not exceed mask cost {h:.4f}"
        )
    return mean_snr * 2.0 ** -(feedback_bits - h)


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
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    gamma_r = inv_capacity(rate)
    p_r = model.decode_prob(gamma_r)
    d = distortion_bound(feedback_bits, p_r, model.mean_snr)
    if rate == 0:
        return 0.0
    low = 0.0
    if d < gamma_r:
        m = model.mean_snr
        low = math.exp(-d / m) * _rayleigh_capacity_below(m, gamma_r - d)
    return low + rate * p_r
