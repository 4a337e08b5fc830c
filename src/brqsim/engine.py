"""Seeded Monte Carlo orchestration, statistics and parameter sweeps."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import analytics
from .channel import FadingModel, LinkConfig, Rayleigh, db_to_linear, inv_capacity
from .protocol import SlotRows, run_full_csit, run_quantized

# The two-sided 95% Student-t quantile t_0.975 at 1, 2, ..., 30 degrees of
# freedom (scipy.stats.t.ppf(0.975, d)).
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)
_Z975 = 1.959963984540054  # its normal limit


def _t975(dof: int) -> float:
    """t_0.975 at `dof` degrees of freedom: from the table, and past it
    from the expansion in 1/dof about the normal quantile (Abramowitz and
    Stegun 26.7.5), within 2e-8 relative there."""
    if dof <= len(_T975):
        return _T975[dof - 1]
    z = _Z975
    terms = (
        (z**3 + z) / 4,
        (5 * z**5 + 16 * z**3 + 3 * z) / 96,
        (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
        (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160,
    )
    return z + sum(g / dof**k for k, g in enumerate(terms, 1))


@dataclass(frozen=True)
class RunConfig:
    """Replication plan for one simulated operating point."""

    seed: int
    replications: int
    horizon: int
    include_warmup: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class StatsSummary:
    """Aggregated replication statistics with 95% confidence half-widths
    (NaN, null in JSON, below two replications)."""

    rate_mean: float
    rate_half_width: float
    delay_mean: float
    delay_half_width: float
    delay_hist: dict[int, float]
    renewal_count: int
    undelivered_bits: float
    integrity: str  # "pass" | "fail"
    replications: int
    horizon: int

    def to_json_dict(self) -> dict:
        """The summary's JSON keys; non-finite floats stay as they are (the
        CLI's JSON writer turns them into null)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["delay_hist"] = {str(k): self.delay_hist[k] for k in sorted(self.delay_hist)}
        return out


def _mean_half_width(values: list[float]) -> tuple[float, float]:
    """The mean of the finite values and the half-width t s / sqrt(n) of its
    95% interval, at the Student-t quantile on n - 1 degrees of freedom; NaN
    (null in JSON) when fewer than two values give no interval."""
    clean = [v for v in values if math.isfinite(v)]
    mean = sum(clean) / len(clean) if clean else math.nan
    if len(clean) < 2:
        return mean, math.nan
    var = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
    return mean, _t975(len(clean) - 1) * math.sqrt(var / len(clean))


def run_replicated(
    run: RunConfig,
    link: LinkConfig,
    model: FadingModel,
    *,
    slot_sink: Callable[[int, SlotRows], None] | None = None,
) -> StatsSummary:
    """Run independent replications and aggregate; the result is a pure
    function of (run, link, model).

    A finite feedback budget selects the quantized scheme.  A `slot_sink`
    gets the slot log as `slot_sink(rep, rows)`, chunk by chunk, in
    replication order.
    """
    logs = []
    for rep in range(run.replications):
        # the channel substream of replication rep
        rng = np.random.default_rng(np.random.SeedSequence(entropy=run.seed, spawn_key=(rep, 0)))
        sink = None if slot_sink is None else functools.partial(slot_sink, rep)
        if link.feedback_bits is None:
            log = run_full_csit(link, model, run.horizon, rng, slot_sink=sink)
        else:
            log = run_quantized(
                link, model, run.horizon, rng,
                slot_sink=sink, include_warmup=run.include_warmup,
            )
        logs.append(log)

    rate_mean, rate_hw = _mean_half_width([log.delivered_rate for log in logs])
    delay_mean, delay_hw = _mean_half_width([log.mean_delay for log in logs])
    hist: dict[int, float] = {}
    for log in logs:
        for delay, bits in log.delay_hist.items():
            hist[delay] = hist.get(delay, 0.0) + bits
    return StatsSummary(
        rate_mean=rate_mean,
        rate_half_width=rate_hw,
        delay_mean=delay_mean,
        delay_half_width=delay_hw,
        delay_hist=hist,
        renewal_count=sum(log.renewal_count for log in logs),
        undelivered_bits=sum(log.undelivered_bits for log in logs),
        integrity="pass" if all(log.integrity_ok for log in logs) else "fail",
        replications=run.replications,
        horizon=run.horizon,
    )


def quant_rate_column(feedback_bits: float) -> str:
    """Table column of the quantized rate at budget F, e.g. brq_quant_rate_F0.5."""
    return f"brq_quant_rate_F{feedback_bits:g}"


def rate_for_factor(k: float, mean_snr: float) -> float:
    """The rate R = log2(1 + k * mean_snr) of rate factor k."""
    if k < 0:
        raise ValueError(f"rate factor must be nonnegative, got {k}")
    return math.log2(1.0 + k * mean_snr)


def _distinct_columns(what: str, values, column) -> None:
    """Raise ValueError when two of `values` name the same table column,
    which would hold only the later one's cells."""
    seen: dict[str, float] = {}
    for value in values:
        name = column(value)
        if name in seen:
            raise ValueError(f"{what} {seen[name]!r} and {value!r} both name the column {name}")
        seen[name] = value


def _rate_columns(models: list[Rayleigh], rates: list[float], feedback_bits) -> dict:
    """Grid columns at one rate per point: the rate, its decoding
    probability, the full-CSIT rate and one quantized rate per budget."""
    gammas = [inv_capacity(rate) for rate in rates]
    p = np.array([model.decode_prob(g) for model, g in zip(models, gammas)])
    m = np.array([model.mean_snr for model in models])
    args = (m, np.array(rates), np.array(gammas), p)
    columns = {"rate_R": args[1], "p_R": p, "brq_full_rate": analytics.rayleigh_rate(*args)}
    for fbits in feedback_bits:
        columns[quant_rate_column(fbits)] = analytics.rayleigh_rate(*args, fbits)
    return columns


def _rows(columns: dict) -> list[dict]:
    """One dict per grid point from equal-length columns."""
    values = [np.asarray(col).tolist() for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def sweep_mean_snr(
    mean_snr_db_grid, rate_factors=(2.0, 3.0), feedback_bits=(1.0,)
) -> list[dict]:
    """fig4 table rows over a mean-SNR grid, one rate per factor k.

    Each row holds the water-filling and fixed-power prior-CSIT baselines
    plus, per rate factor k, the rate, decoding probability and full-CSIT
    rate, and one quantized rate per feedback budget.  `norm_*` columns
    divide by the water-filling rate.  Each column is one kernel call.
    """
    if len(mean_snr_db_grid) == 0:
        raise ValueError("SNR grid must be nonempty")
    _distinct_columns("rate factors", rate_factors, lambda k: f"rate_R_k{k:g}")
    _distinct_columns("feedback budgets", feedback_bits, quant_rate_column)
    models = [Rayleigh(db_to_linear(db)) for db in mean_snr_db_grid]
    m = np.array([model.mean_snr for model in models])
    wf, pf = analytics.rayleigh_waterfilling_rate(m), analytics.rayleigh_prior_fixed_rate(m)
    columns = {"mean_snr_db": list(mean_snr_db_grid), "wf_rate": wf,
               "prior_fixed_rate": pf, "norm_prior_fixed": pf / wf}
    for k in rate_factors:
        rates = [rate_for_factor(k, model.mean_snr) for model in models]
        for name, col in _rate_columns(models, rates, feedback_bits).items():
            columns[f"{name}_k{k:g}"] = col
            if name.startswith("brq_"):
                columns[f"norm_{name.replace('_rate', '')}_k{k:g}"] = col / wf
    return _rows(columns)


def sweep_threshold_ratio(
    mean_snr: float, ratio_grid, feedback_bits=(1.0, 2.0, 8.0)
) -> list[dict]:
    """fig5 table rows at fixed mean SNR over a gamma_R / mean_snr grid.

    Each ratio x is the rate factor of R = log2(1 + x * mean_snr).
    Budgets that cannot cover the success mask give a NaN rate, not an
    error.  Each column is one kernel call.
    """
    if len(ratio_grid) == 0:
        raise ValueError("ratio grid must be nonempty")
    _distinct_columns("feedback budgets", feedback_bits, quant_rate_column)
    models = [Rayleigh(mean_snr)] * len(ratio_grid)
    rates = [rate_for_factor(x, mean_snr) for x in ratio_grid]
    return _rows({"ratio": list(ratio_grid), **_rate_columns(models, rates, feedback_bits)})
