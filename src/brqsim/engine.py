"""Seeded Monte Carlo orchestration, statistics and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .channel import FadingModel, LinkConfig, Rayleigh, inv_capacity
from .errors import InsufficientFeedbackError
from .protocol import SessionLog, run_full_csit, run_quantized

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class RunConfig:
    """Replication plan for one simulated operating point."""

    seed: int
    replications: int
    horizon: int
    include_warmup: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class StatsSummary:
    """Aggregated replication statistics with 95% confidence half-widths."""

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
        def scrub(x: float):
            return None if isinstance(x, float) and not math.isfinite(x) else x

        return {
            "rate_mean": scrub(self.rate_mean),
            "rate_half_width": scrub(self.rate_half_width),
            "delay_mean": scrub(self.delay_mean),
            "delay_half_width": scrub(self.delay_half_width),
            "delay_hist": {str(k): self.delay_hist[k] for k in sorted(self.delay_hist)},
            "renewal_count": self.renewal_count,
            "undelivered_bits": self.undelivered_bits,
            "integrity": self.integrity,
            "replications": self.replications,
            "horizon": self.horizon,
        }


def _replication_rngs(seed: int, rep: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent channel and payload substreams for one replication."""
    channel = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep, 0)))
    payload = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep, 1)))
    return channel, payload


def _run_session(
    run: RunConfig, link: LinkConfig, model: FadingModel, rep: int, record_slots: bool
) -> SessionLog:
    """One replication; a finite feedback budget selects the quantized scheme."""
    rng, source_rng = _replication_rngs(run.seed, rep)
    if link.feedback_bits is None:
        return run_full_csit(
            link, model, run.horizon, rng, source_rng, record_slots=record_slots
        )
    return run_quantized(
        link,
        model,
        run.horizon,
        rng,
        source_rng,
        record_slots=record_slots,
        include_warmup=run.include_warmup,
    )


def _mean_half_width(values: list[float]) -> tuple[float, float]:
    clean = [v for v in values if math.isfinite(v)]
    if not clean:
        return math.nan, 0.0
    mean = sum(clean) / len(clean)
    if len(clean) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
    return mean, _Z95 * math.sqrt(var / len(clean))


def run_replicated(
    run: RunConfig,
    link: LinkConfig,
    model: FadingModel,
    *,
    record_slots: bool = False,
    collect_logs: list[SessionLog] | None = None,
) -> StatsSummary:
    """Run independent replications and aggregate; the result is a pure
    function of (run, link, model)."""
    logs = [
        _run_session(run, link, model, i, record_slots)
        for i in range(run.replications)
    ]

    if collect_logs is not None:
        collect_logs.extend(logs)

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


def _quantized_rate(model: Rayleigh, rate: float, fbits: float) -> float:
    """Analytic quantized rate, NaN where the budget cannot cover the mask."""
    try:
        return analytics.avg_rate_quantized(model, rate, fbits)
    except InsufficientFeedbackError:
        return math.nan


def sweep_mean_snr(
    mean_snr_db_grid, rate_factors=(2.0, 3.0), feedback_bits=(1.0,)
) -> list[dict]:
    """fig4 table rows over a mean-SNR grid, with R = log2(1 + k * mean_snr).

    Each row holds the water-filling and fixed-power prior-CSIT baselines
    plus, per rate factor k, the rate, decoding probability and full-CSIT
    rate, and one quantized rate per feedback budget.  `norm_*` columns
    divide by the water-filling rate.
    """
    if len(mean_snr_db_grid) == 0:
        raise ValueError("SNR grid must be nonempty")
    rows = []
    for db in mean_snr_db_grid:
        mean_snr = 10.0 ** (db / 10.0)
        model = Rayleigh(mean_snr)
        wf = analytics.waterfilling_rate(model, 1.0)
        pf = analytics.avg_rate_prior_fixed_power(model)
        row = {
            "mean_snr_db": db,
            "wf_rate": wf,
            "prior_fixed_rate": pf,
            "norm_prior_fixed": pf / wf,
        }
        for k in rate_factors:
            kt = f"_k{k:g}"
            rate = math.log2(1.0 + k * mean_snr)
            full = analytics.avg_rate_full_csit(model, rate)
            row["rate_R" + kt] = rate
            row["p_R" + kt] = model.decode_prob(inv_capacity(rate))
            row["brq_full_rate" + kt] = full
            row["norm_brq_full" + kt] = full / wf
            for fbits in feedback_bits:
                quant = _quantized_rate(model, rate, fbits)
                row[quant_rate_column(fbits) + kt] = quant
                row[f"norm_brq_quant_F{fbits:g}" + kt] = quant / wf
        rows.append(row)
    return rows


def sweep_threshold_ratio(
    mean_snr: float, ratio_grid, feedback_bits=(1.0, 2.0, 8.0)
) -> list[dict]:
    """fig5 table rows at fixed mean SNR over a gamma_R / mean_snr grid.

    Each ratio x sets R = log2(1 + x * mean_snr).  Budgets that cannot
    cover the success mask give a NaN rate, not an error.
    """
    if mean_snr <= 0:
        raise ValueError("mean SNR must be positive")
    if len(ratio_grid) == 0:
        raise ValueError("ratio grid must be nonempty")
    model = Rayleigh(mean_snr)
    rows = []
    for x in ratio_grid:
        rate = math.log2(1.0 + x * mean_snr)
        row = {
            "ratio": x,
            "rate_R": rate,
            "p_R": model.decode_prob(inv_capacity(rate)),
            "brq_full_rate": analytics.avg_rate_full_csit(model, rate),
        }
        for fbits in feedback_bits:
            row[quant_rate_column(fbits)] = _quantized_rate(model, rate, fbits)
        rows.append(row)
    return rows
