"""Command-line front end: analytic tables, simulations and figure sweeps.

SNR flags are given in dB and converted to linear at this boundary; the
rest of the package works in linear SNR only.

Exit codes: 0 ok; 2 usage or config error, including a feedback budget
the block quantizer cannot meet (BudgetExceededError); 3 numeric
failure; 4 integrity failure, including a broken backtrack chain
(ChainBrokenError) or an undecodable feedback report
(FeedbackDecodeError).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields

from . import analytics, engine
from .channel import LinkConfig, Rayleigh, inv_capacity
from .errors import (
    BrqError,
    ChainBrokenError,
    FeedbackDecodeError,
    InfiniteDelayError,
    InsufficientFeedbackError,
    NumericError,
)
from .protocol import SlotRecord

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTEGRITY = 4

_SCHEMES = ("full", "quantized")


@dataclass
class ExperimentConfig:
    """Flat experiment description; round-trips through key=value text."""

    command: str = "analytic"
    mean_snr_db: float = 10.0
    rate: float | None = None
    rate_factor: float | None = None
    slot_uses: int = 100
    feedback_bits: float | None = None
    block_length: int = 64
    accounting: str = "fluid"
    scheme: str = "full"
    seed: int = 1
    slots: int = 100_000
    replications: int = 1
    include_warmup: bool = False
    output: str | None = None
    csv_log: str | None = None
    out_format: str = "csv"
    snr_grid_db: str = "0:30:2"
    rate_factors: str = "2,3"
    feedback_grid: str | None = None
    ratio_grid: str = "0.25:8:0.25"

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                text = "none"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CASTERS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            setattr(cfg, key, _CASTERS[key](value))
        return cfg


def _opt(cast):
    return lambda s: None if s.lower() == "none" else cast(s)


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


_CASTERS = {
    "command": str,
    "mean_snr_db": float,
    "rate": _opt(float),
    "rate_factor": _opt(float),
    "slot_uses": int,
    "feedback_bits": _opt(float),
    "block_length": int,
    "accounting": str,
    "scheme": str,
    "seed": int,
    "slots": int,
    "replications": int,
    "include_warmup": _bool,
    "output": _opt(str),
    "csv_log": _opt(str),
    "out_format": str,
    "snr_grid_db": str,
    "rate_factors": str,
    "feedback_grid": _opt(str),
    "ratio_grid": str,
}


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive stop) or a comma list."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("grid step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    return _parse_list(text)


def _parse_list(text: str) -> list[float]:
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write a header line and rows whose cells follow the header's order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(value) for value in row])
    _write_text(path, buf.getvalue())


def _write_table(path: str | None, rows: list[dict]) -> None:
    """Write dict rows under the first row's keys."""
    header = list(rows[0])
    _write_csv(path, header, ([row.get(col) for col in header] for row in rows))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _resolve_rate(cfg: ExperimentConfig, mean_snr: float) -> float:
    if cfg.rate is not None and cfg.rate_factor is not None:
        raise ValueError("give either rate or rate_factor, not both")
    if cfg.rate is not None:
        if cfg.rate < 0:
            raise ValueError("rate must be nonnegative")
        return cfg.rate
    k = cfg.rate_factor if cfg.rate_factor is not None else 2.0
    if k <= 0:
        raise ValueError("rate_factor must be positive")
    return math.log2(1.0 + k * mean_snr)


def cmd_analytic(cfg: ExperimentConfig) -> int:
    mean_snr = 10.0 ** (cfg.mean_snr_db / 10.0)
    model = Rayleigh(mean_snr)
    rate = _resolve_rate(cfg, mean_snr)
    gamma_r = inv_capacity(rate)
    p_r = model.decode_prob(gamma_r)
    try:
        delay = analytics.avg_delay_slots(model, rate)
    except InfiniteDelayError:
        delay = math.inf
    row = {
        "mean_snr_db": cfg.mean_snr_db,
        "rate_R": rate,
        "gamma_R": gamma_r,
        "p_R": p_r,
        "delay_slots": delay,
        "brq_full_rate": analytics.avg_rate_full_csit(model, rate),
        "r_limited_rate": analytics.avg_rate_r_limited(model, rate),
        "prior_fixed_rate": analytics.avg_rate_prior_fixed_power(model),
        "wf_rate": analytics.waterfilling_rate(model),
    }
    if cfg.feedback_bits is not None:
        key = engine.quant_rate_column(cfg.feedback_bits)
        try:
            row[key] = analytics.avg_rate_quantized(model, rate, cfg.feedback_bits)
            row["note"] = ""
        except InsufficientFeedbackError:
            row[key] = math.nan
            row["note"] = "insufficient_feedback"
    if cfg.out_format == "json":
        payload = {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                   for k, v in row.items()}
        _write_text(cfg.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _write_table(cfg.output, [row])
    return EXIT_OK


_SLOT_LOG_FIELDS = [f.name for f in fields(SlotRecord)]
_SLOT_LOG_HEADER = ["replication", *_SLOT_LOG_FIELDS]


def _slot_log_rows(logs) -> list[list]:
    values = operator.attrgetter(*_SLOT_LOG_FIELDS)
    return [
        [rep, *values(rec)]
        for rep, log in enumerate(logs)
        for rec in log.slot_records or []
    ]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    mean_snr = 10.0 ** (cfg.mean_snr_db / 10.0)
    model = Rayleigh(mean_snr)
    rate = _resolve_rate(cfg, mean_snr)
    if rate <= 0:
        raise ValueError("simulation needs a positive rate")
    if cfg.scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}")
    quantized = cfg.scheme == "quantized"
    if quantized and cfg.feedback_bits is None:
        raise ValueError("quantized scheme needs --feedback-bits")
    link = LinkConfig(
        rate=rate,
        slot_uses=cfg.slot_uses,
        feedback_bits=cfg.feedback_bits if quantized else None,
        block_length=cfg.block_length,
        accounting=cfg.accounting,
    )
    run = engine.RunConfig(
        seed=cfg.seed,
        replications=cfg.replications,
        horizon=cfg.slots,
        include_warmup=cfg.include_warmup,
    )
    logs = [] if cfg.csv_log else None
    summary = engine.run_replicated(
        run,
        link,
        model,
        record_slots=cfg.csv_log is not None,
        collect_logs=logs,
    )
    if cfg.csv_log:
        _write_csv(cfg.csv_log, _SLOT_LOG_HEADER, _slot_log_rows(logs))
    payload = summary.to_json_dict()
    payload["mean_snr_db"] = cfg.mean_snr_db
    payload["rate_R"] = rate
    payload["scheme"] = cfg.scheme
    payload["seed"] = cfg.seed
    _write_text(cfg.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if summary.integrity != "pass":
        return EXIT_INTEGRITY
    return EXIT_OK


def cmd_fig4(cfg: ExperimentConfig) -> int:
    fbits = _parse_list(cfg.feedback_grid) if cfg.feedback_grid else [1.0]
    rows = engine.sweep_mean_snr(
        _parse_grid(cfg.snr_grid_db), _parse_list(cfg.rate_factors), fbits
    )
    _write_table(cfg.output or "fig4.csv", rows)
    return EXIT_OK


def cmd_fig5(cfg: ExperimentConfig) -> int:
    mean_snr = 10.0 ** (cfg.mean_snr_db / 10.0)
    fbits = _parse_list(cfg.feedback_grid) if cfg.feedback_grid else [1.0, 2.0, 8.0]
    rows = engine.sweep_threshold_ratio(mean_snr, _parse_grid(cfg.ratio_grid), fbits)
    _write_table(cfg.output or "fig5.csv", rows)
    return EXIT_OK


_COMMANDS = {
    "analytic": cmd_analytic,
    "simulate": cmd_simulate,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file; flags take precedence")
    sub.add_argument("--mean-snr-db", type=float, dest="mean_snr_db")
    sub.add_argument("--rate", type=float)
    sub.add_argument("--rate-factor", type=float, dest="rate_factor")
    sub.add_argument("--slot-uses", type=int, dest="slot_uses")
    sub.add_argument("--feedback-bits", type=float, dest="feedback_bits")
    sub.add_argument("--block-length", type=int, dest="block_length")
    sub.add_argument("--accounting", choices=("fluid", "integer"))
    sub.add_argument("--scheme", choices=_SCHEMES)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--slots", type=int)
    sub.add_argument("--replications", type=int)
    sub.add_argument(
        "--include-warmup", action="store_const", const=True, dest="include_warmup"
    )
    sub.add_argument("--output")
    sub.add_argument("--csv-log", dest="csv_log")
    sub.add_argument("--format", choices=("csv", "json"), dest="out_format")
    sub.add_argument("--snr-grid-db", dest="snr_grid_db")
    sub.add_argument("--rate-factors", dest="rate_factors")
    sub.add_argument("--feedback-grid", dest="feedback_grid")
    sub.add_argument("--ratio-grid", dest="ratio_grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brqsim",
        description="Backtrack-retransmission link simulator and calculator",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analytic", "closed-form rates and delay for one operating point"),
        ("simulate", "Monte Carlo protocol simulation"),
        ("fig4", "rate-vs-mean-SNR sweep table (CSV)"),
        ("fig5", "rate-vs-threshold-ratio sweep table (CSV)"),
    ):
        sub = subs.add_parser(name, help=help_text, argument_default=None)
        _add_common(sub)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = ExperimentConfig.from_text(handle.read())
    else:
        cfg = ExperimentConfig()
    cfg.command = args.command
    for f in fields(ExperimentConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


# A value that starts with '-' and a digit, such as the grid '-5:0:5'.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a flag and a following negative value into one '--flag=value'.

    argparse reads any token that starts with '-' as an option unless it
    is a plain negative number, so a grid or list that starts below zero
    would otherwise be accepted only in the '=' form.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        cfg = load_config(args)
        return _COMMANDS[cfg.command](cfg)
    except (ChainBrokenError, FeedbackDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, BrqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
