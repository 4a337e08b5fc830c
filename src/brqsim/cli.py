"""Command-line front end: analytic tables, simulations and figure sweeps.

SNR flags are given in dB and converted to linear at this boundary; the
rest of the package works in linear SNR only.

Exit codes (past argument parsing, an error is one stderr line):
0 ok; 2 usage or config error ("error: ..."): ValueError, OSError and
every BrqError not named below, such as InsufficientFeedbackError when
the budget cannot carry even a single-cell quantizer; 3 NumericError
("numeric failure: ..."); 4 integrity failure ("error: ..."):
ChainBrokenError, FeedbackDecodeError, or a `simulate` summary whose
integrity is "fail" (written, with nothing on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import typing
from dataclasses import Field, dataclass, field, fields

import numpy as np

from . import analytics, engine
from .channel import (
    ACCOUNTING_MODES,
    LinkConfig,
    Rayleigh,
    db_to_linear,
    inv_capacity,
)
from .errors import (
    BrqError,
    ChainBrokenError,
    FeedbackDecodeError,
    InfiniteDelayError,
    InsufficientFeedbackError,
    NumericError,
)
from .protocol import SLOT_FIELDS, SlotRows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTEGRITY = 4


@dataclass
class ExperimentConfig:
    """Flat experiment description, read from key=value text.

    Each field is one setting of the config file and one command-line
    flag: `--<name>` with underscores as dashes, unless its metadata names
    a `flag`.  The command is not a setting: it is the positional argument
    only.  The annotation gives the type (`| None` admits 'none' in the
    file) and a `choices` entry limits the values, in the file as on the
    command line.
    """

    mean_snr_db: float = 10.0
    rate: float | None = None
    rate_factor: float | None = None
    slot_uses: int = 100
    feedback_bits: float | None = None
    block_length: int = 64
    accounting: str = field(default="fluid", metadata={"choices": ACCOUNTING_MODES})
    scheme: str = field(default="full", metadata={"choices": ("full", "quantized")})
    seed: int = 1
    slots: int = 100_000
    replications: int = 1
    include_warmup: bool = False
    output: str | None = None
    csv_log: str | None = None
    out_format: str = field(
        default="csv", metadata={"choices": ("csv", "json"), "flag": "--format"}
    )
    snr_grid_db: str = "0:30:2"
    rate_factors: str = "2,3"
    feedback_grid: str | None = None
    ratio_grid: str = "0.25:8:0.25"

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
            try:
                setattr(cfg, key, _CASTERS[key](value))
            except ValueError as err:
                raise ValueError(f"line {lineno}: key {key!r}: {err}") from None
        return cfg


_HINTS = typing.get_type_hints(ExperimentConfig)


def _setting_type(f: Field) -> tuple[type, bool]:
    """A setting's type without None, and whether it may be None."""
    hint = _HINTS[f.name]
    others = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return (others[0], True) if others else (hint, False)


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _caster(f: Field):
    """Parse a config-file value of setting `f`, checked as its flag is."""
    base, optional = _setting_type(f)
    cast = _bool if base is bool else base
    choices = f.metadata.get("choices")

    def parse(text: str):
        if optional and text.lower() == "none":
            return None
        value = cast(text)
        if choices is not None and value not in choices:
            raise ValueError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"
            )
        return value

    return parse


_CASTERS = {f.name: _caster(f) for f in fields(ExperimentConfig)}


def _flag(f: Field) -> tuple[str, dict]:
    """The command-line flag of setting `f` and its add_argument options."""
    flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
    base, _ = _setting_type(f)
    if base is bool:
        return flag, {"action": "store_const", "const": True, "dest": f.name}
    return flag, {"type": base, "choices": f.metadata.get("choices"), "dest": f.name}


_FLAGS = [_flag(f) for f in fields(ExperimentConfig)]


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive stop) or a comma list."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = parts
        if not all(map(math.isfinite, parts)):
            raise ValueError(f"grid start, stop and step must be finite, got {text!r}")
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


def _join_rows(rows) -> str:
    """CSV lines of rows of cell texts.  No cell holds a comma, quote or
    newline, so none needs quoting."""
    return "\n".join(map(",".join, rows)) + "\n"


def _write_table(path: str | None, rows: list[dict]) -> None:
    """Write dict rows, which share their keys and the type of each
    column, under the first row's keys.

    A float column goes through `_float_cells`; any other cell is its
    str, or 1 or 0 for a bool.
    """
    header = list(rows[0])
    columns = [[row[col] for row in rows] for col in header]
    cells = [_float_cells(np.array(values)) if isinstance(values[0], float)
             else [str(int(v)) if isinstance(v, bool) else str(v) for v in values]
             for values in columns]
    _write_text(path, _join_rows([header, *zip(*cells)]))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    """Write `payload` as sorted, indented JSON, non-finite floats as null."""
    clean = {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
             for k, v in payload.items()}
    _write_text(path, json.dumps(clean, sort_keys=True, indent=2) + "\n")


def _resolve_rate(cfg: ExperimentConfig, mean_snr: float) -> float:
    if cfg.rate is not None and cfg.rate_factor is not None:
        raise ValueError("give either rate or rate_factor, not both")
    if cfg.rate is not None:
        return cfg.rate
    return engine.rate_for_factor(
        cfg.rate_factor if cfg.rate_factor is not None else 2.0, mean_snr
    )


def cmd_analytic(cfg: ExperimentConfig) -> int:
    mean_snr = db_to_linear(cfg.mean_snr_db)
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
        try:
            quant, note = analytics.avg_rate_quantized(model, rate, cfg.feedback_bits), ""
        except InsufficientFeedbackError:
            quant, note = math.nan, "insufficient_feedback"
        row[engine.quant_rate_column(cfg.feedback_bits)] = quant
        row["note"] = note
    if cfg.out_format == "json":
        _write_json(cfg.output, row)
    else:
        _write_table(cfg.output, [row])
    return EXIT_OK


_SLOT_LOG_HEADER = ["replication", *SLOT_FIELDS]


# Rows of the slot log formatted, joined and written at a time.
_SLOT_LOG_CHUNK = 4096


def _float_cells(values: np.ndarray) -> list[str]:
    """The cell of each float: its repr, or '' for NaN."""
    cells = list(map(repr, values.tolist()))
    if np.isnan(values).any():
        cells = ["" if cell == "nan" else cell for cell in cells]
    return cells


# Distinct values a `_CellPool` keeps before it starts over: an integer
# session's parity, new bits, chain lengths and rewards recur, a fluid
# one's parity, new bits and rewards do not.
_POOL_LIMIT = 4096


class _CellPool:
    """The cells of values seen before, sorted by bit pattern, so that a
    value that recurs across the slot log's blocks is formatted once and
    a block of known values is looked up, not sorted."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.int64)
        self.texts = np.zeros(0, dtype=object)

    def index(self, values: np.ndarray) -> np.ndarray:
        """Where each of the floats or ints is in `keys` and `texts`, once
        the values not yet there are formatted and added."""
        keys = values.view(np.int64)
        at = np.searchsorted(self.keys, keys)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == keys[seen]
        if seen.all():
            return at
        fresh = np.unique(keys[~seen])
        if len(self.keys) + len(fresh) > _POOL_LIMIT:
            self.keys, self.texts = self.keys[:0], self.texts[:0]
            fresh = np.unique(keys)
        if values.dtype.kind == "f":
            texts = _float_cells(fresh.view(np.float64))
        else:
            texts = list(map(str, fresh.tolist()))
        where = np.searchsorted(self.keys, fresh)
        self.keys = np.insert(self.keys, where, fresh)
        self.texts = np.insert(self.texts, where, np.array(texts, dtype=object))
        return np.searchsorted(self.keys, keys)

    def cells(self, values: np.ndarray) -> np.ndarray:
        """The cell of each float or int, as an object array."""
        at = self.index(values)  # before `texts`, which it may replace
        return self.texts[at]


def _filled(n: int, text: str) -> np.ndarray:
    """An object array of `n` references to `text` (np.full would make `n`
    copies of it)."""
    cells = np.empty(n, dtype=object)
    cells.fill(text)
    return cells


class _SlotLog:
    """The `--csv-log` writer: a slot sink, `sink(rep, rows)`, that formats
    and writes each chunk of a session's slot log as it comes.

    The file is opened at the first chunk, so a run that fails before its
    first slot leaves none.  A block of `_SLOT_LOG_CHUNK` rows is formatted
    column by column, each cell once where it can be: `slot` and
    `instance` from their ranges; one repr per SNR, which a report of the
    SNR P rows up reuses; `parity_bits` with the `new_bits` it leaves as
    one cell; and `decoded`, `renewal`, `chain_length` and `reward_bits`
    as one cell, the same for every slot that renews no chain.  Reports,
    parity, new bits, chain lengths and rewards recur, so their cells are
    kept across blocks in `_CellPool`s.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle = None
        self._pools = {name: _CellPool()
                       for name in ("eff", "parity", "new", "length", "reward")}

    def __enter__(self) -> "_SlotLog":
        return self

    def __exit__(self, *exc) -> None:
        if self._handle is not None:
            self._handle.close()

    def __call__(self, rep: int, rows: SlotRows) -> None:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8", newline="")
            self._handle.write(_join_rows([_SLOT_LOG_HEADER]))
        n, p = len(rows.decoded), rows.processes
        renewals = np.flatnonzero(rows.decoded)
        instances = list(map(str, range(p))) * -(-n // p)  # as rows.start is a multiple of P
        for lo in range(0, n, _SLOT_LOG_CHUNK):
            hi = min(lo + _SLOT_LOG_CHUNK, n)
            self._handle.write(self._block(rep, rows, lo, hi, renewals, instances[lo:hi]))

    def _block(self, rep, rows, lo, hi, renewals, instances) -> str:
        """The CSV lines of rows `lo` to `hi` of the chunk, each led by the
        replication."""
        m, start, p = hi - lo, rows.start + lo, rows.processes
        snr = rows.snr[lo:hi]
        snr_cells = np.array(_float_cells(snr), dtype=object)
        eff, fed = rows.eff_snr[lo:hi], rows.fed[lo:hi].copy()
        echo = np.zeros(m, dtype=bool)  # reports of the SNR P rows up
        echo[p:] = fed[p:] & (eff[p:].view(np.int64) == snr[:-p].view(np.int64))
        fed &= ~echo
        eff_cells = _filled(m, "")
        eff_cells[echo] = snr_cells[np.flatnonzero(echo) - p]
        eff_cells[fed] = self._pools["eff"].cells(eff[fed])
        a, b = np.searchsorted(renewals, (lo, hi))
        tails = _filled(m, "0,0,0,0.0")  # decoded, renewal, chain_length, reward_bits
        tails[renewals[a:b] - lo] = [
            f"1,1,{length},{reward}" for length, reward in zip(
                self._pools["length"].cells(rows.chain_length[a:b]).tolist(),
                self._pools["reward"].cells(rows.reward_bits[a:b]).tolist())
        ]
        bits = self._bits_cells(rows.parity_bits[lo:hi], rows.new_bits[lo:hi])
        lead = f"{rep},"
        return lead + ("\n" + lead).join(map(",".join, zip(
            map(repr, range(start, start + m)),  # an int's repr is its str, and faster
            instances, snr_cells.tolist(), eff_cells.tolist(), bits, tails.tolist(),
        ))) + "\n"

    def _bits_cells(self, parity: np.ndarray, new_bits: np.ndarray) -> list[str]:
        """The `parity_bits,new_bits` cells of each row.  A slot's new bits
        are B less its parity, so each parity is formatted with its new bits
        once; a block where the parity does not fix them is formatted
        column by column."""
        pool, new_pool = self._pools["parity"], self._pools["new"]
        at, new_keys = pool.index(parity), new_bits.view(np.int64)
        news = np.zeros(len(pool.keys), dtype=np.int64)
        news[at] = new_keys
        if not np.array_equal(news[at], new_keys):
            return (pool.texts[at] + "," + new_pool.cells(new_bits)).tolist()
        used = np.flatnonzero(np.bincount(at, minlength=len(pool.keys)))
        pairs = np.empty(len(pool.keys), dtype=object)
        pairs[used] = pool.texts[used] + "," + new_pool.cells(news[used].view(np.float64))
        return pairs[at].tolist()


def cmd_simulate(cfg: ExperimentConfig) -> int:
    mean_snr = db_to_linear(cfg.mean_snr_db)
    model = Rayleigh(mean_snr)
    rate = _resolve_rate(cfg, mean_snr)
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
    if cfg.csv_log:
        with _SlotLog(cfg.csv_log) as slot_log:
            summary = engine.run_replicated(run, link, model, slot_sink=slot_log)
    else:
        summary = engine.run_replicated(run, link, model)
    payload = summary.to_json_dict()
    payload["mean_snr_db"] = cfg.mean_snr_db
    payload["rate_R"] = rate
    payload["scheme"] = cfg.scheme
    payload["seed"] = cfg.seed
    _write_json(cfg.output, payload)
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
    mean_snr = db_to_linear(cfg.mean_snr_db)
    fbits = _parse_list(cfg.feedback_grid) if cfg.feedback_grid else [1.0, 2.0, 8.0]
    rows = engine.sweep_threshold_ratio(mean_snr, _parse_grid(cfg.ratio_grid), fbits)
    _write_table(cfg.output or "fig5.csv", rows)
    return EXIT_OK


# Each command with its one-line description.
_COMMANDS = {
    "analytic": (cmd_analytic, "closed-form rates and delay for one operating point"),
    "simulate": (cmd_simulate, "Monte Carlo protocol simulation"),
    "fig4": (cmd_fig4, "rate-vs-mean-SNR sweep table (CSV)"),
    "fig5": (cmd_fig5, "rate-vs-threshold-ratio sweep table (CSV)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<10}{text}" for name, (_, text) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="brqsim",
        description="Backtrack-retransmission link simulator and calculator\n\n"
                    "commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands above")
    parser.add_argument("--config", help="key=value config file; flags take precedence")
    for flag, options in _FLAGS:
        parser.add_argument(flag, **options)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = ExperimentConfig.from_text(handle.read())
    else:
        cfg = ExperimentConfig()
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
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
        return _COMMANDS[args.command][0](cfg)
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
