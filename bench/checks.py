"""Output checks for every benchmark command, built on `oracle`.

Each check reads the files a `brqsim` command wrote and raises
CheckError on the first disagreement with the oracle.  Nothing here
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math

import oracle

# Relative tolerances for analytic table cells; a cell off by 1e-6 must
# fail.  brqsim asks its quadrature for 1e-9 relative, and its quadrature
# cells agree with the closed forms to 2e-14 or better.
REL_TOL = 1e-8
# The water level is bisected until the mean power is within 1e-9 of the
# budget.  The rate moves by dP / (lambda ln 2) for a power error dP, which
# is up to 2e-8 relative at -5 dB (lambda = 0.28, rate 0.52); measured
# errors reach 6e-10.  The same bound covers the norm_* columns.
WF_REL_TOL = 1e-7
# Within this distance of F = H(p_R) a cell may be empty or filled.
ENTROPY_TIE = 1e-12
SLOT_USES = 100


class CheckError(Exception):
    """A command's output disagrees with the oracle."""


def _close(name: str, got: float, want: float, tol: float = REL_TOL) -> None:
    if not abs(got - want) <= tol * abs(want) + 1e-300:
        raise CheckError(f"{name}: got {got!r}, oracle {want!r}")


def _within(name: str, got: float, want: float, bound: float) -> None:
    if not abs(got - want) <= bound:
        raise CheckError(f"{name}: got {got!r}, expected {want!r} +- {bound!r}")


def _tag(value: float) -> str:
    return f"{value:g}"


def grid(start: float, stop: float, step: float) -> list[float]:
    """The inclusive start:stop:step grid as `brqsim` documents it."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _quant_cell(name: str, cell: str, m: float, rate: float, fbits: float,
                wf: float | None = None) -> None:
    """Check a quantized-rate cell, divided by `wf` for the norm_* columns."""
    want = oracle.quantized_surrogate_rate(m, rate, fbits)
    h = oracle.entropy(oracle.decode_prob(m, rate))
    if abs(fbits - h) <= ENTROPY_TIE:
        return
    if want is None:
        if cell != "":
            raise CheckError(f"{name}: F={fbits} <= H(p_R)={h!r} but cell is {cell!r}")
        return
    if cell == "":
        raise CheckError(f"{name}: F={fbits} > H(p_R)={h!r} but cell is empty")
    if wf is None:
        _close(name, float(cell), want)
    else:
        _close(name, float(cell), want / wf, WF_REL_TOL)


def _read_table(path: str, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        got = next(reader)
        if got != header:
            raise CheckError(f"{path}: header {got} != {header}")
        return [dict(zip(header, row, strict=True)) for row in reader]


def check_fig4(path: str, grid_db: list[float], factors: list[float], fbits: list[float]) -> None:
    header = ["mean_snr_db", "wf_rate", "prior_fixed_rate", "norm_prior_fixed"]
    for k in factors:
        kt = _tag(k)
        header += [f"rate_R_k{kt}", f"p_R_k{kt}", f"brq_full_rate_k{kt}", f"norm_brq_full_k{kt}"]
        for f in fbits:
            header += [f"brq_quant_rate_F{_tag(f)}_k{kt}", f"norm_brq_quant_F{_tag(f)}_k{kt}"]
    rows = _read_table(path, header)
    if len(rows) != len(grid_db):
        raise CheckError(f"fig4: {len(rows)} rows for a {len(grid_db)}-point grid")
    for row, db in zip(rows, grid_db):
        _close("fig4 mean_snr_db", float(row["mean_snr_db"]), db, 1e-12)
        m = 10.0 ** (float(row["mean_snr_db"]) / 10.0)
        wf = oracle.waterfilling_rate(m)
        prior = oracle.ergodic_rate(m)
        _close("fig4 wf_rate", float(row["wf_rate"]), wf, WF_REL_TOL)
        _close("fig4 prior_fixed_rate", float(row["prior_fixed_rate"]), prior)
        _close("fig4 norm_prior_fixed", float(row["norm_prior_fixed"]), prior / wf, WF_REL_TOL)
        for k in factors:
            kt = _tag(k)
            rate = oracle.rate_of_factor(m, k)
            full = oracle.full_csit_rate(m, rate)
            _close(f"fig4 rate_R_k{kt}", float(row[f"rate_R_k{kt}"]), rate, 1e-12)
            _close(f"fig4 p_R_k{kt}", float(row[f"p_R_k{kt}"]), oracle.decode_prob(m, rate))
            _close(f"fig4 brq_full_rate_k{kt}", float(row[f"brq_full_rate_k{kt}"]), full)
            _close(f"fig4 norm_brq_full_k{kt}", float(row[f"norm_brq_full_k{kt}"]), full / wf,
                   WF_REL_TOL)
            for f in fbits:
                col = f"F{_tag(f)}_k{kt}"
                _quant_cell(f"fig4 brq_quant_rate_{col}", row[f"brq_quant_rate_{col}"], m, rate, f)
                _quant_cell(f"fig4 norm_brq_quant_{col}", row[f"norm_brq_quant_{col}"], m, rate, f, wf)


def check_fig5(path: str, mean_snr_db: float, ratios: list[float], fbits: list[float]) -> None:
    header = ["ratio", "rate_R", "p_R", "brq_full_rate"]
    header += [f"brq_quant_rate_F{_tag(f)}" for f in fbits]
    rows = _read_table(path, header)
    if len(rows) != len(ratios):
        raise CheckError(f"fig5: {len(rows)} rows for a {len(ratios)}-point grid")
    m = 10.0 ** (mean_snr_db / 10.0)
    for row, x in zip(rows, ratios):
        _close("fig5 ratio", float(row["ratio"]), x, 1e-12)
        rate = math.log2(1.0 + float(row["ratio"]) * m)
        _close("fig5 rate_R", float(row["rate_R"]), rate, 1e-12)
        _close("fig5 p_R", float(row["p_R"]), oracle.decode_prob(m, rate))
        _close("fig5 brq_full_rate", float(row["brq_full_rate"]), oracle.full_csit_rate(m, rate))
        for f in fbits:
            col = f"brq_quant_rate_F{_tag(f)}"
            _quant_cell(f"fig5 {col}", row[col], m, rate, f)


def check_analytic(path: str, mean_snr_db: float, factor: float, fbits: float) -> None:
    with open(path, encoding="utf-8") as handle:
        out = json.load(handle)
    m = 10.0 ** (mean_snr_db / 10.0)
    rate = oracle.rate_of_factor(m, factor)
    p = oracle.decode_prob(m, rate)
    full = oracle.full_csit_rate(m, rate)
    quant_key = f"brq_quant_rate_F{_tag(fbits)}"
    want_keys = {"mean_snr_db", "rate_R", "gamma_R", "p_R", "delay_slots", "brq_full_rate",
                 "r_limited_rate", "prior_fixed_rate", "wf_rate", quant_key, "note"}
    if set(out) != want_keys:
        raise CheckError(f"analytic keys {sorted(out)} != {sorted(want_keys)}")
    _close("analytic mean_snr_db", out["mean_snr_db"], mean_snr_db, 1e-15)
    _close("analytic rate_R", out["rate_R"], rate, 1e-12)
    _close("analytic gamma_R", out["gamma_R"], oracle.gamma_of(rate), 1e-12)
    _close("analytic p_R", out["p_R"], p)
    _close("analytic delay_slots", out["delay_slots"], (1.0 - p) / p)
    _close("analytic brq_full_rate", out["brq_full_rate"], full)
    _close("analytic r_limited_rate", out["r_limited_rate"], full)
    _close("analytic prior_fixed_rate", out["prior_fixed_rate"], oracle.ergodic_rate(m))
    _close("analytic wf_rate", out["wf_rate"], oracle.waterfilling_rate(m), WF_REL_TOL)
    quant = out[quant_key]
    _quant_cell(f"analytic {quant_key}", "" if quant is None else repr(quant), m, rate, fbits)
    want_note = "insufficient_feedback" if quant is None else ""
    if out["note"] != want_note:
        raise CheckError(f"analytic note {out['note']!r}, expected {want_note!r}")


# --- simulate summaries --------------------------------------------------


def _load_summary(path: str, slots: int, replications: int) -> dict:
    with open(path, encoding="utf-8") as handle:
        out = json.load(handle)
    if out["integrity"] != "pass":
        raise CheckError(f"integrity: {out['integrity']}")
    if out["horizon"] != slots or out["replications"] != replications:
        raise CheckError(f"horizon/replications {out['horizon']}/{out['replications']}")
    return out


def _check_renewals(out: dict, p: float, trials: int) -> None:
    bound = oracle.N_SIGMA * math.sqrt(trials * p * (1.0 - p)) + 1.0
    _within("renewal_count", out["renewal_count"], trials * p, bound)


def _check_hist_total(out: dict, counted_slots: int, replications: int) -> None:
    delivered = out["rate_mean"] * SLOT_USES * counted_slots * replications
    total = sum(out["delay_hist"].values())
    _close("sum of delay_hist vs delivered bits", total, delivered, 1e-9)


def injected_rate(out: dict, counted_slots: int, replications: int) -> float:
    """Bits put on air per counted channel use: delivered plus undelivered."""
    return out["rate_mean"] + out["undelivered_bits"] / (
        SLOT_USES * counted_slots * replications
    )


def full_fluid_bounds(m: float, rate: float, slots: int, replications: int) -> dict:
    """Expected values and allowed deviations for a full-CSIT fluid run.

    Slot 0 carries R and slot t >= 1 carries f(g_{t-1}), so the injected
    rate is (R + sum of n-1 i.i.d. loads) / n.  The delivered rate falls
    short of it by the trailing open chain, at most R * cap / n.
    """
    mean, var = oracle.full_slot_moments(m, rate)
    n = slots
    inj_mean = ((n - 1) * mean + rate) / n
    inj_bound = oracle.N_SIGMA * math.sqrt((n - 1) * var / replications) / n + 1e-12
    p = oracle.decode_prob(m, rate)
    tail = rate * oracle.open_chain_cap(p, replications) / n
    return {"p": p, "closed_form": mean, "injected": inj_mean, "injected_bound": inj_bound,
            "tail": tail}


def check_full_fluid(path: str, mean_snr_db: float, factor: float, slots: int,
                     replications: int) -> None:
    out = _load_summary(path, slots, replications)
    m = 10.0 ** (mean_snr_db / 10.0)
    rate = oracle.rate_of_factor(m, factor)
    _close("rate_R", out["rate_R"], rate, 1e-12)
    b = full_fluid_bounds(m, rate, slots, replications)
    _check_renewals(out, b["p"], slots * replications)
    _within("injected rate", injected_rate(out, slots, replications), b["injected"],
            b["injected_bound"])
    lo = b["injected"] - b["injected_bound"] - b["tail"]
    hi = b["injected"] + b["injected_bound"]
    if not lo <= out["rate_mean"] <= hi:
        raise CheckError(f"rate_mean {out['rate_mean']!r} outside [{lo!r}, {hi!r}] "
                         f"around closed form {b['closed_form']!r}")
    mu, per_chain = oracle.delay_moments(m, rate)
    chains = max(out["renewal_count"], 1)
    # 6 sigma of the delta-method estimator plus its O(1/n) ratio bias.
    bound = oracle.N_SIGMA * math.sqrt(per_chain / chains) + 10.0 * per_chain / chains
    _within("delay_mean", out["delay_mean"], mu, bound)
    _check_hist_total(out, slots, replications)


def quantized_fluid_bounds(m: float, rate: float, fbits: float, block_length: int,
                           slots: int, replications: int) -> dict:
    """Expected injected rate of a quantized fluid run and its deviation bound.

    Every counted slot t >= 2L carries the load set by slot t - 2L, a
    distinct i.i.d. SNR, so the counted loads are i.i.d.
    """
    _, mean, var = oracle.quantized_slot_moments(m, rate, fbits, block_length)
    counted = slots - 2 * block_length
    bound = oracle.N_SIGMA * math.sqrt(var / (counted * replications)) + 1e-12
    return {"p": oracle.decode_prob(m, rate), "injected": mean, "injected_bound": bound,
            "counted": counted, "full_csit": oracle.full_csit_rate(m, rate)}


def check_quantized_fluid(path: str, mean_snr_db: float, factor: float, fbits: float,
                          block_length: int, slots: int, replications: int) -> None:
    out = _load_summary(path, slots, replications)
    m = 10.0 ** (mean_snr_db / 10.0)
    rate = oracle.rate_of_factor(m, factor)
    _close("rate_R", out["rate_R"], rate, 1e-12)
    b = quantized_fluid_bounds(m, rate, fbits, block_length, slots, replications)
    _check_renewals(out, b["p"], slots * replications)
    _within("injected rate", injected_rate(out, b["counted"], replications), b["injected"],
            b["injected_bound"])
    # Each of the 2L processes ends inside an open chain, so the delivered
    # rate sits well below the injected mean; only its ceiling is checked.
    if out["rate_mean"] > b["full_csit"] + b["injected_bound"]:
        raise CheckError(f"rate_mean {out['rate_mean']!r} above the full-CSIT closed "
                         f"form {b['full_csit']!r}")
    _check_hist_total(out, b["counted"], replications)


# --- integer slot log replay --------------------------------------------


def _parity(rate: float, eff: float) -> int:
    """Integer parity ceil(N (R - C(eff))); a value within 1e-6 of an
    integer counts as that integer, so rounding of R - C cannot add a bit."""
    raw = SLOT_USES * (rate - math.log2(1.0 + eff))
    nearest = round(raw)
    return nearest if abs(raw - nearest) <= 1e-6 else math.ceil(raw)


def check_slot_log(csv_path: str, json_path: str, *, scheme: str, rate: float,
                   mean_snr_db: float, slots: int, replications: int,
                   fbits: float | None = None, block_length: int = 1) -> None:
    """Replay an integer-accounting slot log row by row."""
    out = _load_summary(json_path, slots, replications)
    _close("rate_R", out["rate_R"], rate, 0.0)
    bits_per_slot = round(rate * SLOT_USES)
    gamma = oracle.gamma_of(rate)
    if scheme == "quantized":
        m = 10.0 ** (mean_snr_db / 10.0)
        cell, _, _ = oracle.quantized_slot_moments(m, rate, fbits, block_length)
        lag, warmup = 2 * block_length, 2 * block_length
    else:
        cell, lag, warmup = 0.0, 1, 0

    header = ["replication", "slot", "instance", "snr", "eff_snr", "parity_bits", "new_bits",
              "decoded", "renewal", "chain_length", "reward_bits"]
    renewals = 0
    delivered = 0.0
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader) != header:
            raise CheckError("slot log header")
        count = 0
        for rep in range(replications):
            snrs: list[float] = []  # this replication's SNRs by slot
            chains: dict[int, list[tuple[int, float]]] = {}  # failed run per instance
            for t in range(slots):
                row = next(reader, None)
                if row is None:
                    raise CheckError(f"slot log ends at row {count}")
                count += 1
                where = f"slot log rep {rep} slot {t}"
                if int(row[0]) != rep or int(row[1]) != t:
                    raise CheckError(f"{where}: row labelled {row[0]}/{row[1]}")
                if scheme == "quantized":
                    block, pos = divmod(t, block_length)
                    instance = (block % 2) * block_length + pos
                else:
                    instance = 0
                if int(row[2]) != instance:
                    raise CheckError(f"{where}: instance {row[2]}, expected {instance}")
                snr = float(row[3])
                snrs.append(snr)
                decoded = row[7] == "1"
                if decoded != (snr >= gamma):
                    raise CheckError(f"{where}: decoded={row[7]} at snr {snr!r}, gamma {gamma!r}")
                if row[8] != row[7]:
                    raise CheckError(f"{where}: renewal={row[8]} but decoded={row[7]}")
                pred = snrs[t - lag] if t >= lag else None
                parity = float(row[5])
                if pred is None or pred >= gamma:
                    if row[4] != "" or parity != 0.0:
                        raise CheckError(f"{where}: eff_snr {row[4]!r}, parity {parity} "
                                         "without a failed predecessor")
                else:
                    eff = float(row[4])
                    if not pred - cell * (1.0 + 1e-12) <= eff <= pred:
                        raise CheckError(f"{where}: eff_snr {eff!r} outside "
                                         f"[{pred - cell!r}, {pred!r}]")
                    if parity != _parity(rate, eff):
                        raise CheckError(f"{where}: parity {parity}, expected "
                                         f"{_parity(rate, eff)}")
                new_bits = float(row[6])
                if new_bits != bits_per_slot - parity:
                    raise CheckError(f"{where}: new bits {new_bits} != {bits_per_slot} - {parity}")
                run = chains.setdefault(instance, [])
                chain_length, reward = int(row[9]), float(row[10])
                if decoded:
                    want = (len(run) + 1, sum(b for _, b in run) + new_bits)
                    if (chain_length, reward) != want:
                        raise CheckError(f"{where}: chain_length/reward {chain_length}/{reward},"
                                         f" expected {want[0]}/{want[1]}")
                    renewals += 1
                    delivered += sum(b for s, b in run + [(t, new_bits)] if s >= warmup)
                    run.clear()
                else:
                    if chain_length != 0 or reward != 0.0:
                        raise CheckError(f"{where}: chain fields set on an outage slot")
                    run.append((t, new_bits))
        if next(reader, None) is not None:
            raise CheckError("slot log has rows beyond the horizon")
    if out["renewal_count"] != renewals:
        raise CheckError(f"renewal_count {out['renewal_count']} != {renewals} in the slot log")
    _close("delivered bits", sum(out["delay_hist"].values()), delivered, 1e-12)
    _check_hist_total(out, slots - warmup, replications)
