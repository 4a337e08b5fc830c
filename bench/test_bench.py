"""Tests of the benchmark's oracles, output checks and tracer.

    python3 -m pytest bench -q

Each oracle must agree with the program, and each check must fail on a
perturbed output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from brqsim import analytics, cli, quantizer  # noqa: E402
from brqsim.channel import Rayleigh  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _brqsim(*argv: str) -> None:
    assert cli.main(list(argv)) == 0


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _dump(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


# --- oracles against the program -------------------------------------------


@pytest.mark.parametrize("db", [-5.0, 0.0, 10.0, 24.7])
def test_closed_forms_agree_with_quadrature(db):
    m = 10.0 ** (db / 10.0)
    model = Rayleigh(m)
    assert math.isclose(oracle.ergodic_rate(m), analytics.avg_rate_prior_fixed_power(model),
                        rel_tol=checks.REL_TOL)
    assert math.isclose(oracle.waterfilling_rate(m), analytics.waterfilling_rate(model),
                        rel_tol=checks.WF_REL_TOL)
    for k in (0.5, 1.0, 2.0, 3.0):
        rate = oracle.rate_of_factor(m, k)
        assert math.isclose(oracle.full_csit_rate(m, rate),
                            analytics.avg_rate_full_csit(model, rate), rel_tol=checks.REL_TOL)
        for fbits in (0.5, 1.0, 2.0, 8.0):
            want = oracle.quantized_surrogate_rate(m, rate, fbits)
            if want is None:
                continue
            assert math.isclose(want, analytics.avg_rate_quantized(model, rate, fbits),
                                rel_tol=checks.REL_TOL)


@pytest.mark.parametrize("fbits,length", [(2.0, 64), (4.0, 16), (1.5, 64), (8.0, 32)])
def test_cell_count_matches_planner(fbits, length):
    gamma = 7.0
    d = quantizer.plan_cell_width(fbits, length, 0.1, gamma)
    assert math.isclose(d, gamma / oracle.cell_count(fbits, length), rel_tol=1e-15)


def test_delay_moments_mean_is_geometric():
    mu, per_chain = oracle.delay_moments(10.0, oracle.rate_of_factor(10.0, 2.0))
    assert math.isclose(mu, math.exp(2.0) - 1.0, rel_tol=1e-12)
    assert per_chain > 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_round_fails_only_known_faults(name, tmp_path):
    commands = workloads.build(name, 0, str(tmp_path))
    rnd = run.Round(cli, commands)
    assert rnd.unexpected == []
    assert len(rnd.failures) == sum(1 for cmd in commands if cmd.known_fault)
    assert rnd.wall > 0.0 and rnd.cpu > 0.0 and rnd.output_bytes > 0


# --- checks fail on perturbed outputs ---------------------------------------


def _rewrite_cell(path, row_index, column, transform):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    rows[row_index + 1][col] = transform(rows[row_index + 1][col])
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _nudge(cell: str) -> str:
    return repr(float(cell) * (1.0 + 1e-6))


@pytest.fixture(scope="module")
def fig4_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fig4") / "fig4.csv")
    _brqsim("fig4", "--snr-grid-db=-4.5:10:4.5", "--rate-factors", "1,3",
            "--feedback-grid", "0.5,2", "--output", path)
    return path


FIG4_ARGS = (checks.grid(-4.5, 10.0, 4.5), [1.0, 3.0], [0.5, 2.0])


def test_fig4_check_passes(fig4_path):
    checks.check_fig4(fig4_path, *FIG4_ARGS)


def test_fig4_every_column_fails_when_off_by_1e_6(fig4_path, tmp_path):
    with open(fig4_path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    for column in header[1:]:
        filled = [i for i, r in enumerate(rows) if r[header.index(column)] != ""]
        if not filled:  # F <= H(p_R) everywhere; see the empty-cell test
            continue
        row = filled[0]
        path = str(tmp_path / "perturbed.csv")
        shutil.copy(fig4_path, path)
        _rewrite_cell(path, row, column, _nudge)
        with pytest.raises(checks.CheckError):
            checks.check_fig4(path, *FIG4_ARGS)


def test_fig4_empty_cells_must_match_entropy(fig4_path, tmp_path):
    with open(fig4_path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    # p_R = e^-1 gives H(p_R) = 0.95 > F = 0.5; p_R = e^-3 gives 0.29 < F.
    assert all(r[header.index("brq_quant_rate_F0.5_k1")] == "" for r in rows)
    assert all(r[header.index("brq_quant_rate_F0.5_k3")] != "" for r in rows)
    for column, value in (("brq_quant_rate_F0.5_k1", "0.5"), ("brq_quant_rate_F0.5_k3", "")):
        path = str(tmp_path / "perturbed.csv")
        shutil.copy(fig4_path, path)
        _rewrite_cell(path, 0, column, lambda _: value)
        with pytest.raises(checks.CheckError):
            checks.check_fig4(path, *FIG4_ARGS)


def test_fig5_and_analytic_fail_when_off_by_1e_6(tmp_path):
    fig5 = str(tmp_path / "fig5.csv")
    _brqsim("fig5", "--mean-snr-db", "12", "--ratio-grid", "0.5:3:0.5", "--feedback-grid",
            "1,2", "--output", fig5)
    args = (12.0, checks.grid(0.5, 3.0, 0.5), [1.0, 2.0])
    checks.check_fig5(fig5, *args)
    for column in ("rate_R", "p_R", "brq_full_rate", "brq_quant_rate_F2"):
        path = str(tmp_path / "perturbed.csv")
        shutil.copy(fig5, path)
        _rewrite_cell(path, 2, column, _nudge)
        with pytest.raises(checks.CheckError):
            checks.check_fig5(path, *args)

    out = str(tmp_path / "analytic.json")
    _brqsim("analytic", "--mean-snr-db", "7", "--rate-factor", "2", "--feedback-bits", "2",
            "--format", "json", "--output", out)
    checks.check_analytic(out, 7.0, 2.0, 2.0)
    original = _load(out)
    for key in ("wf_rate", "prior_fixed_rate", "brq_full_rate", "brq_quant_rate_F2",
                "delay_slots", "p_R"):
        bad = dict(original, **{key: original[key] * (1.0 + 1e-6)})
        _dump(bad, out)
        with pytest.raises(checks.CheckError):
            checks.check_analytic(out, 7.0, 2.0, 2.0)


@pytest.mark.parametrize("scheme", ["full", "quantized"])
def test_slot_log_fails_on_parity_one_bit_short(scheme, tmp_path):
    log, summary = str(tmp_path / "log.csv"), str(tmp_path / "out.json")
    if scheme == "full":
        argv = ["--scheme", "full", "--rate", "4"]
        kwargs = dict(scheme="full", rate=4.0)
    else:
        argv = ["--scheme", "quantized", "--feedback-bits", "2", "--block-length", "16",
                "--rate", "3.5"]
        kwargs = dict(scheme="quantized", rate=3.5, fbits=2.0, block_length=16)
    _brqsim("simulate", *argv, "--accounting", "integer", "--mean-snr-db", "10",
            "--slots", "640", "--seed", "5", "--csv-log", log, "--output", summary)
    kwargs.update(mean_snr_db=10.0, slots=640, replications=1)
    checks.check_slot_log(log, summary, **kwargs)

    with open(log, newline="") as handle:
        rows = list(csv.reader(handle))
    target = next(i for i, r in enumerate(rows[1:]) if r[4] != "")
    _rewrite_cell(log, target, "parity_bits", lambda c: repr(float(c) - 1.0))
    with pytest.raises(checks.CheckError, match="parity"):
        checks.check_slot_log(log, summary, **kwargs)


def _shifted_json(path, tmp_path, **changes):
    out = _load(path)
    out.update(changes)
    bad = str(tmp_path / "shifted.json")
    _dump(out, bad)
    return bad


def test_full_fluid_fails_when_injected_rate_leaves_its_bound(tmp_path):
    path = str(tmp_path / "full.json")
    db, k, slots, reps = 10.0, 2.0, 20_000, 2
    _brqsim("simulate", "--mean-snr-db", "10", "--rate-factor", "2", "--slots", str(slots),
            "--replications", str(reps), "--seed", "9", "--output", path)
    checks.check_full_fluid(path, db, k, slots, reps)
    m = 10.0
    b = checks.full_fluid_bounds(m, oracle.rate_of_factor(m, k), slots, reps)
    out = _load(path)
    shift = (b["injected"] - checks.injected_rate(out, slots, reps)) + 1.01 * b["injected_bound"]
    bad = _shifted_json(path, tmp_path, undelivered_bits=out["undelivered_bits"]
                        + shift * checks.SLOT_USES * slots * reps)
    with pytest.raises(checks.CheckError, match="injected rate"):
        checks.check_full_fluid(bad, db, k, slots, reps)
    bad = _shifted_json(path, tmp_path, renewal_count=out["renewal_count"] + 2000)
    with pytest.raises(checks.CheckError, match="renewal_count"):
        checks.check_full_fluid(bad, db, k, slots, reps)
    bad = _shifted_json(path, tmp_path, delay_mean=out["delay_mean"] * 1.2)
    with pytest.raises(checks.CheckError, match="delay_mean"):
        checks.check_full_fluid(bad, db, k, slots, reps)


def test_quantized_fluid_fails_when_injected_rate_leaves_its_bound(tmp_path):
    path = str(tmp_path / "quant.json")
    db, k, fbits, length, slots = 10.0, 2.0, 2.0, 64, 12_800
    _brqsim("simulate", "--scheme", "quantized", "--feedback-bits", "2", "--block-length", "64",
            "--mean-snr-db", "10", "--rate-factor", "2", "--slots", str(slots), "--seed", "4",
            "--output", path)
    checks.check_quantized_fluid(path, db, k, fbits, length, slots, 1)
    b = checks.quantized_fluid_bounds(10.0, oracle.rate_of_factor(10.0, k), fbits, length,
                                      slots, 1)
    out = _load(path)
    for sign in (1.0, -1.0):
        shift = (b["injected"] - checks.injected_rate(out, b["counted"], 1)
                 + sign * 1.01 * b["injected_bound"])
        bad = _shifted_json(path, tmp_path, undelivered_bits=out["undelivered_bits"]
                            + shift * checks.SLOT_USES * b["counted"])
        with pytest.raises(checks.CheckError, match="injected rate"):
            checks.check_quantized_fluid(bad, db, k, fbits, length, slots, 1)


def test_nonzero_exit_or_failed_check_fails_the_operation(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("uncaught")

    def bad_check():
        raise checks.CheckError("disagrees")

    out = str(tmp_path / "x.json")
    usage = workloads.Command(["simulate", "--scheme", "quantized", "--output", out], [out],
                              lambda: None)
    rnd = run.Round(cli, [usage, workloads.Command(["analytic", "--format", "json", "--output",
                                                    out], [out], bad_check)])
    assert [f.split(":")[0] for f in rnd.failures] == ["exit 2", "CheckError"]
    assert rnd.unexpected == rnd.failures
    rnd = run.Round(Crashing, [usage])
    assert [f.split(":")[0] for f in rnd.failures] == ["exit 1"]
    known = workloads.Command(["analytic", "--format", "json", "--output", out], [out],
                              bad_check, known_fault="disagrees at this point")
    rnd = run.Round(cli, [known])
    assert [f.split(":")[0] for f in rnd.failures] == ["CheckError"]
    assert rnd.unexpected == []


def test_figures_fails_only_its_known_fault_at_every_seed(tmp_path):
    rounds = [run.Round(cli, workloads.build("figures", seed, str(tmp_path)))
              for seed in (1, 1083031613)]
    for rnd in rounds:
        assert rnd.unexpected == []
        assert [f.split(":")[:2] for f in rnd.failures] == [
            ["CheckError", " analytic prior_fixed_rate"]]
    assert rounds[0].failures == rounds[1].failures


# --- tracer -------------------------------------------------------------------


def test_tracer_restores_every_name_and_counts_repeat(tmp_path):
    originals = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
                 for targets in tracing.TARGETS.values() for o, a in targets}
    commands = workloads.build("quantized-fluid", 1, str(tmp_path))[:1]
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.clear()
        tracer.install()
        try:
            rnd = run.Round(cli, commands)
        finally:
            tracer.uninstall()
        assert rnd.failures == []
        counts.append(dict(tracer.counts))
        spans = tracer.layer_totals()
        assert spans["protocol.tx_step"][2] == tracer.counts["protocol.slots"] == 38_400
        assert spans["quantizer.encode"][2] == 38_400 // 64
        # Self times of all spans add up to the root span's duration.
        assert math.isclose(sum(own for _, own, _ in spans.values()), spans["cli.main"][0],
                            rel_tol=1e-9)
    assert counts[0] == counts[1]
    for targets in tracing.TARGETS.values():
        for owner, attr in targets:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert now is originals[(id(owner), attr)]
    assert analytics.integrate.quad.__module__.startswith("scipy")


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures", "--seed",
                           "1", "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
