import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brqsim import analytics, engine
from brqsim.channel import Deterministic, LinkConfig, Rayleigh
from brqsim.engine import RunConfig, run_replicated
from brqsim.errors import InsufficientFeedbackError
from brqsim.protocol import run_full_csit

RATE = math.log2(21.0)


def link():
    return LinkConfig(rate=RATE, slot_uses=100)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(seed=0, replications=0, horizon=10)
        with pytest.raises(ValueError):
            RunConfig(seed=0, replications=1, horizon=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RunConfig(seed=-1, replications=1, horizon=10)


class TestRunReplicated:
    def test_single_replication_matches_direct_session(self):
        run = RunConfig(seed=7, replications=1, horizon=4000)
        summary = run_replicated(run, link(), Rayleigh(10.0))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0, 0)))
        log = run_full_csit(link(), Rayleigh(10.0), 4000, rng)
        assert summary.rate_mean == log.delivered_rate
        assert math.isnan(summary.rate_half_width)  # one replication gives no interval
        assert summary.renewal_count == log.renewal_count
        assert summary.delay_hist == log.delay_hist

    def test_bitwise_deterministic(self):
        run = RunConfig(seed=11, replications=4, horizon=3000)
        a = run_replicated(run, link(), Rayleigh(10.0))
        b = run_replicated(run, link(), Rayleigh(10.0))
        assert a == b

    def test_ci_covers_quadrature_value(self):
        run = RunConfig(seed=3, replications=10, horizon=20_000)
        summary = run_replicated(run, link(), Rayleigh(10.0))
        target = analytics.avg_rate_full_csit(Rayleigh(10.0), RATE)
        assert abs(summary.rate_mean - target) <= summary.rate_half_width
        assert summary.integrity == "pass"

    def test_quantized_scheme_dispatch(self):
        quant_link = LinkConfig(rate=RATE, feedback_bits=2.0, block_length=8)
        run = RunConfig(seed=5, replications=2, horizon=16 * 40)
        summary = run_replicated(run, quant_link, Rayleigh(10.0))
        assert summary.integrity == "pass"
        assert 0.0 < summary.rate_mean < RATE

    def test_deterministic_channel_has_zero_width(self):
        run = RunConfig(seed=1, replications=5, horizon=500)
        summary = run_replicated(run, link(), Deterministic(30.0))
        assert summary.rate_mean == pytest.approx(RATE)
        assert summary.rate_half_width == pytest.approx(0.0, abs=1e-12)
        assert summary.delay_mean == 0.0

    def test_json_dict_is_serializable(self):
        import json

        run = RunConfig(seed=2, replications=2, horizon=1000)
        summary = run_replicated(run, link(), Rayleigh(10.0))
        payload = json.dumps(summary.to_json_dict(), sort_keys=True)
        assert "rate_mean" in payload


class TestCiCalibration:
    def test_coverage_over_100_seeds(self):
        # fixed seeds; at this operating point the tail bias of the
        # delivered-rate estimator is about a tenth of the CI width
        model = Rayleigh(10.0)
        rate = math.log2(11.0)
        cfg = LinkConfig(rate=rate, slot_uses=100)
        target = analytics.avg_rate_full_csit(model, rate)
        covered = 0
        for seed in range(100):
            run = RunConfig(seed=seed, replications=12, horizon=6000)
            summary = run_replicated(run, cfg, model)
            if abs(summary.rate_mean - target) <= summary.rate_half_width:
                covered += 1
        assert covered >= 90

    def test_coverage_at_two_replications_over_400_seeds(self):
        # the normal quantile 1.96 in place of t_0.975 at one degree of
        # freedom, 12.7, covers in about 70% of the seeds
        model = Rayleigh(10.0)
        rate = math.log2(11.0)
        cfg = LinkConfig(rate=rate, slot_uses=100)
        target = analytics.avg_rate_full_csit(model, rate)
        covered = 0
        for seed in range(400):
            run = RunConfig(seed=seed, replications=2, horizon=6000)
            summary = run_replicated(run, cfg, model)
            covered += abs(summary.rate_mean - target) <= summary.rate_half_width
        assert covered >= 0.91 * 400

    def test_t_quantiles_match_scipy(self):
        from scipy import stats

        # the table to the last digits, and the expansion past it
        for dof in range(1, 200):
            rel = 1e-14 if dof <= len(engine._T975) else 2e-8
            assert engine._t975(dof) == pytest.approx(stats.t.ppf(0.975, dof), rel=rel), dof


class TestSweeps:
    def test_mean_snr_sweep_contents(self):
        rows = engine.sweep_mean_snr([0.0, 10.0], rate_factors=(2.0,), feedback_bits=(1.0,))
        assert [row["mean_snr_db"] for row in rows] == [0.0, 10.0]
        for row in rows:
            assert list(row) == [
                "mean_snr_db", "wf_rate", "prior_fixed_rate", "norm_prior_fixed",
                "rate_R_k2", "p_R_k2", "brq_full_rate_k2", "norm_brq_full_k2",
                "brq_quant_rate_F1_k2", "norm_brq_quant_F1_k2",
            ]
            assert row["norm_brq_full_k2"] == row["brq_full_rate_k2"] / row["wf_rate"]

    def test_single_point_degenerates_to_analytics(self):
        (row,) = engine.sweep_mean_snr([10.0], rate_factors=(2.0,), feedback_bits=())
        model = Rayleigh(10.0)
        assert row["wf_rate"] == analytics.waterfilling_rate(model)
        assert row["prior_fixed_rate"] == analytics.avg_rate_prior_fixed_power(model)
        assert row["brq_full_rate_k2"] == analytics.avg_rate_full_csit(model, RATE)

    def test_rate_factor_two_fixes_decode_probability(self):
        rows = engine.sweep_mean_snr(
            [0.0, 6.0, 14.0, 20.0], rate_factors=(2.0,), feedback_bits=()
        )
        for row in rows:
            model = Rayleigh(10.0 ** (row["mean_snr_db"] / 10.0))
            gamma_r = 2.0 ** row["rate_R_k2"] - 1.0
            assert model.decode_prob(gamma_r) == pytest.approx(math.exp(-2.0), rel=1e-9)
            assert row["p_R_k2"] == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_threshold_sweep_monotone_in_feedback(self):
        ratios = [0.5, 1.0, 2.0, 4.0]
        rows = engine.sweep_threshold_ratio(10.0, ratios, feedback_bits=(1.0, 2.0, 8.0))
        assert [row["ratio"] for row in rows] == ratios
        for x, row in zip(ratios, rows):
            assert row["rate_R"] == math.log2(1 + 10.0 * x)
            assert row["brq_quant_rate_F1"] <= row["brq_quant_rate_F2"] + 1e-9
            assert row["brq_quant_rate_F2"] <= row["brq_quant_rate_F8"] + 1e-9
            assert row["brq_quant_rate_F8"] <= row["brq_full_rate"] + 1e-9

    def test_zero_ratio_gives_zero_rates(self):
        (row,) = engine.sweep_threshold_ratio(10.0, [0.0], feedback_bits=(1.0,))
        assert row["brq_full_rate"] == 0.0
        assert row["brq_quant_rate_F1"] == 0.0

    def test_infeasible_budget_marked_not_fatal(self):
        # threshold / mean = ln 2 gives p_R = 0.5, so H(p_R) = 1 > F
        mean_snr = 10.0
        ratio = math.log(2.0) / 1.0
        (row,) = engine.sweep_threshold_ratio(mean_snr, [ratio], feedback_bits=(0.9,))
        assert math.isnan(row["brq_quant_rate_F0.9"])
        assert math.isfinite(row["brq_full_rate"])

    def test_rate_for_factor(self):
        for k, mean_snr in [(0.0, 10.0), (0.5, 1.0), (2.0, 10.0), (3.0, 10.0**2.25)]:
            assert engine.rate_for_factor(k, mean_snr) == math.log2(1.0 + k * mean_snr)
        assert math.isnan(engine.rate_for_factor(math.nan, 10.0))
        assert engine.rate_for_factor(math.inf, 10.0) == math.inf
        for k in (-2.0, -0.5, -math.inf):
            with pytest.raises(ValueError) as err:
                engine.rate_for_factor(k, 1.0)
            assert str(err.value) == f"rate factor must be nonnegative, got {k}"
        # both sweeps take their rates from it
        with pytest.raises(ValueError, match="got -2.0"):
            engine.sweep_mean_snr([0.0], rate_factors=(1.0, -2.0))
        with pytest.raises(ValueError, match="got -0.5"):
            engine.sweep_threshold_ratio(1.0, [0.5, -0.5])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            engine.sweep_mean_snr([])
        with pytest.raises(ValueError):
            engine.sweep_threshold_ratio(10.0, [])


def same_cell(got, want):
    """Equal bit for bit (0.0 and -0.0 apart), or both NaN."""
    return type(got) is float and (repr(got) == repr(want))


def point_row_fig4(db, factors, budgets):
    """A fig4 row from the per-point public functions."""
    model = Rayleigh(10.0 ** (db / 10.0))
    wf = analytics.waterfilling_rate(model)
    pf = analytics.avg_rate_prior_fixed_power(model)
    row = {"wf_rate": wf, "prior_fixed_rate": pf, "norm_prior_fixed": pf / wf}
    for k in factors:
        kt = f"_k{k:g}"
        row.update(point_cells(model, engine.rate_for_factor(k, model.mean_snr), budgets, kt))
        row["norm_brq_full" + kt] = row["brq_full_rate" + kt] / wf
        for f in budgets:
            row[f"norm_brq_quant_F{f:g}" + kt] = row[engine.quant_rate_column(f) + kt] / wf
    return row


def point_cells(model, rate, budgets, suffix=""):
    cells = {
        "rate_R": rate,
        "p_R": model.decode_prob(2.0**rate - 1.0),
        "brq_full_rate": analytics.avg_rate_full_csit(model, rate),
    }
    for f in budgets:
        try:
            quant = analytics.avg_rate_quantized(model, rate, f)
        except InsufficientFeedbackError:
            quant = math.nan
        cells[engine.quant_rate_column(f)] = quant
    return {name + suffix: value for name, value in cells.items()}


# Reaches the E1 series (1/m >= 700 below -28.5 dB), budgets at or under
# the mask cost H(p_R), distortion past the threshold (d >= gamma_R at
# k = 0.1, F = 0.5), ratio 0 and rate factor 0 with F = 0.
BRANCH_GRID_DB = [-40.0, -29.0, -3.0, 10.0, 33.0]
BRANCH_FACTORS = [0.0, 0.1, 2.0]
BRANCH_BUDGETS = [0.0, 0.5, 1.0, math.inf]

grids_db = st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=6)
factors = st.floats(0.0, 40.0) | st.sampled_from([0.0, 0.1])
ratio_lists = st.lists(factors, min_size=1, max_size=3)
# Two factors or budgets that print alike under :g would name one column,
# which the sweeps refuse.
factor_lists = st.lists(factors, min_size=1, max_size=3, unique_by=lambda k: f"{k:g}")
budget_lists = st.lists(st.floats(0.0, 16.0) | st.sampled_from([0.0, 0.5, 1.0, math.inf]),
                        max_size=3, unique_by=engine.quant_rate_column)


class TestSweepsMatchPointFunctions:
    """Every sweep cell is the per-point public function's value, NaN cells included."""

    @settings(deadline=None)
    @example(grid=BRANCH_GRID_DB, factors=BRANCH_FACTORS, budgets=BRANCH_BUDGETS)
    @given(grid=grids_db, factors=factor_lists, budgets=budget_lists)
    def test_mean_snr_sweep(self, grid, factors, budgets):
        rows = engine.sweep_mean_snr(grid, factors, budgets)
        assert len(rows) == len(grid)
        for db, row in zip(grid, rows):
            want = point_row_fig4(db, factors, budgets)
            assert row["mean_snr_db"] == db
            assert set(row) == {"mean_snr_db", *want}
            for name, value in want.items():
                assert same_cell(row[name], value), (db, name, row[name], value)

    @settings(deadline=None)
    @example(mean_db=-40.0, ratios=[0.0, 0.1, 2.0], budgets=BRANCH_BUDGETS)
    @example(mean_db=20.0, ratios=[0.0, 0.1, 2.0], budgets=BRANCH_BUDGETS)
    @given(mean_db=st.floats(-45.0, 45.0), ratios=ratio_lists, budgets=budget_lists)
    def test_threshold_sweep(self, mean_db, ratios, budgets):
        model = Rayleigh(10.0 ** (mean_db / 10.0))
        rows = engine.sweep_threshold_ratio(model.mean_snr, ratios, budgets)
        for x, row in zip(ratios, rows, strict=True):
            want = point_cells(model, engine.rate_for_factor(x, model.mean_snr), budgets)
            assert row["ratio"] == x
            assert list(row)[1:] == list(want)
            for name, value in want.items():
                assert same_cell(row[name], value), (x, name, row[name], value)

    def test_branch_grid_reaches_every_branch(self):
        models = [Rayleigh(10.0 ** (db / 10.0)) for db in BRANCH_GRID_DB]
        assert 1.0 / models[0].mean_snr >= analytics._SERIES_FROM
        row = engine.sweep_mean_snr(BRANCH_GRID_DB[2:3], [0.1], [0.5])[0]
        rate, p_r = row["rate_R_k0.1"], row["p_R_k0.1"]
        assert analytics.distortion_bound(0.5, p_r, models[2].mean_snr) >= 2.0**rate - 1
        assert row["brq_quant_rate_F0.5_k0.1"] == rate * p_r  # no outage term
        rows = engine.sweep_mean_snr(BRANCH_GRID_DB, BRANCH_FACTORS, BRANCH_BUDGETS)
        for row in rows:
            assert math.isnan(row["brq_quant_rate_F0_k0"])  # H(1) = 0 = F
            assert math.isnan(row["brq_quant_rate_F0_k2"])  # F = 0 < H(p_R)
            assert row["brq_full_rate_k0"] == row["brq_quant_rate_F1_k0"] == 0.0
