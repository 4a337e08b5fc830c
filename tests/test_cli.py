import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import csv_reference
import numpy as np
import output_digest
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brqsim import cli, engine
from brqsim.channel import LinkConfig, Rayleigh, db_to_linear
from brqsim.cli import ExperimentConfig, main
from brqsim.errors import (
    BrqError,
    BudgetExceededError,
    ChainBrokenError,
    FeedbackDecodeError,
    InfiniteDelayError,
    InsufficientFeedbackError,
    NumericError,
    TraceExhaustedError,
)
from brqsim.protocol import SlotRows


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# Every setting of a config file, each away from its default.
EVERY_SETTING_TEXT = """\
mean_snr_db=-3.5
rate=2.25
rate_factor=4
slot_uses=50
feedback_bits=3
block_length=8
accounting=integer
scheme=quantized
seed=11
slots=2048
replications=3
include_warmup=true
output=o.json
csv_log=l.csv
out_format=json
snr_grid_db=0:9:3
rate_factors=1,5
feedback_grid=2,4
ratio_grid=1:2:0.5
"""
EVERY_SETTING = ExperimentConfig(
    mean_snr_db=-3.5, rate=2.25, rate_factor=4.0,
    slot_uses=50, feedback_bits=3.0, block_length=8, accounting="integer",
    scheme="quantized", seed=11, slots=2048, replications=3,
    include_warmup=True, output="o.json", csv_log="l.csv", out_format="json",
    snr_grid_db="0:9:3", rate_factors="1,5", feedback_grid="2,4",
    ratio_grid="1:2:0.5",
)
# Every setting at its default, spelt out.
DEFAULTS_TEXT = """\
mean_snr_db=10
rate=none
rate_factor=none
slot_uses=100
feedback_bits=none
block_length=64
accounting=fluid
scheme=full
seed=1
slots=100000
replications=1
include_warmup=false
output=none
csv_log=none
out_format=csv
snr_grid_db=0:30:2
rate_factors=2,3
feedback_grid=none
ratio_grid=0.25:8:0.25
"""


def keys(text):
    return [line.split("=")[0] for line in text.splitlines()]


class TestExperimentConfig:
    def test_file_sets_every_setting(self):
        assert keys(EVERY_SETTING_TEXT) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert ExperimentConfig.from_text(EVERY_SETTING_TEXT) == EVERY_SETTING

    def test_file_of_defaults_gives_the_defaults(self):
        assert keys(DEFAULTS_TEXT) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert ExperimentConfig.from_text(DEFAULTS_TEXT) == ExperimentConfig()
        # a later line overrides an earlier one, so these read none and false
        assert ExperimentConfig.from_text(EVERY_SETTING_TEXT + DEFAULTS_TEXT) == ExperimentConfig()

    def test_comments_and_blank_lines(self):
        cfg = ExperimentConfig.from_text("# comment\n\nseed=5\nrate=2.5\n")
        assert cfg.seed == 5
        assert cfg.rate == 2.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("bogus=1\n")

    def test_flags_take_precedence_over_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed=5\nmean_snr_db=20\n")
        parser = cli.build_parser()
        args = parser.parse_args(
            ["analytic", "--config", str(path), "--seed", "7"]
        )
        cfg = cli.load_config(args)
        assert cfg.seed == 7  # flag wins
        assert cfg.mean_snr_db == 20.0  # file survives where no flag given

    def test_flags_and_file_read_every_setting_alike(self):
        cfg = EVERY_SETTING
        defaults = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(cfg))
        flags = {a.dest: a.option_strings[0] for a in cli.build_parser()._actions
                 if a.option_strings}
        settings = {f.name for f in dataclasses.fields(cfg)}
        assert set(flags) == settings | {"help", "config"}
        assert flags["out_format"] == "--format"
        argv = ["fig5"]
        for name in sorted(settings):
            value = getattr(cfg, name)
            argv += [flags[name]] if value is True else [f"{flags[name]}={value}"]
        from_flags = cli.load_config(cli.build_parser().parse_args(argv))
        assert from_flags == ExperimentConfig.from_text(EVERY_SETTING_TEXT) == cfg

    def test_command_is_not_a_setting(self, tmp_path, capsys):
        # the command is the positional argument only; a file that names
        # one is refused, not silently overridden
        assert "command" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text("mean_snr_db=3\ncommand=fig4\n")
        assert main(["analytic", "--config", str(path), "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: unknown key 'command'\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, choices", [
        ("out_format", "xml", "'csv', 'json'"),
        ("accounting", "x", "'fluid', 'integer'"),
        ("scheme", "x", "'full', 'quantized'"),
    ])
    def test_file_values_obey_the_flag_choices(self, tmp_path, capsys, key, value, choices):
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(f"{key}={value}\n")
        for command in ("analytic", "simulate"):
            code = main([command, "--config", str(path), "--slots", "100",
                         "--output", str(out)])
            assert code == cli.EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: line 1: key {key!r}: invalid choice: {value!r} "
                f"(choose from {choices})\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("seed", "x", "invalid literal for int() with base 10: 'x'"),
        ("mean_snr_db", "ten", "could not convert string to float: 'ten'"),
        ("scheme", "partial", "invalid choice: 'partial' (choose from 'full', 'quantized')"),
    ], ids=["int", "float", "choice"])
    def test_bad_file_value_names_its_line_and_key(self, tmp_path, capsys, key, value,
                                                   reason):
        text = f"# header\nslots=100\n{key}={value}\n"
        message = f"line 3: key {key!r}: {reason}"
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_text(text)
        assert str(err.value) == message
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestParser:
    """One flat parser: the command is its one positional argument, and
    every setting is one option, added once."""

    def test_one_positional_and_one_option_per_setting(self):
        actions = cli.build_parser()._actions
        positionals = [a for a in actions if not a.option_strings]
        assert [a.dest for a in positionals] == ["command"]
        assert list(positionals[0].choices) == ["analytic", "simulate", "fig4", "fig5"]
        options = [a.dest for a in actions if a.option_strings]
        settings = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(options) == sorted(settings + ["config", "help"])

    def test_every_command_prints_the_one_help(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        helps = []
        argvs = [["--help"], *([name, "--help"] for name in cli._COMMANDS), ["fig4", "-h"]]
        for argv in argvs:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 0
            helps.append(capsys.readouterr())
        assert helps[0].err == ""
        assert helps[1:] == [helps[0]] * 5
        lines = [line.split() for line in helps[0].out.splitlines()]
        for name, (_, description) in cli._COMMANDS.items():
            assert [name, *description.split()] in lines

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["fig4", "--bad"], ["simulate", "--scheme", "x"],
        ["analytic", "--seed", "x"], ["fig5", "--format"],
    ])
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: brqsim ")
        assert captured.err.splitlines()[-1].startswith("brqsim: error: ")

    def test_flags_may_come_before_the_command(self, tmp_path):
        flags = ["--seed", "7", "--snr-grid-db", "-5:0:5", "--include-warmup",
                 "--rate-factors=1,2"]
        parse = cli.build_parser().parse_args
        before_args = parse(cli._attach_negative_values([*flags, "fig4"]))
        after_args = parse(cli._attach_negative_values(["fig4", *flags]))
        assert before_args.command == after_args.command == "fig4"
        before, after = cli.load_config(before_args), cli.load_config(after_args)
        assert before == after
        assert (before.seed, before.snr_grid_db) == (7, "-5:0:5")
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        assert main([*flags, "fig4", "--output", str(first)]) == cli.EXIT_OK
        assert main(["fig4", *flags, "--output", str(last)]) == cli.EXIT_OK
        assert first.read_bytes() == last.read_bytes()

    def test_built_once_and_each_call_sees_only_its_flags(self, monkeypatch, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        load = cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda args: seen.append(load(args)) or seen[-1])
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["analytic", "--mean-snr-db=3", "--rate-factor", "2", "--include-warmup",
                     "--format", "json", "--output", str(first)]) == cli.EXIT_OK
        assert main(["analytic", "--rate", "1.5", "--output", str(second)]) == cli.EXIT_OK
        defaults = ExperimentConfig()
        assert seen == [
            dataclasses.replace(defaults, mean_snr_db=3.0, rate_factor=2.0,
                                include_warmup=True, out_format="json", output=str(first)),
            dataclasses.replace(defaults, rate=1.5, output=str(second)),
        ]


class TestRateFactor:
    """R = log2(1 + k * mean_snr) for every rate factor k >= 0."""

    @pytest.mark.parametrize("argv, factor", [
        (["analytic", "--rate-factor", "-2"], "-2.0"),
        (["analytic", "--rate-factor", "-0.5"], "-0.5"),
        (["simulate", "--rate-factor", "-2", "--slots", "10"], "-2.0"),
        (["fig4", "--snr-grid-db", "0", "--rate-factors", "-2"], "-2.0"),
        (["fig4", "--snr-grid-db", "0", "--rate-factors", "1,-0.5"], "-0.5"),
        (["fig5", "--mean-snr-db", "0", "--ratio-grid", "-2"], "-2.0"),
        (["fig5", "--mean-snr-db", "0", "--ratio-grid", "-0.5"], "-0.5"),
    ], ids=["analytic", "analytic-half", "simulate", "fig4", "fig4-half", "fig5",
            "fig5-half"])
    def test_negative_factor_is_named(self, tmp_path, capsys, argv, factor):
        # at 0 dB, -2 once failed inside log2 and -0.5 named the rate -1.0
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        message = f"rate factor must be nonnegative, got {factor}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_zero_factor_is_the_zero_rate(self, tmp_path, capsys):
        by_factor, by_rate = tmp_path / "factor.csv", tmp_path / "rate.csv"
        assert main(["analytic", "--rate-factor", "0", "--output", str(by_factor)]) == 0
        assert main(["analytic", "--rate", "0", "--output", str(by_rate)]) == 0
        assert by_factor.read_bytes() == by_rate.read_bytes()
        for flag in ("--rate-factor", "--rate"):
            assert main(["simulate", flag, "0", "--slots", "10",
                         "--output", str(tmp_path / "s.json")]) == cli.EXIT_USAGE
            message = "rate must be finite and positive, got 0.0"
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.json").exists()


class TestAnalyticCommand:
    def test_decode_probability_column(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(
            ["analytic", "--mean-snr-db", "10", "--rate-factor", "2",
             "--output", str(out)]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["p_R"]) == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert float(row["brq_full_rate"]) == pytest.approx(2.8385694538796984)

    def test_zero_rate_zeroes_scheme_rates(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(
            ["analytic", "--mean-snr-db", "10", "--rate", "0", "--output", str(out)]
        ) == 0
        row = read_csv(out)[0]
        assert float(row["brq_full_rate"]) == 0.0
        assert float(row["r_limited_rate"]) == 0.0
        assert float(row["delay_slots"]) == 0.0

    def test_quantized_column_bounded_by_full(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(
            ["analytic", "--mean-snr-db", "10", "--rate-factor", "2",
             "--feedback-bits", "1", "--output", str(out)]
        ) == 0
        row = read_csv(out)[0]
        assert float(row["brq_quant_rate_F1"]) <= float(row["brq_full_rate"])

    def test_json_format(self, tmp_path):
        out = tmp_path / "row.json"
        assert main(
            ["analytic", "--mean-snr-db", "10", "--rate-factor", "2",
             "--format", "json", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["p_R"] == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_rejects_conflicting_rate_flags(self):
        assert main(
            ["analytic", "--rate", "2", "--rate-factor", "2"]
        ) == cli.EXIT_USAGE


class TestSimulateCommand:
    def test_summary_and_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "simulate", "--mean-snr-db", "10", "--rate-factor", "2",
            "--slots", "5000", "--replications", "3", "--seed", "5",
        ]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["integrity"] == "pass"
        assert payload["replications"] == 3

    def test_ci_covers_analytic_cross_command(self, tmp_path):
        sim_out = tmp_path / "sim.json"
        ana_out = tmp_path / "ana.csv"
        assert main(
            ["simulate", "--mean-snr-db", "10", "--rate-factor", "2",
             "--slots", "20000", "--replications", "8", "--seed", "3",
             "--output", str(sim_out)]
        ) == 0
        assert main(
            ["analytic", "--mean-snr-db", "10", "--rate-factor", "2",
             "--output", str(ana_out)]
        ) == 0
        sim = json.loads(sim_out.read_text())
        analytic_rate = float(read_csv(ana_out)[0]["brq_full_rate"])
        assert abs(sim["rate_mean"] - analytic_rate) <= sim["rate_half_width"]

    def test_zero_slots_is_usage_error(self):
        assert main(
            ["simulate", "--rate-factor", "2", "--slots", "0"]
        ) == cli.EXIT_USAGE

    def test_quantized_needs_budget(self):
        assert main(
            ["simulate", "--rate-factor", "2", "--scheme", "quantized",
             "--slots", "256"]
        ) == cli.EXIT_USAGE

    def test_full_scheme_ignores_the_block_length(self, tmp_path):
        # full CSIT pools no feedback, so it never reads L
        argv = ["simulate", "--scheme", "full", "--rate-factor", "2", "--slots", "3000",
                "--replications", "2", "--seed", "4"]
        outputs = []
        for extra in ([], ["--block-length", "1"]):
            out, log = tmp_path / f"s{len(extra)}.json", tmp_path / f"s{len(extra)}.csv"
            assert main([*argv, *extra, "--output", str(out), "--csv-log", str(log)]) == 0
            outputs.append((out.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_quantized_scheme_needs_two_slot_blocks(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["simulate", "--scheme", "quantized", "--feedback-bits", "2",
                     "--block-length", "1", "--slots", "256", "--output", str(out)]
                    ) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: block_length must be >= 2, got 1\n"
        assert not out.exists()

    def test_slot_log_schema(self, tmp_path):
        log_path = tmp_path / "slots.csv"
        assert main(
            ["simulate", "--mean-snr-db", "10", "--rate-factor", "2",
             "--slots", "200", "--seed", "2", "--csv-log", str(log_path),
             "--output", str(tmp_path / "s.json")]
        ) == 0
        rows = read_csv(log_path)
        assert len(rows) == 200
        assert set(rows[0]) == {
            "replication", "slot", "instance", "snr", "eff_snr", "parity_bits",
            "new_bits", "decoded", "renewal", "chain_length", "reward_bits",
        }
        for row in rows:
            assert float(row["parity_bits"]) + float(row["new_bits"]) == pytest.approx(
                100 * math.log2(21.0), abs=1e-9
            )


class TestFigureCommands:
    def test_fig4_schema_and_normalization(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(
            ["fig4", "--snr-grid-db", "0:20:10", "--output", str(out)]
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        for needed in (
            "mean_snr_db", "wf_rate", "prior_fixed_rate", "norm_prior_fixed",
            "rate_R_k2", "p_R_k2", "brq_full_rate_k2", "norm_brq_full_k2",
            "brq_quant_rate_F1_k2", "norm_brq_quant_F1_k2",
            "rate_R_k3", "brq_full_rate_k3",
        ):
            assert needed in rows[0]
        for row in rows:
            assert float(row["norm_brq_full_k2"]) <= 1.0 + 1e-9
            assert float(row["brq_quant_rate_F1_k2"]) <= float(
                row["brq_full_rate_k2"]
            )
        norm3 = [float(r["norm_brq_full_k3"]) for r in rows]
        assert norm3 == sorted(norm3)

    def test_fig4_single_point_matches_analytic(self, tmp_path):
        fig = tmp_path / "one.csv"
        ana = tmp_path / "row.csv"
        assert main(
            ["fig4", "--snr-grid-db", "10:10:1", "--rate-factors", "2",
             "--output", str(fig)]
        ) == 0
        assert main(
            ["analytic", "--mean-snr-db", "10", "--rate-factor", "2",
             "--output", str(ana)]
        ) == 0
        fig_row = read_csv(fig)[0]
        ana_row = read_csv(ana)[0]
        assert float(fig_row["brq_full_rate_k2"]) == float(ana_row["brq_full_rate"])
        assert float(fig_row["wf_rate"]) == float(ana_row["wf_rate"])

    def test_fig5_schema_and_ordering(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(
            ["fig5", "--mean-snr-db", "10", "--ratio-grid", "0.5:3:0.5",
             "--output", str(out)]
        ) == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            f1 = float(row["brq_quant_rate_F1"])
            f2 = float(row["brq_quant_rate_F2"])
            f8 = float(row["brq_quant_rate_F8"])
            assert f1 <= f2 + 1e-9 <= f8 + 2e-9
            assert f8 <= float(row["brq_full_rate"]) + 1e-9

    @pytest.mark.parametrize("grid", ["-5:0:5", "-5,0"])
    def test_negative_grid_after_space(self, tmp_path, grid):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["fig4", "--snr-grid-db", grid, "--output", str(spaced)]) == 0
        assert main(["fig4", f"--snr-grid-db={grid}", "--output", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert [float(r["mean_snr_db"]) for r in read_csv(spaced)] == [-5.0, 0.0]

    def test_fig5_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig5", "--ratio-grid", "1:2:0.5"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_bad_grid_is_usage_error(self):
        assert main(["fig4", "--snr-grid-db", "0:30"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv, grid", [
        (["fig5", "--ratio-grid", "0:inf:1"], "0:inf:1"),
        (["fig4", "--snr-grid-db", "0:1:inf"], "0:1:inf"),
        (["fig4", "--snr-grid-db", "0:nan:1"], "0:nan:1"),
        (["fig5", "--ratio-grid=-inf:1:1"], "-inf:1:1"),
    ], ids=["fig5-stop", "fig4-step", "fig4-nan", "fig5-start"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys, argv, grid):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: grid start, stop and step must be finite, got {grid!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fig4", "--rate-factors", "2,3,2.0000001"],
         "rate factors 2.0 and 2.0000001 both name the column rate_R_k2"),
        (["fig4", "--feedback-grid", "1,1.0000001"],
         "feedback budgets 1.0 and 1.0000001 both name the column brq_quant_rate_F1"),
        (["fig5", "--feedback-grid", "0.5,2,2"],
         "feedback budgets 2.0 and 2.0 both name the column brq_quant_rate_F2"),
    ], ids=["fig4-rate-factors", "fig4-feedback-grid", "fig5-feedback-grid"])
    def test_colliding_columns_are_usage_errors(self, monkeypatch, tmp_path, capsys, argv,
                                                message):
        # the later value's cells would overwrite the earlier one's column
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--snr-grid-db", "10", "--ratio-grid", "1"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("db", ["nan", "inf"])
    def test_non_finite_mean_snr_is_usage_error(self, tmp_path, capsys, command, db):
        out = tmp_path / "out"
        code = main(
            [command, f"--mean-snr-db={db}", "--rate", "2", "--slots", "100",
             "--output", str(out)]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: mean SNR must be finite, got {db}\n"
        assert not out.exists()

    def test_budget_exceeded_is_usage_error(self, tmp_path, capsys):
        # the planner sizes the cells for the costliest block, so a planned
        # budget never overflows at run time (F=1.5, L=64 plans K=1) ...
        code = main(
            ["simulate", "--scheme", "quantized", "--feedback-bits", "1.5",
             "--rate-factor", "2", "--mean-snr-db", "10", "--slots", "12800",
             "--seed", "3", "--output", str(tmp_path / "s.json")]
        )
        assert code == cli.EXIT_OK
        assert json.loads((tmp_path / "s.json").read_text())["integrity"] == "pass"
        # ... and a budget too small for any quantizer fails at planning
        code = main(
            ["simulate", "--scheme", "quantized", "--feedback-bits", "1",
             "--block-length", "64", "--slots", "12800", "--output", str(tmp_path / "t.json")]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: even a single cell needs 68 bits for the worst block, budget is 64\n"
        )
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--block-length", "4", "--slots", "12"],
        ["--feedback-bits", "1", "--block-length", "64", "--slots", "12800"],
    ], ids=["horizon-not-a-multiple-of-2L", "insufficient-budget"])
    def test_usage_error_before_the_first_slot_leaves_no_slot_log(self, tmp_path, argv):
        log = tmp_path / "slots.csv"
        argv = ["simulate", "--scheme", "quantized", "--feedback-bits", "2", *argv,
                "--csv-log", str(log), "--output", str(tmp_path / "summary.json")]
        assert main(argv) == cli.EXIT_USAGE
        assert not log.exists()
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mean-snr-db", "4000", "--rate", "2", "--slots", "100"],
        ["analytic", "--mean-snr-db", "4000", "--rate", "2"],
        ["fig4", "--snr-grid-db", "4000"],
    ])
    def test_overflowing_mean_snr_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: mean SNR of 4000.0 dB overflows a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--rate", "1100", "--slots", "10"],
        ["analytic", "--rate", "1100"],
    ])
    def test_overflowing_rate_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: rate of 1100.0 bits per channel use overflows a float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--rate=nan", "--slots", "10"],
         "rate must be finite and positive, got nan"),
        (["simulate", "--rate=inf", "--slots", "10"],
         "rate must be finite and positive, got inf"),
        (["simulate", "--rate-factor=inf", "--slots", "10"],
         "rate must be finite and positive, got inf"),
        (["analytic", "--rate=nan"], "rate must be finite and nonnegative, got nan"),
        (["analytic", "--rate=inf"], "rate must be finite and nonnegative, got inf"),
        (["analytic", "--rate-factor=nan"], "rate must be finite and nonnegative, got nan"),
        (["fig4", "--snr-grid-db", "10", "--rate-factors", "nan"],
         "rate must be finite and nonnegative, got nan"),
        (["fig5", "--ratio-grid", "inf"], "rate must be finite and nonnegative, got inf"),
    ], ids=["simulate-rate-nan", "simulate-rate-inf", "simulate-factor-inf", "analytic-nan",
            "analytic-inf", "analytic-factor-nan", "fig4", "fig5"])
    def test_non_finite_rate_is_usage_error(self, tmp_path, capsys, argv, message):
        # pytest turns warnings into errors, so a RuntimeWarning on the way
        # (inf - inf in the session kernel) would fail here too
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        argv = ["simulate", "--slots", "16", "--output", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("seed=-1\n")
            argv += ["--config", str(config)]
        assert main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, got", [
        (["simulate", "--scheme", "quantized", "--feedback-bits=nan", "--slots", "128"], "nan"),
        (["simulate", "--scheme", "quantized", "--feedback-bits=inf", "--slots", "128"], "inf"),
        (["analytic", "--feedback-bits=nan"], "nan"),
        (["fig4", "--snr-grid-db", "10", "--feedback-grid=nan"], "nan"),
        (["fig5", "--ratio-grid", "1", "--feedback-grid=1,nan"], "nan"),
        (["simulate", "--scheme", "quantized", "--feedback-bits", "-1", "--slots", "128"],
         "-1.0"),
        (["analytic", "--feedback-bits", "-1"], "-1.0"),
        (["analytic", "--feedback-bits=-inf"], "-inf"),
        (["fig4", "--snr-grid-db", "10", "--feedback-grid=-1"], "-1.0"),
        (["fig5", "--ratio-grid", "1", "--feedback-grid=1,-1"], "-1.0"),
    ], ids=["simulate-nan", "simulate-inf", "analytic", "fig4", "fig5", "simulate-negative",
            "analytic-negative", "analytic-minus-inf", "fig4-negative", "fig5-negative"])
    def test_non_finite_feedback_budget_is_usage_error(self, tmp_path, capsys, argv, got):
        # one message for every command; only analytics takes F = inf
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: feedback_bits must be finite and nonnegative, got {got}\n"
        )
        assert not out.exists()

    def test_infinite_budget_gives_the_full_csit_rate(self, tmp_path):
        out = tmp_path / "row.json"
        assert main(["analytic", "--feedback-bits=inf", "--format", "json",
                     "--output", str(out)]) == cli.EXIT_OK
        row = json.loads(out.read_text())
        assert row["brq_quant_rate_Finf"] == row["brq_full_rate"]

    @pytest.mark.parametrize("fbits", ["70", "2000"])
    def test_huge_budget_plans_at_most_2_52_cells(self, tmp_path, capsys, fbits):
        # pytest turns warnings into errors, so an int64 cast that wraps
        # would fail here rather than print a RuntimeWarning
        out = tmp_path / "s.json"
        code = main(["simulate", "--scheme", "quantized", "--feedback-bits", fbits,
                     "--block-length", "2", "--slots", "4000", "--output", str(out)])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["integrity"] == "pass"

    # Every BrqError subclass with its documented exit code and stderr prefix.
    EXIT_OF = {
        TraceExhaustedError: (cli.EXIT_USAGE, "error: "),
        InfiniteDelayError: (cli.EXIT_USAGE, "error: "),
        InsufficientFeedbackError: (cli.EXIT_USAGE, "error: "),
        BudgetExceededError: (cli.EXIT_USAGE, "error: "),
        NumericError: (cli.EXIT_NUMERIC, "numeric failure: "),
        ChainBrokenError: (cli.EXIT_INTEGRITY, "error: "),
        FeedbackDecodeError: (cli.EXIT_INTEGRITY, "error: "),
    }

    def test_every_error_has_a_documented_exit_code(self):
        def subclasses(cls):
            return set(cls.__subclasses__()).union(*map(subclasses, cls.__subclasses__()))

        assert subclasses(BrqError) == set(self.EXIT_OF)

    @pytest.mark.parametrize("error", list(EXIT_OF))
    def test_protocol_faults_are_integrity_failures(self, monkeypatch, capsys, error):
        """A BrqError raised inside a command exits with its documented code."""

        def fail(*args, **kwargs):
            raise error("injected")

        code, prefix = self.EXIT_OF[error]
        monkeypatch.setattr(engine, "run_replicated", fail)
        assert main(["simulate", "--slots", "100"]) == code
        assert capsys.readouterr().err == f"{prefix}injected\n"


    def test_a_failed_integrity_verdict_exits_4(self, monkeypatch, capsys, tmp_path):
        """A session log that fails integrity is written to the summary as
        "fail", and the run exits 4 with nothing on stderr."""
        session = engine.run_full_csit

        def failing(*args, **kwargs):
            log = session(*args, **kwargs)
            log.integrity_ok = False
            return log

        monkeypatch.setattr(engine, "run_full_csit", failing)
        out = tmp_path / "s.json"
        code = main(["simulate", "--accounting", "integer", "--rate", "4", "--slots", "500",
                     "--output", str(out)])
        assert code == cli.EXIT_INTEGRITY
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["integrity"] == "fail"


# Every float64, drawn by its bit pattern: NaN payloads, signed zeros,
# subnormals and infinities included.
_ANY_FLOAT = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item())


class TestSlotLogColumns:
    """`_float_cells`, the float rule of every CSV, agrees with the reference
    cell by cell; table cells of other types are their str."""

    def test_floats(self):
        nan = np.array([math.nan])
        other_nan = (nan.view(np.int64) ^ 1).view(np.float64)  # another payload
        col = np.concatenate([
            [-0.0, 0.0, 5e-324, 1e16, 1e-05, math.inf, 2.0, 439.0], nan, other_nan,
            [0.1 + 0.2, 0.3, -0.0, 1e16, 0.0, -math.inf, math.inf, -math.inf],
        ])
        want = [csv_reference.fmt(x) for x in col.tolist()]
        assert want[:10] == ["-0.0", "0.0", "5e-324", "1e+16", "1e-05", "inf", "2.0",
                             "439.0", "", ""]
        assert want[-8:] == ["0.30000000000000004", "0.3", "-0.0", "1e+16", "0.0", "-inf",
                             "inf", "-inf"]
        assert cli._float_cells(col) == want
        assert cli._float_cells(col[::3]) == want[::3]

    @given(st.lists(_ANY_FLOAT, max_size=20))
    def test_any_bit_pattern(self, values):
        cells = cli._float_cells(np.array(values))
        assert cells == [csv_reference.fmt(x) for x in values]

    def test_ints_and_bools(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_table(str(path), [{"n": n, "flag": flag} for n, flag in
                                     zip([0, 7, -3, 2**62], [True, False, True, False])])
        assert path.read_text() == "n,flag\n0,1\n7,0\n-3,1\n4611686018427387904,0\n"


# Floats that repeat, with NaN payloads, signed zeros and infinities.
_CELL_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, 439.0, 2.0**-1074, math.inf, -math.inf, math.nan,
                     -math.nan]),
    st.floats(allow_nan=True),
)


@st.composite
def slot_log_chunks(draw):
    """One session's `SlotRows`, chunk by chunk: each chunk starts at a
    multiple of P, and its reports repeat the SNR P rows up, or not."""
    p = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    floats = st.lists(_CELL_FLOAT, min_size=n, max_size=n)
    snr, eff, parity = (np.array(draw(floats)) for _ in range(3))
    fed, decoded = (np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                    for _ in range(2))
    echo = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    echo[:p] = False
    eff[echo] = snr[np.flatnonzero(echo) - p]
    new_bits = 439.0 - parity
    if draw(st.booleans()):
        new_bits = np.array(draw(floats))  # not fixed by the parity
    k = int(decoded.sum())
    lengths = np.array(draw(st.lists(st.integers(1, 2**62), min_size=k, max_size=k)),
                       dtype=np.int64)
    rewards = np.array(draw(st.lists(_CELL_FLOAT, min_size=k, max_size=k)))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    chunks, a = [], 0
    for size in [*sizes, n]:
        b = min(a + size * p, n)
        r, s = int(decoded[:a].sum()), int(decoded[:b].sum())
        chunks.append(SlotRows(a, p, snr[a:b], fed[a:b], eff[a:b], parity[a:b],
                               new_bits[a:b], decoded[a:b], lengths[r:s], rewards[r:s]))
        if b == n:
            return chunks
        a = b


class TestSlotLogWriter:
    """`_SlotLog` on hand-made chunks: the bytes of the reference's cells,
    whatever the block size and however often its pools start over."""

    @staticmethod
    def reference_rows(rep, chunks):
        rows = []
        for c in chunks:
            lengths, rewards = iter(c.chain_length.tolist()), iter(c.reward_bits.tolist())
            for i, t in enumerate(range(c.start, c.start + len(c.decoded))):
                renewal = bool(c.decoded[i])
                rows.append([
                    rep, t, t % c.processes, float(c.snr[i]),
                    float(c.eff_snr[i]) if c.fed[i] else None, float(c.parity_bits[i]),
                    float(c.new_bits[i]), renewal, renewal,
                    next(lengths) if renewal else 0, next(rewards) if renewal else 0.0,
                ])
        return rows

    @settings(deadline=None, max_examples=150)
    @given(st.lists(slot_log_chunks(), min_size=1, max_size=3),
           st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=8))
    def test_hand_made_chunks(self, tmp_path_factory, sessions, block, limit):
        tmp = tmp_path_factory.mktemp("log")
        got, want = tmp / "got.csv", tmp / "want.csv"
        with mock.patch.object(cli, "_SLOT_LOG_CHUNK", block), \
                mock.patch.object(cli, "_POOL_LIMIT", limit), cli._SlotLog(str(got)) as log:
            for rep, chunks in enumerate(sessions):
                for rows in chunks:
                    log(rep, rows)
        rows = [row for rep, chunks in enumerate(sessions)
                for row in self.reference_rows(rep, chunks)]
        csv_reference.write_csv(str(want), cli._SLOT_LOG_HEADER, rows)
        assert got.read_bytes() == want.read_bytes()

    def test_no_chunk_opens_no_file(self, tmp_path):
        with cli._SlotLog(str(tmp_path / "slots.csv")):
            pass
        assert not (tmp_path / "slots.csv").exists()


_OTHER_NAN = float((np.array([math.nan]).view(np.int64) ^ 1).view(np.float64)[0])
_HAND_ROWS = [
    {"a": math.nan, "b": -0.0, "c": -math.inf, "d": "x", "n": 3, "flag": True},
    {"a": 0.1 + 0.2, "b": 0.0, "c": math.inf, "d": "", "n": -2, "flag": False},
    {"a": _OTHER_NAN, "b": -0.0, "c": 5e-324, "d": "x", "n": 0, "flag": True},
]

# Text that csv.writer does not quote.
_PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters=',"\r\n'), max_size=8)


@st.composite
def tables(draw):
    """Dict rows with two to six columns, each of floats or of plain text.
    (csv.writer quotes the lone empty cell of a one-column row, and every
    table has more columns.)"""
    kinds = draw(st.lists(st.sampled_from([_ANY_FLOAT, _PLAIN_TEXT]), min_size=2,
                          max_size=6))
    n = draw(st.integers(min_value=1, max_value=5))
    return [{f"c{j}": draw(kind) for j, kind in enumerate(kinds)} for _ in range(n)]


class TestTableBytes:
    """Tables have the bytes that csv.writer and the reference's cells
    give, row by row."""

    @staticmethod
    def assert_same_bytes(tmp_path, rows):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_table(str(got), rows)
        csv_reference.write_table(str(want), rows)
        assert got.read_bytes() == want.read_bytes()

    def test_fig4_rows(self, tmp_path):
        rows = engine.sweep_mean_snr(cli._parse_grid("-5:30:0.5"), [1.0, 2.0, 3.0],
                                     [0.5, 1.0, 2.0])
        assert any(math.isnan(v) for row in rows for v in row.values())
        self.assert_same_bytes(tmp_path, rows)

    @pytest.mark.parametrize("db", [2.5, 12.5, 22.5])
    def test_fig5_rows(self, tmp_path, db):
        rows = engine.sweep_threshold_ratio(db_to_linear(db), cli._parse_grid("0.05:8:0.05"),
                                            [0.5, 1.0, 2.0, 8.0])
        self.assert_same_bytes(tmp_path, rows)

    def test_analytic_rows(self, monkeypatch, tmp_path):
        rows = []
        monkeypatch.setattr(cli, "_write_table", lambda path, table: rows.extend(table))
        for point in (["--mean-snr-db", "10", "--rate-factor", "2"],  # H(p_R) > 0.5
                      ["--mean-snr-db", "0", "--rate-factor", "1000"],  # p_R = 0
                      ["--mean-snr-db=-2", "--rate-factor", "0.5"],
                      ["--rate", "0"]):
            assert main(["analytic", *point, "--feedback-bits", "0.5"]) == cli.EXIT_OK
        assert {row["note"] for row in rows} == {"insufficient_feedback", ""}
        assert rows[1]["delay_slots"] == math.inf
        monkeypatch.undo()
        for row in rows:
            self.assert_same_bytes(tmp_path, [row])
        self.assert_same_bytes(tmp_path, rows)

    @settings(deadline=None)
    @example(rows=_HAND_ROWS)
    @example(rows=_HAND_ROWS[2:])
    @given(rows=tables())
    def test_hand_rows(self, tmp_path_factory, rows):
        self.assert_same_bytes(tmp_path_factory.mktemp("table"), rows)


class TestSlotLogMemory:
    @staticmethod
    def peak(path, horizon):
        """The tracemalloc peak, in bytes, of writing one full-CSIT
        session's slot log of `horizon` rows from its kernel chunks."""
        link = LinkConfig(rate=4.0, slot_uses=100, accounting="integer")
        chunks = []
        engine.run_replicated(engine.RunConfig(seed=1, replications=1, horizon=horizon),
                              link, Rayleigh(10.0), slot_sink=lambda *args: chunks.append(args))
        tracemalloc.start()
        try:
            with cli._SlotLog(str(path)) as slot_log:
                for rep, rows in chunks:
                    slot_log(rep, rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_peak_does_not_grow_with_rows(self, tmp_path):
        small = self.peak(tmp_path / "small.csv", 4096)
        large = self.peak(tmp_path / "large.csv", 65_536)
        assert large < 1.5 * small, (small, large)

    @staticmethod
    def peak_rss_kb(tmp_path, slots, csv_log):
        """The peak RSS, in kB, of a fresh interpreter that runs one integer
        full-CSIT `simulate` of `slots` slots, with a slot log or without."""
        argv = ["simulate", "--accounting", "integer", "--rate", "4", "--slots", str(slots),
                "--output", str(tmp_path / "summary.json")]
        if csv_log:
            argv += ["--csv-log", str(tmp_path / "slots.csv")]
        code = ("import resource, sys\n"
                "from brqsim import cli\n"
                "assert cli.main(sys.argv[1:]) == cli.EXIT_OK\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return int(done.stdout)

    def test_simulate_log_peak_does_not_grow_with_slots(self, tmp_path):
        # kernel and writer alike: whole-horizon slot columns, about 60 B/slot,
        # would add about 26 MB from 2^16 to 2^19 slots
        small, large = (
            self.peak_rss_kb(tmp_path, slots, True) - self.peak_rss_kb(tmp_path, slots, False)
            for slots in (2**16, 2**19)
        )
        assert large < small + 4096, (small, large)


class TestOutputDigest:
    """`output_digest.py` hashes the outputs of a command matrix; the same
    commands give the same lines on every run."""

    def test_two_commands_digest_alike_twice(self):
        commands = [
            (["simulate", "--scheme", "quantized", "--accounting", "integer",
              "--include-warmup", "--feedback-bits", "4", "--block-length", "16",
              "--rate", "3.5", "--slots", "256", "--seed", "1", "--csv-log", "q.csv",
              "--output", "q.json"], ["q.json", "q.csv"]),
            (["analytic", "--mean-snr-db=7", "--format", "json", "--output", "a.json"],
             ["a.json"]),
        ]
        first = output_digest.digest(commands)
        assert [line.split("  ")[1] for line in first] == ["q.json", "q.csv", "a.json"]
        assert output_digest.digest(commands) == first

    def test_matrix_names_every_output_once(self):
        names = [name for _, outputs in output_digest.matrix() for name in outputs]
        assert len(names) == len(set(names)) == 66

    def test_matrix_writes_the_pinned_bytes(self):
        # a change that means to alter an output updates output_digest.txt
        # and says why; a drift fails with the names of the changed outputs
        path = pathlib.Path(output_digest.__file__).with_suffix(".txt")
        pinned = [line.split("  ") for line in path.read_text().splitlines()]
        written = [line.split("  ") for line in output_digest.digest(output_digest.matrix())]
        assert [name for _, name in written] == [name for _, name in pinned]
        changed = [name for (old, name), (new, _) in zip(pinned, written) if old != new]
        assert changed == [], f"outputs whose digest changed: {changed}"
