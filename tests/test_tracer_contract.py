"""The benchmark's tracer (`bench/tracing.py`) against the package it traces.

The tracer wraps package functions under names it lists in `TARGETS` and
reads session logs in its count hooks, so renaming or removing any of
them breaks traced benchmark runs.  The tracer module is loaded from its
file here and used as it is.
"""

import importlib.util
import json
import pathlib

import pytest

from brqsim import analytics, cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    return [pair for pairs in tracing.TARGETS.values() for pair in pairs]


def test_every_target_exists(tracing):
    missing = [(owner.__name__, attr) for owner, attr in targets(tracing)
               if attr not in vars(owner)]
    assert missing == []


def test_traced_commands_count_and_uninstall_restores(tracing, tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in targets(tracing)]
    originals.append((analytics, "integrate", vars(analytics)["integrate"]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        commands = [
            ["simulate", "--rate-factor", "2", "--slots", "2000"],
            ["simulate", "--scheme", "quantized", "--feedback-bits", "2", "--slots", "2048"],
            ["simulate", "--accounting", "integer", "--rate", "4", "--slots", "2000",
             "--csv-log", str(tmp_path / "slots.csv")],
            ["fig5", "--ratio-grid", "0.5,1,2", "--feedback-grid", "1"],
        ]
        for i, argv in enumerate(commands):
            assert cli.main([*argv, "--output", str(tmp_path / f"out-{i}")]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    counts = tracer.counts
    json.dumps(counts)  # the benchmark writes the counts as JSON
    for name in ("protocol.renewals", "protocol.chain_slots", "protocol.max_chain_length"):
        assert type(counts[name]) is int, name
    assert counts["protocol.slots"] == 2000 + 2048 + 2000
    assert counts["protocol.renewals"] > 0
    assert counts["engine.sweep_points"] == 3
    totals = tracer.layer_totals()
    assert totals["protocol.session"][2] == 3
    assert totals["engine.replicate"][2] == 3
    assert totals["cli.main"][2] == len(commands)
    changed = [(getattr(owner, "__name__", owner), attr) for owner, attr, original in originals
               if vars(owner)[attr] is not original]
    assert changed == []
