"""The benchmark's four workloads: fixed lists of `brqsim` commands.

Each command is the argument list a user would type after `brqsim`,
paired with the check that its output must pass.  The workload seed
reaches the simulate workloads: command i gets `--seed <100 * seed + i>`.
The `figures` workload is deterministic quadrature and its commands are
the same at every seed: `analytics` misses its tolerance at a few isolated
mean SNRs, so a seeded grid would make the workload fail on some seeds and
not on others.  Instead it carries one such point as a fixed command that
fails every time (`known_fault`), counted as failed but not as incorrect.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

@dataclass(frozen=True)
class Command:
    argv: list[str]
    outputs: list[str]
    check: Callable[[], None]
    # Why this command fails every time at today's code, or "" if it must pass.
    known_fault: str = ""


def _seed(seed: int, i: int) -> str:
    return str(100 * seed + i)


def full_fluid(seed: int, out: str) -> list[Command]:
    # k = 1, 2, 3 gives p_R = e^-k: mean chains of 2.7, 7.4 and 20 slots.
    points = [(5.0, 1.0), (10.0, 2.0), (15.0, 3.0)]
    slots, reps = 40_000, 2
    cmds = []
    for i, (db, k) in enumerate(points):
        path = os.path.join(out, f"full-{i}.json")
        argv = ["simulate", "--scheme", "full", "--accounting", "fluid", "--mean-snr-db", str(db),
                "--rate-factor", str(k), "--slots", str(slots), "--replications", str(reps),
                "--seed", _seed(seed, i), "--output", path]
        cmds.append(Command(argv, [path], partial(checks.check_full_fluid, path, db, k, slots,
                                                   reps)))
    return cmds


def quantized_fluid(seed: int, out: str) -> list[Command]:
    # Budgets the cell planner meets for every block: F=2, L=64 (K=2 cells)
    # and F=4, L=16 (K=8 cells).
    points = [(10.0, 2.0, 2.0, 64), (20.0, 1.0, 4.0, 16), (5.0, 3.0, 2.0, 64)]
    slots, reps = 38_400, 1
    cmds = []
    for i, (db, k, fbits, length) in enumerate(points):
        path = os.path.join(out, f"quant-{i}.json")
        argv = ["simulate", "--scheme", "quantized", "--accounting", "fluid",
                "--feedback-bits", str(fbits), "--block-length", str(length),
                "--mean-snr-db", str(db), "--rate-factor", str(k), "--slots", str(slots),
                "--replications", str(reps), "--seed", _seed(seed, i), "--output", path]
        cmds.append(Command(argv, [path], partial(checks.check_quantized_fluid, path, db, k,
                                                   fbits, length, slots, reps)))
    return cmds


_FLAGS = {"scheme": "--scheme", "rate": "--rate", "mean_snr_db": "--mean-snr-db",
          "slots": "--slots", "replications": "--replications", "fbits": "--feedback-bits",
          "block_length": "--block-length"}


def integer_slotlog(seed: int, out: str) -> list[Command]:
    # R * N is whole (N = 100 channel uses), as integer accounting needs.
    runs = [
        ("int-full", dict(scheme="full", rate=4.0, mean_snr_db=10.0, slots=8_000,
                          replications=2)),
        ("int-quant", dict(scheme="quantized", rate=3.5, mean_snr_db=10.0, slots=19_200,
                           replications=1, fbits=2.0, block_length=64)),
    ]
    cmds = []
    for i, (name, params) in enumerate(runs):
        log, summary = os.path.join(out, f"{name}.csv"), os.path.join(out, f"{name}.json")
        argv = ["simulate", "--accounting", "integer"]
        for key, value in params.items():
            argv += [_FLAGS[key], f"{value:g}" if isinstance(value, float) else str(value)]
        argv += ["--seed", _seed(seed, i), "--csv-log", log, "--output", summary]
        cmds.append(Command(argv, [summary, log],
                            partial(checks.check_slot_log, log, summary, **params)))
    return cmds


def figures(seed: int, out: str) -> list[Command]:
    del seed  # the same commands at every seed; see the module docstring
    cmds = []
    # fig4: a 0.5 dB grid from -5 dB to 30 dB.  A start below 0 dB must be
    # passed with '=' (argparse would read it as an option).
    factors, budgets = [1.0, 2.0, 3.0], [0.5, 1.0, 2.0]
    path = os.path.join(out, "fig4.csv")
    cmds.append(Command(
        ["fig4", "--snr-grid-db=-5:30:0.5", "--rate-factors", "1,2,3",
         "--feedback-grid", "0.5,1,2", "--output", path],
        [path], partial(checks.check_fig4, path, checks.grid(-5.0, 30.0, 0.5), factors, budgets)))
    # fig5: three mean SNRs, a 0.05 ratio grid up to 8.
    budgets5 = [0.5, 1.0, 2.0, 8.0]
    for i, db in enumerate((2.5, 12.5, 22.5)):
        path = os.path.join(out, f"fig5-{i}.csv")
        cmds.append(Command(
            ["fig5", f"--mean-snr-db={db}", "--ratio-grid=0.05:8:0.05",
             "--feedback-grid", "0.5,1,2,8", "--output", path],
            [path], partial(checks.check_fig5, path, db, checks.grid(0.05, 8.0, 0.05), budgets5)))
    points = [(-2.0, 0.5, 0.5), (7.0, 1.0, 1.0), (17.0, 2.0, 2.0), (27.0, 3.0, 4.0)]
    for i, (db, k, fbits) in enumerate(points):
        path = os.path.join(out, f"analytic-{i}.json")
        cmds.append(Command(
            ["analytic", f"--mean-snr-db={db}", "--rate-factor", str(k), "--feedback-bits",
             str(fbits), "--format", "json", "--output", path],
            [path], partial(checks.check_analytic, path, db, k, fbits)))
    # At 26.6337 dB scipy's quad on [0, inf) reports convergence but
    # prior_fixed_rate is 4.5e-6 (relative) below e^{1/m} E1(1/m) / ln 2.
    path = os.path.join(out, "analytic-fault.json")
    cmds.append(Command(
        ["analytic", "--mean-snr-db=26.6337", "--rate-factor", "1", "--feedback-bits", "1",
         "--format", "json", "--output", path],
        [path], partial(checks.check_analytic, path, 26.6337, 1.0, 1.0),
        known_fault="avg_rate_prior_fixed_power misses its 1e-9 tolerance at 26.6337 dB"))
    return cmds


_COMMAND_LISTS = {
    "full-fluid": full_fluid,
    "quantized-fluid": quantized_fluid,
    "integer-slotlog": integer_slotlog,
    "figures": figures,
}
WORKLOADS = tuple(_COMMAND_LISTS)


def build(workload: str, seed: int, out: str) -> list[Command]:
    """The workload's commands for `seed`, writing into directory `out`."""
    os.makedirs(out, exist_ok=True)
    return _COMMAND_LISTS[workload](seed, out)
