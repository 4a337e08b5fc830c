"""Digests of the CLI's JSON and CSV outputs over a fixed matrix of commands.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/output_digest.py

Every command runs through `brqsim.cli.main` into a temporary directory,
and one `sha256  name` line is printed per output file, in command order.
Two checkouts that print the same lines write byte-identical outputs for
these commands.  The matrix holds:

- the `full-fluid`, `quantized-fluid` and `integer-slotlog` simulate
  commands of the benchmark at seeds 1-5 (command i of seed s runs at
  `--seed 100 s + i`);
- one `analytic` JSON command; three `analytic --format csv
  --feedback-bits 0.5` commands (10 dB at k = 2, 0 dB at k = 1000 and
  -2 dB at k = 0.5), whose rows hold a `note`, a NaN cell and an
  infinite delay; one `fig4` and one `fig5` command;
- a quantized `--accounting integer --include-warmup --csv-log` run at
  seeds 0-2;
- a full-CSIT and a quantized (F = 2, L = 64) fluid `--csv-log` run,
  whose slot logs hold each chain's renewal slot and length.

pytest does not collect this file; `test_cli.py` runs a small matrix of it
and checks that the full matrix prints the lines of `output_digest.txt`.
A change that means to alter an output rewrites that file with

    PYTHONPATH=src python tests/output_digest.py > tests/output_digest.txt

and says why.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from brqsim import cli


def _simulate(name, seed, *flags, csv_log=False):
    """A simulate command writing `<name>.json`, and `<name>.csv` as its
    slot log if `csv_log`."""
    argv = ["simulate", *flags, "--seed", str(seed), "--output", f"{name}.json"]
    if not csv_log:
        return argv, [f"{name}.json"]
    return argv + ["--csv-log", f"{name}.csv"], [f"{name}.json", f"{name}.csv"]


def matrix() -> list[tuple[list[str], list[str]]]:
    """The commands as (argv, output files), with paths relative to the
    directory the commands run in."""
    commands = []
    for seed in range(1, 6):
        for i, (db, k) in enumerate([(5, 1), (10, 2), (15, 3)]):
            commands.append(_simulate(
                f"full-{seed}-{i}", 100 * seed + i, "--scheme", "full", "--accounting",
                "fluid", "--mean-snr-db", str(db), "--rate-factor", str(k), "--slots",
                "40000", "--replications", "2",
            ))
        for i, (db, k, fbits, length) in enumerate([(10, 2, 2, 64), (20, 1, 4, 16),
                                                    (5, 3, 2, 64)]):
            commands.append(_simulate(
                f"quant-{seed}-{i}", 100 * seed + i, "--scheme", "quantized",
                "--accounting", "fluid", "--feedback-bits", str(fbits), "--block-length",
                str(length), "--mean-snr-db", str(db), "--rate-factor", str(k), "--slots",
                "38400", "--replications", "1",
            ))
        commands.append(_simulate(
            f"int-full-{seed}", 100 * seed, "--accounting", "integer", "--scheme", "full",
            "--rate", "4", "--mean-snr-db", "10", "--slots", "8000", "--replications", "2",
            csv_log=True,
        ))
        commands.append(_simulate(
            f"int-quant-{seed}", 100 * seed + 1, "--accounting", "integer", "--scheme",
            "quantized", "--rate", "3.5", "--mean-snr-db", "10", "--slots", "19200",
            "--replications", "1", "--feedback-bits", "2", "--block-length", "64",
            csv_log=True,
        ))
    commands += [
        (["analytic", "--mean-snr-db=7", "--rate-factor", "1", "--feedback-bits", "1",
          "--format", "json", "--output", "analytic.json"], ["analytic.json"]),
        *((["analytic", *point, "--feedback-bits", "0.5", "--format", "csv", "--output",
            f"analytic-{i}.csv"], [f"analytic-{i}.csv"])
          for i, point in enumerate([["--mean-snr-db", "10", "--rate-factor", "2"],
                                     ["--mean-snr-db", "0", "--rate-factor", "1000"],
                                     ["--mean-snr-db=-2", "--rate-factor", "0.5"]])),
        (["fig4", "--snr-grid-db=-5:30:0.5", "--rate-factors", "1,2,3", "--feedback-grid",
          "0.5,1,2", "--output", "fig4.csv"], ["fig4.csv"]),
        (["fig5", "--mean-snr-db=12.5", "--ratio-grid=0.05:8:0.05", "--feedback-grid",
          "0.5,1,2,8", "--output", "fig5.csv"], ["fig5.csv"]),
    ]
    for seed in range(3):
        commands.append(_simulate(
            f"int-quant-warmup-{seed}", seed, "--scheme", "quantized", "--accounting",
            "integer", "--include-warmup", "--feedback-bits", "4", "--block-length", "16",
            "--rate", "3.5", "--mean-snr-db", "10", "--slots", "4096", "--replications", "2",
            csv_log=True,
        ))
    commands.append(_simulate(
        "fluid-full-log", 7, "--scheme", "full", "--accounting", "fluid", "--mean-snr-db",
        "10", "--rate-factor", "2", "--slots", "8000", "--replications", "2", csv_log=True,
    ))
    commands.append(_simulate(
        "fluid-quant-log", 8, "--scheme", "quantized", "--accounting", "fluid",
        "--feedback-bits", "2", "--block-length", "64", "--mean-snr-db", "10",
        "--rate-factor", "2", "--slots", "12800", "--replications", "1", csv_log=True,
    ))
    return commands


def digest(commands) -> list[str]:
    """Run `commands` in a fresh temporary directory and return one
    `sha256  name` line per output file.  A command that exits non-zero
    raises RuntimeError."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for argv, outputs in commands:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"brqsim {' '.join(argv)} exited {code}")
                for name in outputs:
                    with open(name, "rb") as f:
                        lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
        finally:
            os.chdir(here)
    return lines


if __name__ == "__main__":
    print("\n".join(digest(matrix())))
