"""Benchmark of the `brqsim` command line, checked against independent oracles.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`.  One run builds the workload's command list from the seed and
calls `brqsim.cli.main` on it in whole rounds: one warm-up round, then
timed rounds until `--seconds` have passed.  Every round's outputs are
checked after the round.  Each command is one operation; it fails when
it exits non-zero or its check fails.  `correct` is false when any
operation fails other than one marked with a known fault of the program.

With `--trace 0` the run reports the end-to-end metrics: per-round
medians of wall and CPU time, the process's peak resident set and the
median set-up time of fresh interpreters.  Times are rescaled to a
reference host speed measured beside every command (see `scaled`).
With `--trace 1` it alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--workload all` runs every
workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One single-threaded process: keep BLAS and OpenMP pools from spinning on
# the second core between the oracle's linear algebra and the next command.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 5
SETUP_CODE = "import brqsim.cli as cli; cli.build_parser()"

# Neighbours on this shared 2-core host change interpreter throughput by up
# to 2x within a minute.  Every timed step is bracketed by a fixed spin
# loop and its times are rescaled to the speed at which the spin takes
# SPIN_REFERENCE_S, its duration on the unloaded host (about its fastest
# measured time there).
SPIN_ITERATIONS = 60_000
SPIN_REFERENCE_S = 0.011


def import_program():
    """Import brqsim.cli from this checkout's src/, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "brqsim", "cli.py")):
        sys.exit(f"error: no brqsim sources under {SRC}")
    sys.path.insert(0, SRC)
    from brqsim import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: brqsim was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median time from starting an interpreter until brqsim.cli is ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)

    def fresh_import():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        return [time.perf_counter() - t0]

    return statistics.median(scaled(fresh_import)[0][0] for _ in range(SETUP_RUNS))


def spin() -> float:
    """Seconds taken by a fixed interpreter-bound loop: the host's current speed."""
    t0 = time.perf_counter()
    acc, table, window = 0.0, {}, []
    for i in range(SPIN_ITERATIONS):
        x = i * 0.5
        acc += x if x < 100.0 else -x
        table[i & 255] = table.get(i & 255, 0.0) + x
        window.append(x)
        if len(window) > 64:
            window.clear()
    return time.perf_counter() - t0


def scaled(timed, *args):
    """Run timed(*args) -> (seconds, ...) between two spins; rescale its times.

    Returns the times multiplied by SPIN_REFERENCE_S over the mean of the
    spins before and after, i.e. the times at the reference host speed,
    plus that slowdown factor.
    """
    before = spin()
    times = timed(*args)
    slowdown = (before + spin()) / (2.0 * SPIN_REFERENCE_S)
    return [t / slowdown for t in times], slowdown


class Round:
    """One pass over a workload's commands, timed, then checked.

    `wall` and `cpu` sum each command's times at the reference host speed
    (see `scaled`).
    """

    def __init__(self, cli, commands):
        self.wall = self.cpu = 0.0
        self.slowdowns = []
        codes = []
        for cmd in commands:
            (wall, cpu), slowdown = scaled(self._timed_call, cli, cmd.argv, codes)
            self.wall += wall
            self.cpu += cpu
            self.slowdowns.append(slowdown)
        self.failures, self.unexpected = [], []
        for cmd, code in zip(commands, codes):
            failure = None
            if code != 0:
                failure = f"exit {code}: brqsim {' '.join(cmd.argv)}"
            else:
                try:
                    cmd.check()
                except Exception as exc:  # any check error fails the operation, not the run
                    failure = f"{type(exc).__name__}: {exc}: brqsim {' '.join(cmd.argv)}"
            if failure is not None:
                self.failures.append(failure)
                if not cmd.known_fault:
                    self.unexpected.append(failure)
        self.output_bytes = sum(os.path.getsize(p) for cmd in commands for p in cmd.outputs
                                if os.path.exists(p))

    @staticmethod
    def _timed_call(cli, argv, codes):
        t0, c0 = time.perf_counter(), time.process_time()
        codes.append(_call(cli, argv))
        return time.perf_counter() - t0, time.process_time() - c0


def _call(cli, argv: list[str]) -> int:
    """Exit status of `brqsim <argv>`, as the console script would give it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error ends the console script with status 1
        traceback.print_exc()
        return 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, commands, seconds: float) -> tuple[list[Round], dict]:
    setup = measure_setup()
    warmup = Round(cli, commands)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(Round(cli, commands))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": _metric(statistics.median(r.wall for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(r.cpu for r in rounds), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup, "s"),
    }
    return [warmup, *rounds], metrics


def per_layer(cli, commands, seconds: float, dump_path: str) -> tuple[list[Round], dict]:
    import tracing

    tracer = tracing.Tracer()
    warmup = Round(cli, commands)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(Round(cli, commands))
        tracer.clear()
        tracer.install()
        try:
            traced.append(Round(cli, commands))
        finally:
            tracer.uninstall()
        layers.append(_layer_metrics(tracer, traced[-1]))
    tracer.dump(dump_path)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit in ("s", "1/s"):
            value = statistics.median(layer[name][0] for layer in layers)
        elif any(layer[name][0] != value for layer in layers):
            print(f"warning: count {name} differs between traced rounds", file=sys.stderr)
        metrics[name] = _metric(value, unit)
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    slowdowns = [x for r in traced for x in r.slowdowns]
    metrics["host.slowdown"] = _metric(statistics.median(slowdowns), "ratio")
    return [warmup, *plain, *traced], metrics


def _layer_metrics(tracer, rnd: Round) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    spans = tracer.layer_totals()
    counts = tracer.counts

    def total(name):
        return spans[name][0]

    def calls(name):
        return spans[name][2]

    session_s = total("protocol.session")
    analytics_calls = sum(calls(n) for n in spans if n.startswith("analytics."))
    budget = counts["quantizer.bit_budget"]
    return {
        "channel.sample_s": (total("channel.sample"), "s"),
        "channel.samples": (counts["channel.samples"], "count"),
        "protocol.session_s": (session_s, "s"),
        "protocol.slots": (counts["protocol.slots"], "count"),
        "protocol.slots_per_s": (counts["protocol.slots"] / session_s if session_s else 0.0, "1/s"),
        "protocol.tx_step_s": (total("protocol.tx_step"), "s"),
        "protocol.tx_steps": (calls("protocol.tx_step"), "count"),
        "protocol.rx_step_s": (total("protocol.rx_step"), "s"),
        "protocol.renewals": (counts["protocol.renewals"], "count"),
        "protocol.chain_slots": (counts["protocol.chain_slots"], "count"),
        "protocol.max_chain_length": (counts["protocol.max_chain_length"], "slots"),
        "protocol.source_fetch_s": (total("protocol.source_fetch"), "s"),
        "protocol.payload_bits": (counts["protocol.payload_bits"], "bits"),
        "protocol.reassembly_push_s": (total("protocol.reassembly_push"), "s"),
        "protocol.reassembly_pushes": (calls("protocol.reassembly_push"), "count"),
        "protocol.held_window_bits": (counts["protocol.held_window_bits"], "bits"),
        "quantizer.encode_s": (total("quantizer.encode"), "s"),
        "quantizer.decode_s": (total("quantizer.decode"), "s"),
        "quantizer.blocks": (calls("quantizer.encode"), "count"),
        "quantizer.bits_used": (counts["quantizer.bits_used"], "bits"),
        "quantizer.budget_fill": (counts["quantizer.bits_used"] / budget if budget else 0.0,
                                  "ratio"),
        "engine.replicate_s": (total("engine.replicate"), "s"),
        "engine.aggregate_s": (spans["engine.replicate"][1], "s"),
        "engine.sweep_s": (total("engine.sweep"), "s"),
        "engine.sweep_points": (counts["engine.sweep_points"], "count"),
        "analytics.waterfilling_s": (total("analytics.waterfilling"), "s"),
        "analytics.full_csit_s": (total("analytics.full_csit"), "s"),
        "analytics.quantized_s": (total("analytics.quantized"), "s"),
        "analytics.prior_fixed_s": (total("analytics.prior_fixed"), "s"),
        "analytics.calls": (analytics_calls, "count"),
        "analytics.quad_calls": (counts["analytics.quad_calls"], "count"),
        "analytics.quad_evals": (counts["analytics.quad_evals"], "count"),
        "cli.self_s": (spans["cli.main"][1], "s"),
        "cli.output_bytes": (rnd.output_bytes, "bytes"),
    }


def run_workload(args) -> int:
    cli = import_program()
    import workloads

    out = os.path.join(OUT, args.workload)
    commands = workloads.build(args.workload, args.seed, out)
    if args.trace:
        dump = os.path.join(OUT, f"spans-{args.workload}.npz")
        rounds, metrics = per_layer(cli, commands, args.seconds, dump)
    else:
        rounds, metrics = end_to_end(cli, commands, args.seconds)
    failures = [f for r in rounds for f in r.failures]
    unexpected = {f for r in rounds for f in r.unexpected}
    for failure in dict.fromkeys(failures):
        print(f"FAILED{'' if failure in unexpected else ' (known fault)'} {failure}")
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    result = {
        # A command with a known fault fails every round; it is counted in
        # `failed`, but `correct` speaks only of the other commands.
        "correct": not unexpected,
        "attempted": len(commands) * len(rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(f"{args.workload}: {len(rounds)} rounds, {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    line = json.dumps(result)
    with open(os.path.join(out, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def run_all(args) -> int:
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
