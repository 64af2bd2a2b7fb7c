#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the embgep CLI.

    python3 perfbench/run.py --workload fit-85 --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``fit-85``     ``embgep fit`` on 85 synthetic rows, 1000 generations.
* ``sweep-20k``  ``embgep sweep`` over the 6 x 9 default grid on 20 000 rows,
                 5 generations per cell.
* ``table-20k``  ``stats``, ``split --trials 256``, ``predict --model gep``,
                 ``compare`` and a ``sensitivity`` curve through Mw = 0 on
                 20 000 rows.

The input CSV is written by ``make_input.py`` from ``--seed``; the program
sees only that file (plus, for ``fit``, a config file).  A round runs the
workload's commands with CLI seeds derived from ``--seed``: three for
``fit-85``, one for the others.  Every round repeats the first exactly, so
that the artifacts of repeated invocations can be compared byte for byte and
each invocation's fastest time can be reported.  Rounds start until
``--seconds`` of round time have been measured.

``--trace 0`` runs every command as a child process and reports the
end-to-end metrics.  ``--trace 1`` runs set-up and commands in this process,
alternating an untraced round with a traced one, and reports the per-layer
metrics of ``layers.py``.  The last line of standard output is the result
object; the line before it holds per-command detail.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

MIN_ROUNDS = 2  # the second round checks that the first repeats exactly
FIT_GENERATIONS = 1000
SWEEP_GENERATIONS = 5
SWEEP_GENES = range(1, 7)
SWEEP_HEADS = range(4, 13)
SPLIT_FRACTION = 0.75
SPLIT_TRIALS = 256
SENSITIVITY = (0.0, 8.3, 84)  # from, to, steps: the curve starts at Mw = 0
# the one operation known to fail: sensitivity_profile lets the
# ModelDomainError for Mw = 0 abort the whole curve with exit 2
KNOWN_FAULT = "Mw = 0 is outside the model domain"

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "round_cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    name: str
    argv: list[str]  # CLI arguments without --seed and --out
    check: Callable[[Path], list[str]]


@dataclass
class OpResult:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: str


class Inputs:
    """The workload's input file and the reference data read back from it."""

    def __init__(self, csv_path: Path):
        self.csv_path = csv_path

    @functools.cached_property
    def cases(self):
        return checks.load_cases(self.csv_path)

    @functools.cached_property
    def oracle(self):
        return checks.GepOracle(self.cases)


WORKLOAD_ROWS = {"fit-85": 85, "sweep-20k": 20_000, "table-20k": 20_000}
# a fit's cost depends on the trajectory its seed takes (coding nodes per
# evaluation vary twofold between seeds), so a fit-85 round runs several
TRAJECTORIES = {"fit-85": 3}


def workload_ops(workload: str, inputs: Inputs, config_path: Path) -> list[Op]:
    csv_arg = ["--input", str(inputs.csv_path)]
    if workload == "fit-85":
        return [Op("fit", ["fit", *csv_arg, "--config", str(config_path)],
                   lambda out: checks.check_fit(out, inputs.cases, FIT_GENERATIONS))]
    if workload == "sweep-20k":
        return [Op("sweep", ["sweep", *csv_arg, "--max-generations", str(SWEEP_GENERATIONS)],
                   lambda out: checks.check_sweep(out, SWEEP_GENES, SWEEP_HEADS))]
    start, stop, steps = SENSITIVITY
    return [
        Op("stats", ["stats", *csv_arg], lambda out: checks.check_stats(out, inputs.cases)),
        Op("split", ["split", *csv_arg, "--trials", str(SPLIT_TRIALS)],
           lambda out: checks.check_split(out, inputs.cases, SPLIT_FRACTION, SPLIT_TRIALS)),
        Op("predict", ["predict", "--model", "gep", *csv_arg],
           lambda out: checks.check_predict(out, inputs.cases, inputs.oracle)),
        Op("compare", ["compare", *csv_arg],
           lambda out: checks.check_compare(out, inputs.cases, inputs.oracle)),
        Op("sensitivity", ["sensitivity", "--param", "Mw", "--from", str(start),
                           "--to", str(stop), "--steps", str(steps)],
           lambda out: checks.check_sensitivity(out, start, stop, steps)),
    ]


def round_seeds(workload: str, seed: int) -> list[int]:
    """The CLI seeds of one round, derived from ``--seed``."""
    digests = (hashlib.sha256(f"{seed}:{i}".encode()).digest()
               for i in range(TRAJECTORIES.get(workload, 1)))
    return [int.from_bytes(d[:4], "little") for d in digests]


def median(values: list):
    """Median; counts, which repeat exactly across rounds, stay integers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# running commands


class Spawner:
    """Runs child processes one at a time through ``spawn.py``, which stays
    small so that each child's peak RSS is its own."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], log_path: Path) -> OpResult:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        request = {"argv": argv, "log": str(log_path), "env": env, "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the child launcher spawn.py ended early")
        reply = json.loads(line)
        return OpResult(reply["returncode"], reply["wall_s"], reply["cpu_s"], reply["rss_mb"],
                        log_path.read_text(errors="replace"))


class ChildExecutor:
    def __init__(self, spawner: Spawner):
        self.spawner = spawner

    def run(self, argv: list[str], outdir: Path) -> OpResult:
        return self.spawner.run([sys.executable, "-m", "embgep.cli", *argv],
                                outdir.parent / f"{outdir.name}.log")


class InProcessExecutor:
    """Calls ``cli.main`` in this process, looked up at call time so a
    traced round goes through the tracer's wrapper."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def run(self, argv: list[str], outdir: Path) -> OpResult:
        log = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = self.cli.main(argv)
        return OpResult(code, time.perf_counter() - t0, time.process_time() - c0, 0.0,
                        log.getvalue())


class Verifier:
    """Counts attempted and failed operations and checks their artifacts.

    An operation fails when the command exits non-zero or when a repeated
    invocation writes different artifacts.  Checks run once per distinct
    set of artifacts; a failed check makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._outputs: dict[tuple[str, int], dict] = {}
        self._checked: set[tuple[str, str]] = set()

    def verify(self, op: Op, seed: int, result: OpResult, outdir: Path) -> None:
        self.attempted += 1
        if result.returncode != 0:
            self.failed += 1
            known = result.returncode == 2 and KNOWN_FAULT in result.log
            if not (op.name == "sensitivity" and known):
                print(f"{op.name}: unexpected exit {result.returncode}: {result.log[-2000:]}",
                      file=sys.stderr)
            return
        try:
            manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
            outputs = manifest["outputs"]
        except (ValueError, KeyError, OSError) as exc:
            self.problems.append(f"{op.name}: unreadable manifest: {exc!r}")
            return
        first = self._outputs.setdefault((op.name, seed), outputs)
        if outputs != first:
            self.failed += 1
            print(f"{op.name}: repeated invocation wrote different artifacts", file=sys.stderr)
            return
        key = (op.name, json.dumps(outputs, sort_keys=True))
        if key in self._checked:
            return
        self._checked.add(key)
        try:
            found = op.check(outdir)
        except (ValueError, KeyError, IndexError, OSError, ZeroDivisionError) as exc:
            found = [f"unreadable artifact: {exc!r}"]
        self.problems += [f"{op.name}: {p}" for p in found]


def run_round(ops, seeds, executor, verifier, run_dir) -> list[OpResult]:
    """Runs every op with every seed; result j of every round is the same
    invocation."""
    results = []
    for seed in seeds:
        for op in ops:
            outdir = run_dir / op.name
            result = executor.run([*op.argv, "--seed", str(seed), "--out", str(outdir)], outdir)
            verifier.verify(op, seed, result, outdir)
            results.append(result)
    return results


# ---------------------------------------------------------------------------
# the two kinds of run


def prepare(workload: str) -> tuple[Path, Path]:
    if not (SRC / "embgep" / "cli.py").is_file():
        raise BenchError(f"embgep sources not found under {SRC}")
    run_dir = RUN_DIR / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "gep.cfg"
    # the published parameters, with stagnation at the generation budget so
    # every fit runs all 1000 generations
    config_path.write_text(f"stagnation_limit = {FIT_GENERATIONS}\n", encoding="utf-8")
    return run_dir, config_path


def set_up(spawner: Spawner, rows: int, seed: int, csv_path: Path) -> tuple[float, str]:
    """Wall time of a fresh interpreter writing the input, and the digest
    of what it wrote."""
    argv = [sys.executable, str(BENCH / "make_input.py"), "--rows", str(rows),
            "--seed", str(seed), "--out", str(csv_path)]
    result = spawner.run(argv, csv_path.with_suffix(".log"))
    if result.returncode != 0:
        raise BenchError(f"set-up failed: {result.log[-2000:]}")
    return result.wall_s, sha256(csv_path)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Verifier]:
    run_dir, config_path = prepare(workload)
    inputs = Inputs(run_dir / "input.csv")
    ops = workload_ops(workload, inputs, config_path)
    verifier = Verifier()
    rounds: list[list[OpResult]] = []
    setup_times: list[float] = []
    with Spawner() as spawner:
        setup = functools.partial(set_up, spawner, WORKLOAD_ROWS[workload], seed, inputs.csv_path)
        _, digest = setup()  # untimed warm-up
        executor = ChildExecutor(spawner)
        seeds = round_seeds(workload, seed)
        elapsed = 0.0
        # a round starts only if it is expected to end within --seconds
        while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
            # one set-up before each round spreads the set-up samples over
            # the run, and so over the host's slow and fast spells
            wall, written = setup()
            if written != digest:
                raise BenchError("set-up wrote different inputs from the same seed")
            setup_times.append(wall)
            results = run_round(ops, seeds, executor, verifier, run_dir)
            rounds.append(results)
            elapsed += sum(r.wall_s for r in results)

    # Every round repeats the same invocations.  Each invocation's fastest
    # time over the rounds is the one least slowed by other load on the host.
    fastest = [min(rs[j].wall_s for rs in rounds) for j in range(len(rounds[0]))]
    fastest_cpu = [min(rs[j].cpu_s for rs in rounds) for j in range(len(rounds[0]))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "round_s": sum(fastest),
        "round_cpu_s": sum(fastest_cpu),
        "peak_rss_mb": max(r.rss_mb for rs in rounds for r in rs),
    }
    detail = {"rounds": len(rounds), "seeds": len(seeds),
              "round_s_samples": [sum(r.wall_s for r in rs) for rs in rounds],
              "setup_s_samples": setup_times}
    generations = {"fit": FIT_GENERATIONS,
                   "sweep": SWEEP_GENERATIONS * len(SWEEP_GENES) * len(SWEEP_HEADS)}
    for j, op in enumerate(ops):
        own = fastest[j::len(ops)]  # this op's invocations, one per seed
        detail[f"{op.name}_s"] = statistics.fmean(own)
        detail[f"{op.name}_peak_rss_mb"] = max(rs[j + k * len(ops)].rss_mb for rs in rounds
                                               for k in range(len(seeds)))
        if op.name in generations:
            detail["generations_per_s"] = generations[op.name] * len(own) / sum(own)
    return metrics, detail, verifier


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Verifier]:
    run_dir, config_path = prepare(workload)
    sys.path.insert(0, str(SRC))
    from embgep import cli, data, displacement, evolution, karva, kernels, metrics

    from make_input import make_input

    modules = {"cli": cli, "data": data, "displacement": displacement,
               "evolution": evolution, "karva": karva, "kernels": kernels,
               "metrics": metrics}
    inputs = Inputs(run_dir / "input.csv")
    ops = workload_ops(workload, inputs, config_path)
    verifier = Verifier()
    executor = InProcessExecutor(cli)
    seeds = round_seeds(workload, seed)
    samples: list[dict] = []
    elapsed = 0.0
    while not samples or elapsed * (len(samples) + 1) / len(samples) <= seconds:
        # round time counts set-up and commands, not installing the tracer
        # or checking artifacts
        walls = []
        for tracer in (None, layers.Tracer(modules)):
            if tracer is not None:
                tracer.install()
            try:
                t0 = time.perf_counter()
                make_input(WORKLOAD_ROWS[workload], seed, inputs.csv_path)
                setup_s = time.perf_counter() - t0
                results = run_round(ops, seeds, executor, verifier, run_dir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls.append(setup_s + sum(r.wall_s for r in results))
        elapsed += sum(walls)
        samples.append(tracer.metrics(traced_s=walls[1], untraced_s=walls[0]))
    values = {name: median([s[name] for s in samples]) for name in layers.LAYER_METRICS}
    return values, {"round_pairs": len(samples)}, verifier


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_ROWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.trace:
            values, detail, verifier = per_layer(args.workload, args.seed, args.seconds)
            units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
        else:
            values, detail, verifier = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in verifier.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not verifier.problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
