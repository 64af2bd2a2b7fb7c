"""Command-line surface: stats, split, fit, predict, compare, sensitivity, sweep.

Every command writes its artifacts into ``--out``, plus a ``manifest.json``
holding the digests of the ``--input`` and ``--config`` files it read and of
exactly the artifacts it wrote.  The out dir is made only once the command
has passed its checks of its options, config and table, so a run rejected
by them leaves none behind; ``fit`` also scores all three stages of its
model first.  ``sweep`` makes it, with the synthesized table, before its
grid runs, so that the table can be freed while the engine runs, and
removes it if the grid fails.  With identical seed, config and inputs
every artifact is byte-identical across reruns (the manifest's timestamp
and environment fields, ``sweep``'s worker count and the engine's stage
timings ``fit`` and ``sweep`` add to it are the documented exceptions).

Exit codes: 0 success, 1 internal error, 2 input, validation or memory error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

# OpenBLAS starts a worker thread at ``import numpy`` unless told otherwise,
# and no command calls a BLAS routine, so the thread would only spin CPU
# beside each command; a value the user has set is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# the GEP engine (evolution, karva, kernels) is imported only by the
# commands that evolve, so the closed-form commands never load it
from . import data, displacement, metrics  # noqa: E402

SYNTH_DEFAULT_N = 85

# grid points of one sensitivity run, over all the curves of a family
MAX_SENSITIVITY_POINTS = 100_000


# ---------------------------------------------------------------------------
# small IO helpers


def _write_json(path: Path, payload) -> None:
    # streamed, so a list of ids is never held again as one string
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


class _Output:
    """The out dir of one command, made when the command has passed its
    last check: it holds the synthesized table when ``records`` were
    synthesized, and it records every artifact path it hands out, so the
    manifest digests, and ``discard`` removes, exactly the files written."""

    def __init__(self, args, records=None):
        self.args = args
        self.dir = Path(args.out)
        self.made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]  # deepest first
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []
        if records is not None and args.input is None:
            data.save(records, self.path("synthetic_input.csv"))

    def path(self, name: str) -> Path:
        path = self.dir / name
        self.written.append(path)
        return path

    def csv(self, name: str, header, columns) -> None:
        data.write_csv(self.path(name), header, columns, "\n")

    def json(self, name: str, payload) -> None:
        _write_json(self.path(name), payload)

    def discard(self) -> None:
        """Remove every file written so far and every dir this object made."""
        for path in self.written:
            path.unlink(missing_ok=True)
        for made in self.made:
            made.rmdir()

    def manifest(self, config: dict | None = None, **run_facts) -> None:
        """``manifest.json``: the command, its options, seed and config,
        the digests of ``--input``, ``--config`` and the recorded outputs,
        and facts of this run that vary between hosts or reruns: the time,
        the Python and numpy versions, and ``run_facts``."""
        args = self.args
        inputs = [Path(p) for p in (getattr(args, "input", None), getattr(args, "config", None))
                  if p]
        _write_json(self.dir / "manifest.json", {
            "command": args.command,
            "options": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": args.seed,
            "config": config,
            "inputs": {str(p): f"sha256:{_sha256(p)}" for p in inputs},
            "outputs": {p.name: f"sha256:{_sha256(p)}" for p in self.written},
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "environment": {"python": platform.python_version(), "numpy": np.__version__},
            **run_facts,
        })


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]


def _open_run(args, streams: int):
    """The start of a command that reads case histories: the table from
    --input, or synthesized, and ``streams`` RNG streams.  The first stream
    of the seed is reserved for synthesis, whichever data source was
    chosen, so the streams returned are the same for both; a command that
    reads --input and draws no stream builds none (and never imports
    ``numpy.random``).  Nothing is written: the command opens its
    ``_Output`` once its own checks of the table have passed."""
    reads_input = args.input is not None
    synth_rng, *rngs = _spawn_rngs(args.seed, 1 + streams) if streams or not reads_input else [None]
    if reads_input:
        records = data.load(args.input)
        if not records:
            raise data.DatasetError("empty dataset")
    else:
        records = data.synthesize(data.EMBANKMENT_SUMMARY, args.synth, synth_rng)
    return records, rngs


def _load_config(args):
    from . import evolution

    if args.config:
        config = evolution.read_config_file(args.config)
    else:
        config = evolution.GepConfig()
    if config.num_inputs != 3:
        raise evolution.ConfigError(
            f"number_of_inputs = {config.num_inputs}: the CLI fits 3 features (Mw, ay/amax, Td/Tp)"
        )
    config = dataclasses.replace(config, rng_seed=args.seed)
    if args.max_generations is not None:
        config = dataclasses.replace(config, max_generations=args.max_generations)
    return config


# ---------------------------------------------------------------------------
# commands


def cmd_stats(args) -> int:
    records, _ = _open_run(args, 0)

    # the parameter columns of both tables: the records' own arrays and two ratios
    columns = records.parameter_columns()
    summary = data.summarize(columns)
    names, corr = metrics.correlation_matrix(columns)
    out = _Output(args, records)
    stats = list(summary.values())
    out.csv("summary.csv", ("parameter", "min", "max", "mean", "sd"),
            # the sample SD of fewer than two rows is undefined: a blank cell
            [list(summary), [s.minimum for s in stats], [s.maximum for s in stats],
             [s.mean for s in stats], [np.nan if s.degenerate else s.sd for s in stats]])
    lower = np.where(np.tri(len(names), dtype=bool), corr, np.nan)  # NaN cells are left blank
    out.csv("correlations.csv", ("parameter",) + names, [names, *lower.T])
    out.manifest()
    return 0


def cmd_split(args) -> int:
    records, (split_rng,) = _open_run(args, 1)

    split = data.split_matched(records, args.fraction, args.trials, split_rng)
    out = _Output(args, records)
    data.save(split.train, out.path("train.csv"))
    data.save(split.test, out.path("test.csv"))
    out.json("split.json", {
        "fraction": args.fraction,
        "trials": args.trials,
        "score": split.score,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "train_ids": list(split.train.ids),
        "test_ids": list(split.test.ids),
    })
    out.manifest()
    return 0


def _stage_arrays(stage: str, rows) -> tuple[np.ndarray, np.ndarray]:
    """The (X, ln D) arrays of one fit stage, checked before any evolution:
    the stage needs at least 2 rows, a positive D in each, and ln D values
    that vary, or its R^2 is undefined."""
    if len(rows) < 2:
        raise data.DatasetError(
            f"{stage}: the set has {len(rows)} row(s), at least 2 are needed to score it"
        )
    try:
        X, y = data.regression_arrays(rows)
    except data.DatasetError as exc:
        raise data.DatasetError(f"{stage}: {exc}") from None
    if (y == y[0]).all():
        raise data.DatasetError(f"{stage}: ln D is constant, so R^2 is undefined")
    return X, y


def _stage_metrics(stage: str, y, preds) -> dict:
    """Scores of one fit stage on its rows with a finite prediction.  R^2,
    RMSE, the conventional MAE and the bias compare ln D; the normalised
    MAE and the scatter index compare D in metres, so their denominators
    are positive.  Where a predicted D, or a sum of them, overflows a
    float, those two are undefined: NaN, a blank cell."""
    finite = np.isfinite(preds)
    used = int(finite.sum())
    if used < 2:
        raise data.DatasetError(f"{stage}: model non-finite on too many rows to score")
    ln_d = metrics.PredictionSet(y[finite], preds[finite])
    with np.errstate(over="ignore"):
        d_m = metrics.PredictionSet(np.exp(ln_d.y_measured), np.exp(ln_d.y_predicted))
        row = {
            "stage": stage,
            "n": len(y),
            "n_used": used,
            "space": "ln_D_m",
            "r_squared": metrics.r_squared(ln_d),
            "mae_paper": metrics.mae_paper(d_m),
            "mae_conventional": metrics.mae_conventional(ln_d),
            "rmse": metrics.rmse(ln_d),
            "scatter_index": metrics.scatter_index(d_m),
            "bias": metrics.bias(ln_d),
        }
    for key in ("mae_paper", "scatter_index"):
        if not np.isfinite(row[key]):
            row[key] = np.nan
    return row


def cmd_fit(args) -> int:
    from . import evolution, karva, kernels

    config = _load_config(args)
    records, (split_rng, run_rng) = _open_run(args, 2)

    split = data.split_matched(records, 0.75, args.trials, split_rng)
    stages = {stage: _stage_arrays(stage, rows) for stage, rows in
              (("Training", split.train), ("Validation", split.test), ("All data", records))}
    result = evolution.run(config, *stages["Training"], run_rng)
    predicted = {stage: kernels.evaluate_codes(result.best_codes, result.best_pools, X,
                                               config.num_inputs)
                 for stage, (X, _) in stages.items()}
    stage_rows = [_stage_metrics(stage, y, predicted[stage]) for stage, (_, y) in stages.items()]
    # _stage_metrics has checked that at least 2 of these predictions are finite
    y_all, preds_all = stages["All data"][1], predicted["All data"]
    finite = np.isfinite(preds_all)
    residuals = metrics.residual_summary(metrics.PredictionSet(y_all[finite], preds_all[finite]))

    out = _Output(args, records)
    out.path("best.kexpr").write_text(
        karva.kexpr_text(result.best_codes, result.best_pools, config.num_inputs),
        encoding="utf-8")
    best = result.report.per_generation_best
    out.csv("history.csv",
            ("generation", "best_fitness", "mean_fitness", "evaluations", "zero_fitness"),
            [range(1, len(best) + 1), best, result.mean_history, result.evaluation_history,
             result.zero_fitness_history])
    header = ("stage", "n", "n_used", "space", "r_squared", "mae_paper",
              "mae_conventional", "rmse", "scatter_index", "bias")
    out.csv("metrics.csv", header, [[row[k] for row in stage_rows] for k in header])
    out.csv("residual_histogram.csv", ("bin_low", "bin_high", "count"),
            [residuals.bin_edges[:-1], residuals.bin_edges[1:], residuals.counts])
    out.json("metrics.json", {
        # an undefined metric (NaN, a blank cell in metrics.csv) is null
        "stages": [{k: None if v != v else v for k, v in row.items()} for row in stage_rows],
        "split": {"train_ids": list(split.train.ids), "test_ids": list(split.test.ids),
                  "score": split.score},
        "best_fitness": result.report.fitness,
        "best_rmse": result.report.rmse,
        "generations_run": len(best),
        "evaluations": result.evaluations,
        "residuals_ln_space": {
            "mean_abs": residuals.mean_abs,
            "sd": residuals.sd,
            "marker_low": residuals.marker_low,
            "marker_high": residuals.marker_high,
        },
    })
    out.manifest(dataclasses.asdict(config), timings_s=result.timings_s)
    return 0


def cmd_predict(args) -> int:
    records, _ = _open_run(args, 0)

    columns = records.model_columns()
    result = displacement.evaluate(args.model, columns, args.pole_eps, args.ambraseys_cm)
    out = _Output(args, records)
    scale = np.full(len(records), "", dtype=object)  # like status, 8 bytes a row
    scale[result.status == "ok"] = result.scale
    out.csv("predictions.csv", ("id", "model", "value", "scale", "D_m", "in_range", "status"),
            [records.ids, [args.model] * len(records), result.value, scale, result.d_m,
             displacement.in_range(args.model, columns), result.status])
    out.manifest()
    return 0


def cmd_compare(args) -> int:
    records, _ = _open_run(args, 0)
    out = _Output(args, records)

    columns = records.model_columns()
    ids = np.array(records.ids, dtype=object)  # references to the ids, 8 bytes a row
    errors_by_model: dict[str, np.ndarray] = {}
    for model_id in displacement.MODEL_IDS:
        # each model is evaluated and compared only in its applied range
        keep = np.flatnonzero(displacement.in_range(model_id, columns))
        inputs = {name: columns[name][keep] for name in displacement.MODELS[model_id].inputs}
        result = displacement.evaluate(model_id, inputs, args.pole_eps, args.ambraseys_cm)
        measured, predicted, status = records.d[keep], result.d_m, result.status
        ok = status == "ok"
        zero = ok & (measured == 0.0)
        scored = ok & ~zero
        errors = np.full(len(keep), np.nan)
        with np.errstate(over="ignore"):  # a subnormal measured D overflows the ratio
            errors[scored] = metrics.relative_error(measured[scored], predicted[scored])
        overflow = scored & ~np.isfinite(errors)
        errors[overflow] = np.nan
        scored &= ~overflow
        out.csv(f"relative_error_{model_id}.csv",
                ("id", "D_measured_m", "D_predicted_m", "relative_error_pct", "status"),
                [ids[keep], measured, predicted, errors,
                 np.select([zero, overflow], ["zero_measured", "error_overflow"], status)])
        if scored.any():
            errors_by_model[model_id] = errors[scored]

    scored_errors = errors_by_model.values()
    grid = (np.linspace(min(e.min() for e in scored_errors), max(e.max() for e in scored_errors),
                        101) if errors_by_model else np.empty(0))
    fractions = [
        metrics.cumulative_frequency(errors_by_model[model_id], grid)
        if model_id in errors_by_model else np.full(grid.size, np.nan)
        for model_id in displacement.MODEL_IDS
    ]
    out.csv("cumulative_frequency.csv", ("threshold_pct",) + displacement.MODEL_IDS,
            [grid, *fractions])
    out.manifest()
    return 0


def cmd_sensitivity(args) -> int:
    grid = np.linspace(args.start, args.stop, args.steps)
    if args.family:
        # one Mw curve per level: the grid tiled once per level, level-major
        levels = np.repeat(args.levels, grid.size)
        varied, values, anchors = "Mw", np.tile(grid, len(args.levels)), {args.family: levels}
        header = ("family_parameter", "level", "Mw", "ln_D_m", "status")
        leading = [[args.family] * values.size, levels]
    else:
        varied, values, anchors = args.param, grid, None
        header = ("parameter", "value", "ln_D_m", "status")
        leading = [[args.param] * values.size]
    result = displacement.sensitivity_profile(varied, values, anchors, args.pole_eps)
    out = _Output(args)
    # ln_D_m is NaN (a blank cell) where the status is not ok
    out.csv("sensitivity.csv", header, [*leading, values, result.value, result.status])
    out.manifest()
    return 0


def _parse_grid(option: str, text: str) -> list[int]:
    """The integers of a grid option, ``lo:hi`` (inclusive) or ``a,b,...``."""
    lo, colon, hi = text.partition(":")
    try:
        grid = (list(range(int(lo), int(hi) + 1)) if colon
                else [int(part) for part in text.split(",") if part.strip()])
    except ValueError:
        raise ValueError(f"{option} {text!r}: expected integers as lo:hi or a,b,...") from None
    if not grid:
        raise ValueError(f"{option} {text!r}: the grid is empty")
    return grid


def cmd_sweep(args) -> int:
    from . import evolution

    config = _load_config(args)
    gene_grid = _parse_grid("--genes", args.genes)
    head_grid = _parse_grid("--heads", args.heads)
    # every cell's config is checked before any data is read or written
    evolution.sweep_configs(config, gene_grid, head_grid)
    records, _ = _open_run(args, 0)
    X, y = data.regression_arrays(records)
    out = _Output(args, records)
    del records  # the engine reads only X, y; the ids need not stay alive while it runs

    try:
        cells = evolution.sweep(X, y, config, gene_grid, head_grid)
    except BaseException:
        out.discard()  # a grid the engine rejects leaves no out dir, as a rejected table does
        raise
    out.csv("sweep.csv", ("genes", "head", "fitness"),
            [[c.num_genes for c in cells], [c.head_size for c in cells],
             [c.fitness for c in cells]])
    best = max(cells, key=lambda c: c.fitness)
    out.json("sweep_argmax.json",
             {"genes": best.num_genes, "head": best.head_size, "fitness": best.fitness})
    timings = {stage: sum(c.timings_s[stage] for c in cells) for stage in evolution.STAGES}
    out.manifest(dataclasses.asdict(config), timings_s=timings,
                 workers=evolution.sweep_workers(len(cells)))
    return 0


# ---------------------------------------------------------------------------
# parser


def _option(convert, accepts, rule: str):
    """An argparse type: ``convert(text)`` when ``accepts`` holds of it,
    else, also when ``text`` does not convert, an error stating ``rule``."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if accepts(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_COUNT = _option(int, lambda n: n >= 1, "an integer >= 1")
_NON_NEGATIVE = _option(int, lambda n: n >= 0, "an integer >= 0")
_SYNTH = _option(int, lambda n: n >= 2, "an integer >= 2")
# a NaN fails both number rules; a zero or NaN --pole-eps would turn the pole check off
_FRACTION = _option(float, lambda x: 0.0 < x < 1.0, "a number > 0 and < 1")
_POLE_EPS = _option(float, lambda x: x > 0.0, "a number > 0")


def _levels(text: str) -> list[float]:
    try:
        levels = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, e.g. 0.2,0.5,1.0, got {text!r}") from None
    if not np.isfinite(levels).all():
        raise argparse.ArgumentTypeError(f"every level must be finite, got {text!r}")
    return levels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embgep",
        description="GEP engine and displacement models for earth embankments under earthquakes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # options that several commands share, declared once as parent parsers
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_NON_NEGATIVE, default=0,
                        help="master RNG seed, an integer >= 0 (default 0)")
    common.add_argument("--out", default=".", help="output directory (default .)")
    reads = argparse.ArgumentParser(add_help=False, parents=[common])
    source = reads.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="case-history CSV")
    source.add_argument("--synth", type=_SYNTH, nargs="?", const=SYNTH_DEFAULT_N, help=(
        f"generate a synthetic database of N >= 2 records (default {SYNTH_DEFAULT_N})"))
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=_COUNT, default=1000, help="matched-split trials")
    pole_eps = argparse.ArgumentParser(add_help=False)
    pole_eps.add_argument("--pole-eps", type=_POLE_EPS, default=displacement.DEFAULT_POLE_EPS)
    ambraseys_cm = argparse.ArgumentParser(add_help=False)
    ambraseys_cm.add_argument("--ambraseys-cm", action="store_true",
                              help="treat the Ambraseys-Menu value as log10 of centimeters")
    evolve = argparse.ArgumentParser(add_help=False)
    evolve.add_argument("--config", help="evolution parameter file")
    evolve.add_argument("--max-generations", type=_NON_NEGATIVE, default=None,
                        help="override the config's generation budget")

    p = subs.add_parser("stats", parents=[reads], help="summary statistics and correlation table")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("split", parents=[reads, trials],
                        help="statistically matched train/test split")
    p.add_argument("--fraction", type=_FRACTION, default=0.75)
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("fit", parents=[reads, trials, evolve],
                        help="train a GEP model on ln D targets")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("predict", parents=[reads, pole_eps, ambraseys_cm],
                        help="run one registered relationship over a dataset")
    p.add_argument("--model", required=True, choices=displacement.MODEL_IDS)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("compare", parents=[reads, pole_eps, ambraseys_cm],
                        help="relative errors per relationship, applied ranges only")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("sensitivity", parents=[common, pole_eps],
                        help="ln D curves from the gep relationship")
    p.add_argument("--param", choices=displacement.SENSITIVITY_PARAMS, default="Mw")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=_COUNT, required=True,
                   help=f"grid points per curve, at most {MAX_SENSITIVITY_POINTS} over all curves")
    p.add_argument("--family", choices=("ay_ratio", "period_ratio"),
                   help="vary Mw at fixed levels of this parameter (needs --levels)")
    p.add_argument("--levels", type=_levels, help="comma-separated family levels")
    p.set_defaults(func=cmd_sensitivity)

    p = subs.add_parser("sweep", parents=[reads, evolve],
                        help="fitness surface over gene count and head size")
    p.add_argument("--genes", default="1:6", help="grid, e.g. 1:6 or 1,2,4")
    p.add_argument("--heads", default="4:12", help="grid, e.g. 4:12 or 5,7,9")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sensitivity":
            if (args.family is None) != (args.levels is None):
                parser.error("argument --family: needs --levels" if args.levels is None
                             else "argument --levels: needs --family")
            curves = len(args.levels) if args.levels else 1
            if args.steps * curves > MAX_SENSITIVITY_POINTS:
                parser.error(f"argument --steps: at most {MAX_SENSITIVITY_POINTS} grid points over"
                             f" all curves, got {args.steps} x {curves} curve(s)")
            with np.errstate(all="ignore"):
                grid = np.linspace(args.start, args.stop, args.steps)
            if not np.isfinite(grid).all():
                parser.error(f"argument --from/--to: {args.steps} grid point(s) from {args.start!r}"
                             f" to {args.stop!r} include a non-finite value")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
