"""Command-line surface: stats, split, fit, predict, compare, sensitivity, sweep.

Every command writes its artifacts plus a ``manifest.json`` listing input and
output digests into ``--out``.  With identical seed, config and inputs every
artifact is byte-identical across reruns (the manifest's timestamp and
environment fields, ``sweep``'s worker count and the engine's stage timings
``fit`` and ``sweep`` add to it are the documented exceptions).

Exit codes: 0 success, 1 internal error, 2 input/validation error.
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


def _write_manifest(outdir: Path, args: argparse.Namespace,
                    inputs: list[Path], outputs: list[Path],
                    config_snapshot: dict | None = None, **run_facts) -> None:
    """``manifest.json``: the command, its options, seed and config, input
    and output digests, and facts of this run that vary between hosts or
    reruns: the time, the Python and numpy versions, and ``run_facts``."""
    manifest = {
        "command": args.command,
        "options": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": args.seed,
        "config": config_snapshot,
        "inputs": {str(p): f"sha256:{_sha256(p)}" for p in inputs},
        "outputs": {p.name: f"sha256:{_sha256(p)}" for p in sorted(outputs)},
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        **run_facts,
    }
    _write_json(outdir / "manifest.json", manifest)


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]


def _open_run(args, streams: int):
    """The start of a command that reads case histories: the table from
    --input, or synthesized; the input paths (with the --config file, if
    any) and output paths so far; and ``streams`` RNG streams.  The first
    stream of the seed is reserved for synthesis, whichever data source was
    chosen, so the streams returned are the same for both.  Nothing is
    written: the command calls ``_start_output`` once its own checks of the
    table have passed."""
    synth_rng, *rngs = _spawn_rngs(args.seed, 1 + streams)
    if args.input is not None:
        records = data.load(args.input)
        if not records:
            raise data.DatasetError("empty dataset")
        inputs, outputs = [Path(args.input)], []
    else:
        records = data.synthesize(data.EMBANKMENT_SUMMARY, args.synth, synth_rng)
        inputs, outputs = [], [Path(args.out) / "synthetic_input.csv"]
    if getattr(args, "config", None):
        inputs.append(Path(args.config))
    return records, inputs, outputs, rngs


def _start_output(args, records) -> Path:
    """The out dir, made once the command has checked its table, holding
    the synthesized table when there is one."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.input is None:
        data.save(records, outdir / "synthetic_input.csv")
    return outdir


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
    records, inputs, outputs, _ = _open_run(args, 0)

    # the parameter columns of both tables: the records' own arrays and two ratios
    columns = records.parameter_columns()
    summary = data.summarize(columns)
    outdir = _start_output(args, records)
    stats = list(summary.values())
    data.write_csv(
        outdir / "summary.csv",
        ("parameter", "min", "max", "mean", "sd"),
        # the sample SD of fewer than two rows is undefined: a blank cell
        [list(summary), [s.minimum for s in stats], [s.maximum for s in stats],
         [s.mean for s in stats], [np.nan if s.degenerate else s.sd for s in stats]], "\n")

    names, corr = metrics.correlation_matrix(columns)
    lower = np.where(np.tri(len(names), dtype=bool), corr, np.nan)  # NaN cells are left blank
    data.write_csv(outdir / "correlations.csv", ("parameter",) + names, [names, *lower.T], "\n")

    outputs += [outdir / "summary.csv", outdir / "correlations.csv"]
    _write_manifest(outdir, args, inputs, outputs)
    return 0


def cmd_split(args) -> int:
    records, inputs, outputs, (split_rng,) = _open_run(args, 1)

    split = data.split_matched(records, args.fraction, args.trials, split_rng)
    outdir = _start_output(args, records)
    data.save(split.train, outdir / "train.csv")
    data.save(split.test, outdir / "test.csv")
    _write_json(
        outdir / "split.json",
        {
            "fraction": args.fraction,
            "trials": args.trials,
            "score": split.score,
            "n_train": len(split.train),
            "n_test": len(split.test),
            "train_ids": list(split.train.ids),
            "test_ids": list(split.test.ids),
        },
    )
    outputs += [outdir / "train.csv", outdir / "test.csv", outdir / "split.json"]
    _write_manifest(outdir, args, inputs, outputs)
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
    records, inputs, outputs, (split_rng, run_rng) = _open_run(args, 2)

    split = data.split_matched(records, 0.75, args.trials, split_rng)
    stages = {stage: _stage_arrays(stage, rows) for stage, rows in
              (("Training", split.train), ("Validation", split.test), ("All data", records))}
    outdir = _start_output(args, records)
    result = evolution.run(config, *stages["Training"], run_rng)

    best_text = karva.kexpr_text(result.best_codes, result.best_pools, config.num_inputs)
    (outdir / "best.kexpr").write_text(best_text, encoding="utf-8")
    best = result.report.per_generation_best
    data.write_csv(
        outdir / "history.csv",
        ("generation", "best_fitness", "mean_fitness", "evaluations", "zero_fitness"),
        [range(1, len(best) + 1), best, result.mean_history, result.evaluation_history,
         result.zero_fitness_history], "\n")

    predicted = {stage: kernels.evaluate_codes(result.best_codes, result.best_pools, X,
                                               config.num_inputs)
                 for stage, (X, _) in stages.items()}
    stage_rows = [_stage_metrics(stage, y, predicted[stage]) for stage, (_, y) in stages.items()]
    header = ("stage", "n", "n_used", "space", "r_squared", "mae_paper",
              "mae_conventional", "rmse", "scatter_index", "bias")
    data.write_csv(outdir / "metrics.csv", header,
                   [[row[k] for row in stage_rows] for k in header], "\n")

    y_all, preds_all = stages["All data"][1], predicted["All data"]
    finite = np.isfinite(preds_all)
    residual_info = None
    if int(finite.sum()) >= 2:
        summary = metrics.residual_summary(metrics.PredictionSet(y_all[finite], preds_all[finite]))
        data.write_csv(
            outdir / "residual_histogram.csv",
            ("bin_low", "bin_high", "count"),
            [summary.bin_edges[:-1], summary.bin_edges[1:], summary.counts], "\n")
        residual_info = {
            "mean_abs": summary.mean_abs,
            "sd": summary.sd,
            "marker_low": summary.marker_low,
            "marker_high": summary.marker_high,
        }
    _write_json(
        outdir / "metrics.json",
        {
            # an undefined metric (NaN, a blank cell in metrics.csv) is null
            "stages": [{k: None if v != v else v for k, v in row.items()} for row in stage_rows],
            "split": {"train_ids": list(split.train.ids), "test_ids": list(split.test.ids),
                      "score": split.score},
            "best_fitness": result.report.fitness,
            "best_rmse": result.report.rmse,
            "generations_run": len(result.report.per_generation_best),
            "evaluations": result.evaluations,
            "residuals_ln_space": residual_info,
        },
    )
    outputs += [outdir / "best.kexpr", outdir / "history.csv",
                outdir / "metrics.csv", outdir / "metrics.json"]
    if residual_info is not None:
        outputs.append(outdir / "residual_histogram.csv")
    _write_manifest(outdir, args, inputs, outputs, dataclasses.asdict(config),
                    timings_s=result.timings_s)
    return 0


def cmd_predict(args) -> int:
    records, inputs, outputs, _ = _open_run(args, 0)

    result = displacement.evaluate(args.model, records.model_columns(), args.pole_eps,
                                   args.ambraseys_cm)
    outdir = _start_output(args, records)
    scale = np.full(len(records), "", dtype=object)  # like status, 8 bytes a row
    scale[result.status == "ok"] = result.scale
    data.write_csv(
        outdir / "predictions.csv",
        ("id", "model", "value", "scale", "D_m", "in_range", "status"),
        [records.ids, [args.model] * len(records), result.value, scale, result.d_m,
         result.in_range, result.status], "\n")
    outputs.append(outdir / "predictions.csv")
    _write_manifest(outdir, args, inputs, outputs)
    return 0


def cmd_compare(args) -> int:
    records, inputs, outputs, _ = _open_run(args, 0)
    outdir = _start_output(args, records)

    columns = records.model_columns()
    ids = np.array(records.ids, dtype=object)  # references to the ids, 8 bytes a row
    errors_by_model: dict[str, np.ndarray] = {}
    for model_id in displacement.MODEL_IDS:
        result = displacement.evaluate(model_id, columns, args.pole_eps, args.ambraseys_cm)
        keep = np.flatnonzero(result.in_range)  # each model is compared in its applied range
        measured, predicted, status = records.d[keep], result.d_m[keep], result.status[keep]
        del result  # its full-length columns are not needed while the table is written
        ok = status == "ok"
        zero = ok & (measured == 0.0)
        scored = ok & ~zero
        errors = np.full(len(keep), np.nan)
        with np.errstate(over="ignore"):  # a subnormal measured D overflows the ratio
            errors[scored] = metrics.relative_error(measured[scored], predicted[scored])
        overflow = scored & ~np.isfinite(errors)
        errors[overflow] = np.nan
        scored &= ~overflow
        path = outdir / f"relative_error_{model_id}.csv"
        data.write_csv(
            path,
            ("id", "D_measured_m", "D_predicted_m", "relative_error_pct", "status"),
            [ids[keep], measured, predicted, errors,
             np.select([zero, overflow], ["zero_measured", "error_overflow"], status)],
            "\n")
        outputs.append(path)
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
    data.write_csv(outdir / "cumulative_frequency.csv", ("threshold_pct",) + displacement.MODEL_IDS,
                   [grid, *fractions], "\n")
    outputs.append(outdir / "cumulative_frequency.csv")
    _write_manifest(outdir, args, inputs, outputs)
    return 0


def cmd_sensitivity(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
    # ln_D_m is NaN (a blank cell) where the status is not ok
    data.write_csv(outdir / "sensitivity.csv", header,
                   [*leading, values, result.value, result.status], "\n")
    _write_manifest(outdir, args, [], [outdir / "sensitivity.csv"])
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
    records, inputs, outputs, _ = _open_run(args, 0)
    X, y = data.regression_arrays(records)
    outdir = _start_output(args, records)
    del records  # the engine reads only X, y; the ids need not stay alive while it runs

    cells = evolution.sweep(X, y, config, gene_grid, head_grid)
    data.write_csv(
        outdir / "sweep.csv", ("genes", "head", "fitness"),
        [[c.num_genes for c in cells], [c.head_size for c in cells], [c.fitness for c in cells]],
        "\n")
    best = max(cells, key=lambda c: c.fitness)
    _write_json(
        outdir / "sweep_argmax.json",
        {"genes": best.num_genes, "head": best.head_size, "fitness": best.fitness},
    )
    outputs += [outdir / "sweep.csv", outdir / "sweep_argmax.json"]
    timings = {stage: sum(c.timings_s[stage] for c in cells) for stage in evolution.STAGES}
    _write_manifest(outdir, args, inputs, outputs, dataclasses.asdict(config),
                    timings_s=timings, workers=evolution.sweep_workers(len(cells)))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
