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
import csv
import dataclasses
import hashlib
import json
import platform
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# the GEP engine (evolution, karva, kernels) is imported only by the
# commands that evolve, so the closed-form commands never load it
from . import data, displacement, metrics

SYNTH_DEFAULT_N = 85


# ---------------------------------------------------------------------------
# small IO helpers


def _cells(column) -> list[str]:
    """The CSV cells of one column, formatted by its numpy dtype: floats as
    ``repr`` and empty where NaN (undefined), bools as true/false, anything
    else as ``str``.  A list or tuple of strings is written as it is, without
    a fixed-width string array as wide as its longest item."""
    if isinstance(column, (list, tuple)) and column and isinstance(column[0], str):
        return list(column)
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return data.float_cells(column)
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    return list(map(str, column.tolist()))


def _write_csv(path: Path, header, columns) -> None:
    """One CSV file from equal-length columns, each formatted whole."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns)))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(outdir: Path, command: str, args: argparse.Namespace,
                    inputs: list[Path], outputs: list[Path],
                    config_snapshot: dict | None = None, **run_facts) -> None:
    """``manifest.json``: the command, its options, seed and config, input
    and output digests, and facts of this run that vary between hosts or
    reruns: the time, the Python and numpy versions, and ``run_facts``."""
    options = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func"
    }
    manifest = {
        "command": command,
        "options": options,
        "seed": getattr(args, "seed", None),
        "config": config_snapshot,
        "inputs": {str(p): f"sha256:{_sha256(p)}" for p in inputs},
        "outputs": {p.name: f"sha256:{_sha256(p)}" for p in sorted(outputs)},
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        **run_facts,
    }
    _write_json(outdir / "manifest.json", manifest)


def _load_records(args, outdir: Path, rng_pool: list) -> tuple[data.CaseTable, list[Path], list[Path]]:
    """Records from --input, or a synthetic database written to the out dir.

    Always consumes one reserved stream from ``rng_pool`` so later pops see
    the same streams whichever data source was chosen.
    """
    synth_rng = rng_pool.pop(0)
    if args.input is not None:
        path = Path(args.input)
        records = data.load(path)
        if not records:
            raise data.DatasetError("empty dataset")
        return records, [path], []
    records = data.synthesize(data.EMBANKMENT_SUMMARY, args.synth, synth_rng)
    synth_path = outdir / "synthetic_input.csv"
    data.save(records, synth_path)
    return records, [], [synth_path]


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args):
    from . import evolution

    if getattr(args, "config", None):
        config = evolution.read_config_file(args.config)
    else:
        config = evolution.GepConfig()
    if config.num_inputs != 3:
        raise evolution.ConfigError(
            f"number_of_inputs = {config.num_inputs}: the CLI fits 3 features (Mw, ay/amax, Td/Tp)"
        )
    config = dataclasses.replace(config, rng_seed=args.seed)
    if getattr(args, "max_generations", None) is not None:
        config = dataclasses.replace(config, max_generations=args.max_generations)
    return config


# ---------------------------------------------------------------------------
# commands


def cmd_stats(args) -> int:
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 1)
    records, inputs, outputs = _load_records(args, outdir, rngs)

    summary = data.summarize(records)
    stats = list(summary.values())
    _write_csv(
        outdir / "summary.csv",
        ("parameter", "min", "max", "mean", "sd"),
        [list(summary), [s.minimum for s in stats], [s.maximum for s in stats],
         [s.mean for s in stats], [s.sd for s in stats]],
    )

    mat = data._matrix(records)
    columns = {name: mat[:, j] for j, name in enumerate(data.PARAMETERS)}
    names, corr = metrics.correlation_matrix(columns)
    lower = np.where(np.tri(len(names), dtype=bool), corr, np.nan)  # NaN cells are left blank
    _write_csv(outdir / "correlations.csv", ("parameter",) + names, [names, *lower.T])

    outputs += [outdir / "summary.csv", outdir / "correlations.csv"]
    _write_manifest(outdir, "stats", args, inputs, outputs)
    return 0


def cmd_split(args) -> int:
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 2)
    records, inputs, outputs = _load_records(args, outdir, rngs)

    split = data.split_matched(records, args.fraction, args.trials, rngs.pop(0))
    train, test = data.split_records(records, split)
    data.save(train, outdir / "train.csv")
    data.save(test, outdir / "test.csv")
    _write_json(
        outdir / "split.json",
        {
            "fraction": args.fraction,
            "trials": args.trials,
            "score": split.score,
            "n_train": len(train),
            "n_test": len(test),
            "train_ids": list(split.train_ids),
            "test_ids": list(split.test_ids),
        },
    )
    outputs += [outdir / "train.csv", outdir / "test.csv", outdir / "split.json"]
    _write_manifest(outdir, "split", args, inputs, outputs)
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
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 3)
    records, inputs, outputs = _load_records(args, outdir, rngs)
    if args.config:
        inputs.append(Path(args.config))

    split = data.split_matched(records, 0.75, args.trials, rngs.pop(0))
    train, test = data.split_records(records, split)
    stages = {stage: _stage_arrays(stage, rows)
              for stage, rows in (("Training", train), ("Validation", test), ("All data", records))}
    result = evolution.run(config, *stages["Training"], rngs.pop(0))

    best_text = karva.kexpr_text(result.best_codes, result.best_pools, config.num_inputs)
    (outdir / "best.kexpr").write_text(best_text, encoding="utf-8")
    best = result.report.per_generation_best
    _write_csv(
        outdir / "history.csv",
        ("generation", "best_fitness", "mean_fitness", "evaluations", "zero_fitness"),
        [range(1, len(best) + 1), best, result.mean_history, result.evaluation_history,
         result.zero_fitness_history],
    )

    predicted = {stage: kernels.evaluate_codes(result.best_codes, result.best_pools, X,
                                               config.num_inputs)
                 for stage, (X, _) in stages.items()}
    stage_rows = [_stage_metrics(stage, y, predicted[stage]) for stage, (_, y) in stages.items()]
    header = ("stage", "n", "n_used", "space", "r_squared", "mae_paper",
              "mae_conventional", "rmse", "scatter_index", "bias")
    _write_csv(outdir / "metrics.csv", header, [[row[k] for row in stage_rows] for k in header])

    y_all, preds_all = stages["All data"][1], predicted["All data"]
    finite = np.isfinite(preds_all)
    residual_info = None
    if int(finite.sum()) >= 2:
        summary = metrics.residual_summary(metrics.PredictionSet(y_all[finite], preds_all[finite]))
        _write_csv(
            outdir / "residual_histogram.csv",
            ("bin_low", "bin_high", "count"),
            [summary.bin_edges[:-1], summary.bin_edges[1:], summary.counts],
        )
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
            "split": {"train_ids": list(split.train_ids), "test_ids": list(split.test_ids),
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
    _write_manifest(outdir, "fit", args, inputs, outputs, dataclasses.asdict(config),
                    timings_s=result.timings_s)
    return 0


def cmd_predict(args) -> int:
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 1)
    records, inputs, outputs = _load_records(args, outdir, rngs)

    result = displacement.evaluate(args.model, records.model_columns(), args.pole_eps,
                                   args.ambraseys_cm)
    ok = result.status == "ok"
    _write_csv(
        outdir / "predictions.csv",
        ("id", "model", "value", "scale", "D_m", "in_range", "status"),
        [records.ids, [args.model] * len(records), result.value,
         np.where(ok, result.scale, ""), result.d_m, result.in_range, result.status],
    )
    outputs.append(outdir / "predictions.csv")
    _write_manifest(outdir, "predict", args, inputs, outputs)
    return 0


def cmd_compare(args) -> int:
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 1)
    records, inputs, outputs = _load_records(args, outdir, rngs)

    columns = records.model_columns()
    measured_cells = data.float_cells(records.d)  # the same cells in every model's table
    errors_by_model: dict[str, np.ndarray] = {}
    for model_id in displacement.MODEL_IDS:
        result = displacement.evaluate(model_id, columns, args.pole_eps, args.ambraseys_cm)
        keep = np.flatnonzero(result.in_range)  # each model is compared in its applied range
        kept = keep.tolist()
        measured, predicted = records.d[keep], result.d_m[keep]
        status = result.status[keep]
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
        _write_csv(
            path,
            ("id", "D_measured_m", "D_predicted_m", "relative_error_pct", "status"),
            [[records.ids[i] for i in kept], [measured_cells[i] for i in kept], predicted,
             errors, np.select([zero, overflow], ["zero_measured", "error_overflow"], status)],
        )
        outputs.append(path)
        if scored.any():
            errors_by_model[model_id] = errors[scored]

    pooled = np.concatenate([np.empty(0), *errors_by_model.values()])
    grid = np.linspace(pooled.min(), pooled.max(), 101) if pooled.size else np.empty(0)
    fractions = [
        metrics.cumulative_frequency(errors_by_model[model_id], grid)
        if model_id in errors_by_model else np.full(grid.size, np.nan)
        for model_id in displacement.MODEL_IDS
    ]
    _write_csv(
        outdir / "cumulative_frequency.csv",
        ("threshold_pct",) + displacement.MODEL_IDS,
        [grid, *fractions],
    )
    outputs.append(outdir / "cumulative_frequency.csv")
    _write_manifest(outdir, "compare", args, inputs, outputs)
    return 0


def cmd_sensitivity(args) -> int:
    outdir = _outdir(args)
    grid = np.linspace(args.start, args.stop, args.steps)
    if args.family:
        levels = [float(v) for v in args.levels.split(",")] if args.levels else []
        if not levels:
            raise ValueError("family mode needs --levels, e.g. --levels 0.2,0.5,1.0")
        points = [(level, p) for level in levels for p in displacement.sensitivity_profile(
            "Mw", grid, {args.family: level}, args.pole_eps)]
        header = ("family_parameter", "level", "Mw", "ln_D_m", "status")
        leading = [[args.family] * len(points), [level for level, _ in points]]
    else:
        points = [(None, p) for p in displacement.sensitivity_profile(
            args.param, grid, None, args.pole_eps)]
        header = ("parameter", "value", "ln_D_m", "status")
        leading = [[args.param] * len(points)]
    # ln_D_m is a float column, NaN (a blank cell) where the status is not ok
    ln_d = np.array([p.ln_d for _, p in points], dtype=np.float64)
    _write_csv(outdir / "sensitivity.csv", header,
               [*leading, [p.value for _, p in points], ln_d, [p.status for _, p in points]])
    _write_manifest(outdir, "sensitivity", args, [], [outdir / "sensitivity.csv"])
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
    outdir = _outdir(args)
    rngs = _spawn_rngs(args.seed, 1)
    records, inputs, outputs = _load_records(args, outdir, rngs)
    if args.config:
        inputs.append(Path(args.config))
    X, y = data.regression_arrays(records)

    cells = evolution.sweep(X, y, config, gene_grid, head_grid)
    _write_csv(
        outdir / "sweep.csv",
        ("genes", "head", "fitness"),
        [[c.num_genes for c in cells], [c.head_size for c in cells], [c.fitness for c in cells]],
    )
    best = max(cells, key=lambda c: c.fitness)
    _write_json(
        outdir / "sweep_argmax.json",
        {"genes": best.num_genes, "head": best.head_size, "fitness": best.fitness},
    )
    outputs += [outdir / "sweep.csv", outdir / "sweep_argmax.json"]
    timings = {stage: sum(c.timings_s[stage] for c in cells) for stage in evolution.STAGES}
    _write_manifest(outdir, "sweep", args, inputs, outputs, dataclasses.asdict(config),
                    timings_s=timings, workers=evolution.sweep_workers(len(cells)))
    return 0


# ---------------------------------------------------------------------------
# parser


def _pole_eps(text: str) -> float:
    value = float(text)
    if not value > 0.0:  # 0 or NaN would turn the pole check off
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser, with_data: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    if with_data:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="case-history CSV")
        group.add_argument(
            "--synth",
            type=int,
            nargs="?",
            const=SYNTH_DEFAULT_N,
            help=f"generate a synthetic database of N records (default {SYNTH_DEFAULT_N})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embgep",
        description="GEP engine and displacement models for earth embankments under earthquakes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stats", help="summary statistics and correlation table")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("split", help="statistically matched train/test split")
    _add_common(p)
    p.add_argument("--fraction", type=float, default=0.75)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("fit", help="train a GEP model on ln D targets")
    _add_common(p)
    p.add_argument("--config", help="evolution parameter file")
    p.add_argument("--trials", type=int, default=1000, help="matched-split trials")
    p.add_argument("--max-generations", type=int, default=None,
                   help="override the config's generation budget")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("predict", help="run one registered relationship over a dataset")
    _add_common(p)
    p.add_argument("--model", required=True, choices=displacement.MODEL_IDS)
    p.add_argument("--pole-eps", type=_pole_eps, default=displacement.DEFAULT_POLE_EPS)
    p.add_argument("--ambraseys-cm", action="store_true",
                   help="treat the Ambraseys-Menu value as log10 of centimeters")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("compare", help="relative errors per relationship, applied ranges only")
    _add_common(p)
    p.add_argument("--pole-eps", type=_pole_eps, default=displacement.DEFAULT_POLE_EPS)
    p.add_argument("--ambraseys-cm", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("sensitivity", help="ln D curves from the gep relationship")
    _add_common(p, with_data=False)
    p.add_argument("--param", choices=displacement.SENSITIVITY_PARAMS, default="Mw")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--family", choices=("ay_ratio", "period_ratio"),
                   help="vary Mw at fixed levels of this parameter")
    p.add_argument("--levels", help="comma-separated family levels")
    p.add_argument("--pole-eps", type=_pole_eps, default=displacement.DEFAULT_POLE_EPS)
    p.set_defaults(func=cmd_sensitivity)

    p = subs.add_parser("sweep", help="fitness surface over gene count and head size")
    _add_common(p)
    p.add_argument("--genes", default="1:6", help="grid, e.g. 1:6 or 1,2,4")
    p.add_argument("--heads", default="4:12", help="grid, e.g. 4:12 or 5,7,9")
    p.add_argument("--config", help="evolution parameter file")
    p.add_argument("--max-generations", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
