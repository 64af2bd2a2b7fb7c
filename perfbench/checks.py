"""Independent checks of the artifacts each CLI command writes.

Nothing here imports embgep.  Inputs are read back from the CSV the
command saw; the gep relationship is evaluated in exact rational arithmetic
at the same float inputs the program sees (``a_y / a_max`` and
``T_d / T_p`` divided in floating point); K-expressions are decoded by a
breadth-first reader of the text format; moments use ``math.fsum``.

Every check returns a list of problems; an empty list means the artifacts
are correct.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

POLE_RATIO = Fraction("7.052") / Fraction("5.55")
POLE_EPS = Fraction(1, 1000)
# database means, the sensitivity anchors of the published relationship
ANCHOR_AY_RATIO = 0.770
ANCHOR_PERIOD_RATIO = 1.435

PARAMETERS = ("Mw", "amax", "Tp", "Td", "ay", "ay_ratio", "period_ratio", "D")

MODEL_IDS = ("gep", "hynes_griffin", "ambraseys_menu", "jibson", "saygili_rathje",
             "madiai", "tsai_chien")

# published applied ranges: quantity -> (low, high), closed, None = open side
APPLIED_RANGES = {
    "gep": {},
    "hynes_griffin": {"Mw": (None, 8.0), "ay_ratio": (0.01, 0.6)},
    "ambraseys_menu": {"Mw": (6.6, 7.2), "ay_ratio": (0.05, 0.95)},
    "jibson": {"Mw": (5.3, 7.6), "ay": (0.05, 0.4), "ay_ratio": (None, 1.0)},
    "saygili_rathje": {"Mw": (4.5, 7.9), "amax": (None, 1.0), "ay": (0.05, 0.3),
                       "ay_ratio": (0.05, 1.0)},
    "madiai": {"ay_ratio": (0.1, 0.9)},
    "tsai_chien": {"Mw": (5.9, 7.6), "amax": (None, 0.3)},
}

REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_cases(path: Path) -> list[dict]:
    """Case histories of an input CSV with the derived ratios."""
    cases = []
    for row in read_rows(path):
        case = {
            "id": row["id"], "Mw": float(row["Mw"]), "amax": float(row["amax_g"]),
            "Tp": float(row["Tp_s"]), "Td": float(row["Td_s"]), "ay": float(row["ay_g"]),
            "D": float(row["D_m"]),
        }
        case["ay_ratio"] = case["ay"] / case["amax"]
        case["period_ratio"] = case["Td"] / case["Tp"]
        cases.append(case)
    return cases


def gep_exact(m_w: float, ay_ratio: float, period_ratio: float) -> Fraction:
    """ln D (m) of the published relationship, exactly, at float inputs."""
    mw, x, r = Fraction(m_w), Fraction(ay_ratio), Fraction(period_ratio)
    return (Fraction("6.524") * mw / (mw * x**4 + Fraction("7.864"))
            + (x * r - r * r) / (Fraction("5.55") * r - Fraction("7.052"))
            + Fraction("3.647") / (mw * mw)
            + x * r - x - r - Fraction("5.098"))


def near_pole(period_ratio: float) -> bool:
    return abs(Fraction(period_ratio) - POLE_RATIO) < POLE_EPS


def mean_sd(values) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, sd


class GepOracle:
    """Exact ln D per case id, computed once per input file."""

    def __init__(self, cases):
        self.cases = {c["id"]: c for c in cases}
        self._cache: dict[str, float | None] = {}

    def ln_d(self, case_id: str) -> float | None:
        """Exact value rounded to float, None for a pole row."""
        if case_id not in self._cache:
            c = self.cases[case_id]
            self._cache[case_id] = (None if near_pole(c["period_ratio"]) else
                                    float(gep_exact(c["Mw"], c["ay_ratio"], c["period_ratio"])))
        return self._cache[case_id]


# ---------------------------------------------------------------------------
# table commands


def check_stats(outdir: Path, cases) -> list[str]:
    problems = []
    columns = {p: [c[p] for c in cases] for p in PARAMETERS}
    summary = {r["parameter"]: r for r in read_rows(outdir / "summary.csv")}
    if tuple(summary) != PARAMETERS:
        return [f"summary.csv parameters {tuple(summary)} != {PARAMETERS}"]
    for p, values in columns.items():
        row = summary[p]
        mean, sd = mean_sd(values)
        expected = {"min": min(values), "max": max(values), "mean": mean, "sd": sd}
        for key, want in expected.items():
            if not close(float(row[key]), want):
                problems.append(f"summary {p}.{key} = {row[key]}, recomputed {want!r}")
    corr = read_rows(outdir / "correlations.csv")
    centred = {}
    for p, values in columns.items():
        mean = math.fsum(values) / len(values)
        centred[p] = [v - mean for v in values]
    for i, row in enumerate(corr):
        a = PARAMETERS[i]
        for b in PARAMETERS[:i]:
            da, db = centred[a], centred[b]
            want = math.fsum(x * y for x, y in zip(da, db)) / math.sqrt(
                math.fsum(x * x for x in da) * math.fsum(y * y for y in db))
            if not close(float(row[b]), want):
                problems.append(f"correlation {a}/{b} = {row[b]}, recomputed {want!r}")
    return problems


def check_split(outdir: Path, cases, fraction: float, trials: int) -> list[str]:
    problems = []
    split = json.loads((outdir / "split.json").read_text(encoding="utf-8"))
    train, test = split["train_ids"], split["test_ids"]
    ids = [c["id"] for c in cases]
    if sorted(train + test) != sorted(ids):
        problems.append("train and test ids do not partition the input ids")
        return problems
    k = min(max(math.floor(fraction * len(ids)), 1), len(ids) - 1)
    if (split["n_train"], split["n_test"]) != (k, len(ids) - k) or len(train) != k:
        problems.append(f"split sizes {split['n_train']}/{split['n_test']}, expected "
                        f"{k}/{len(ids) - k}")
    if split["trials"] != trials or split["fraction"] != fraction:
        problems.append("split.json does not echo the requested trials and fraction")
    by_id = {c["id"]: c for c in cases}
    terms = []
    for p in PARAMETERS:
        full = [c[p] for c in cases]
        span = max(full) - min(full)
        if span <= 0:
            continue
        tr_mean, tr_sd = mean_sd([by_id[i][p] for i in train])
        te_mean, te_sd = mean_sd([by_id[i][p] for i in test])
        terms.append((abs(tr_mean - te_mean) + abs(tr_sd - te_sd)) / span)
    score = math.fsum(terms)
    if not close(split["score"], score):
        problems.append(f"split score {split['score']!r}, recomputed {score!r}")
    for name, wanted in (("train.csv", train), ("test.csv", test)):
        got = [r["id"] for r in read_rows(outdir / name)]
        if got != wanted:
            problems.append(f"{name} ids differ from split.json")
    return problems


def check_predict(outdir: Path, cases, oracle: GepOracle) -> list[str]:
    problems = []
    rows = read_rows(outdir / "predictions.csv")
    if [r["id"] for r in rows] != [c["id"] for c in cases]:
        return ["predictions.csv does not list every input row in order"]
    for row in rows:
        want = oracle.ln_d(row["id"])
        if want is None:
            if row["status"] != "pole" or row["value"] != "":
                problems.append(f"{row['id']}: pole row not marked pole")
            continue
        if row["status"] != "ok" or row["scale"] != "ln_D_m":
            problems.append(f"{row['id']}: status {row['status']}, scale {row['scale']}")
            continue
        value = float(row["value"])
        if not close(value, want) or not close(float(row["D_m"]), math.exp(value)):
            problems.append(f"{row['id']}: ln D {row['value']}, exact {want!r}")
    return problems


def in_applied_range(model_id: str, case) -> bool:
    for quantity, (lo, hi) in APPLIED_RANGES[model_id].items():
        v = case[quantity]
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            return False
    return True


def check_compare(outdir: Path, cases, oracle: GepOracle) -> list[str]:
    problems = []
    for model_id in MODEL_IDS:
        rows = read_rows(outdir / f"relative_error_{model_id}.csv")
        wanted = [c["id"] for c in cases if in_applied_range(model_id, c)]
        if [r["id"] for r in rows] != wanted:
            problems.append(f"{model_id}: rows differ from the published applied range")
            continue
        for row in rows:
            case = oracle.cases[row["id"]]
            if float(row["D_measured_m"]) != case["D"]:
                problems.append(f"{model_id} {row['id']}: D_measured differs from the input")
            if model_id == "gep":
                want = oracle.ln_d(row["id"])
                if want is None:
                    if row["status"] != "pole":
                        problems.append(f"gep {row['id']}: pole row not marked pole")
                elif row["status"] != "ok" or not close(float(row["D_predicted_m"]),
                                                        math.exp(want)):
                    problems.append(f"gep {row['id']}: {row['status']} D "
                                    f"{row['D_predicted_m']}, exact {math.exp(want)!r}")
            if row["status"] == "ok":
                dm, dp = float(row["D_measured_m"]), float(row["D_predicted_m"])
                if not close(float(row["relative_error_pct"]), (dp - dm) / dm * 100.0):
                    problems.append(f"{model_id} {row['id']}: relative error does not match "
                                    "its own columns")
    cum = read_rows(outdir / "cumulative_frequency.csv")
    for column in ("threshold_pct",) + MODEL_IDS:
        values = [float(r[column]) for r in cum if r[column] != ""]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"cumulative_frequency {column} decreases")
        if column != "threshold_pct" and any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"cumulative_frequency {column} leaves [0, 1]")
    return problems


def check_sensitivity(outdir: Path, start: float, stop: float, steps: int) -> list[str]:
    """Mw curve at the database-mean anchors; the Mw = 0 row must be marked."""
    rows = read_rows(outdir / "sensitivity.csv")
    if len(rows) != steps or float(rows[0]["value"]) != start or not close(
            float(rows[-1]["value"]), stop):
        return [f"sensitivity grid is not {steps} points from {start} to {stop}"]
    problems = []
    for row in rows:
        m_w = float(row["value"])
        if m_w == 0.0:
            if row["status"] == "ok" or row["ln_D_m"] != "":
                problems.append("Mw = 0 row is not marked")
            continue
        want = float(gep_exact(m_w, ANCHOR_AY_RATIO, ANCHOR_PERIOD_RATIO))
        if row["status"] != "ok" or not close(float(row["ln_D_m"]), want):
            problems.append(f"Mw = {m_w}: ln D {row['ln_D_m']}, exact {want!r}")
    return problems


# ---------------------------------------------------------------------------
# GEP commands


def _decode(tokens: list[str]) -> dict[int, tuple[int, int]]:
    """Breadth-first Karva reading: children of each function position."""
    children = {}
    next_free = 1
    i = 0
    while i < next_free:
        if tokens[i] in "+-*/":
            children[i] = (next_free, next_free + 1)
            next_free += 2
        i += 1
    return children


class _NonFinite(ArithmeticError):
    """A node's value is not finite; the whole row is then NaN."""


def _gene_value(tokens, children, constants, x) -> float:
    def value(i):
        tok = tokens[i]
        if tok[0] == "d":
            return x[int(tok[1:])]
        if tok[0] == "c":
            return constants[int(tok[1:])]
        a, b = value(children[i][0]), value(children[i][1])
        if tok == "+":
            v = a + b
        elif tok == "-":
            v = a - b
        elif tok == "*":
            v = a * b
        elif b == 0.0:
            raise _NonFinite
        else:
            v = a / b
        if not math.isfinite(v):
            raise _NonFinite
        return v

    return value(0)


def read_kexpr(path: Path):
    genes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        sym, _, const = line.partition("|")
        tokens = sym.split()
        genes.append((tokens, _decode(tokens), [float(c) for c in const.split()]))
    return genes


def kexpr_predict(genes, case) -> float:
    """Chromosome value (genes linked by +); NaN when any node is non-finite."""
    x = (case["Mw"], case["ay_ratio"], case["period_ratio"])
    total = 0.0
    try:
        for tokens, children, constants in genes:
            total += _gene_value(tokens, children, constants, x)
    except (_NonFinite, OverflowError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def _fit_scores(genes, cases) -> tuple[int, float, float]:
    pairs = [(math.log(c["D"]), kexpr_predict(genes, c)) for c in cases]
    pairs = [(y, p) for y, p in pairs if math.isfinite(p)]
    ys = [y for y, _ in pairs]
    mean = math.fsum(ys) / len(ys)
    sse = math.fsum((y - p) ** 2 for y, p in pairs)
    sst = math.fsum((y - mean) ** 2 for y in ys)
    return len(pairs), 1.0 - sse / sst, math.sqrt(sse / len(pairs))


def check_fit(outdir: Path, cases, generations: int) -> list[str]:
    problems = []
    report = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
    by_id = {c["id"]: c for c in cases}
    train = [by_id[i] for i in report["split"]["train_ids"]]
    test = [by_id[i] for i in report["split"]["test_ids"]]
    if (len(train), len(test)) != (63, 22):
        problems.append(f"split is {len(train)}/{len(test)}, not 63/22")
    if report["generations_run"] != generations:
        problems.append(f"{report['generations_run']} generations run, expected {generations}")
    genes = read_kexpr(outdir / "best.kexpr")
    preds = [kexpr_predict(genes, c) for c in train]
    if not all(math.isfinite(p) for p in preds):
        problems.append("best.kexpr is non-finite on a training row")
        return problems
    rmse = math.sqrt(math.fsum((p - math.log(c["D"])) ** 2 for p, c in zip(preds, train))
                     / len(train))
    if not close(report["best_rmse"], rmse):
        problems.append(f"best_rmse {report['best_rmse']!r}, recomputed {rmse!r}")
    if not close(report["best_fitness"], 1000.0 / (1.0 + rmse)):
        problems.append(f"best_fitness {report['best_fitness']!r} != 1000/(1+rmse)")
    stages = {"Training": train, "Validation": test, "All data": cases}
    for row in read_rows(outdir / "metrics.csv"):
        n_used, r2, stage_rmse = _fit_scores(genes, stages[row["stage"]])
        if int(row["n_used"]) != n_used or not close(float(row["r_squared"]), r2) or not close(
                float(row["rmse"]), stage_rmse):
            problems.append(f"metrics.csv {row['stage']}: R2/RMSE do not match best.kexpr")
    best = [float(r["best_fitness"]) for r in read_rows(outdir / "history.csv")]
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append("history.csv best fitness decreases")
    if not best or best[-1] != report["best_fitness"]:
        problems.append("history.csv does not end at best_fitness")
    return problems


def check_sweep(outdir: Path, genes: range, heads: range) -> list[str]:
    problems = []
    rows = read_rows(outdir / "sweep.csv")
    cells = [(int(r["genes"]), int(r["head"])) for r in rows]
    if sorted(cells) != sorted((g, h) for g in genes for h in heads) or len(set(cells)) != len(
            cells):
        problems.append("sweep.csv does not cover each grid cell once")
    fitness = [float(r["fitness"]) for r in rows]
    if any(not 0.0 <= f <= 1000.0 for f in fitness):
        problems.append("sweep fitness outside [0, 1000]")
    argmax = json.loads((outdir / "sweep_argmax.json").read_text(encoding="utf-8"))
    best = rows[fitness.index(max(fitness))]
    if (argmax["genes"], argmax["head"], argmax["fitness"]) != (
            int(best["genes"]), int(best["head"]), float(best["fitness"])):
        problems.append("sweep_argmax.json does not match the best sweep.csv row")
    return problems
