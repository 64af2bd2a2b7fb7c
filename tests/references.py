"""Row-by-row references for the columnar closed-form layer and loader.

``reference_row`` is the reference for ``displacement.evaluate``.  Each
relationship is written out as a scalar function with its own domain
checks, and one ``if`` chain dispatches them, as the closed-form layer did
before the model table.  ``reference_row`` labels one row the way
``evaluate`` must: the first failing check sets the status, an overflow or
a division by zero in a formula is ``domain_error``, and so is a value or a
meter conversion that is not finite.

``reference_parse_column`` and ``reference_load`` are the cell-by-cell and
row-by-row references for the loader, and ``reference_split_ids`` is the
one-trial-at-a-time reference for the matched split.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from embgep.data import CSV_HEADER, CaseTable, DatasetError, match_score


class Pole(Exception):
    pass


class Domain(Exception):
    pass


class Missing(Exception):
    pass


POLE = 7.052 / 5.55

BOUNDS = {
    "gep": {},
    "hynes_griffin": {"m_w": (None, 8.0), "ay_ratio": (0.01, 0.6)},
    "ambraseys_menu": {"m_w": (6.6, 7.2), "ay_ratio": (0.05, 0.95)},
    "jibson": {"m_w": (5.3, 7.6), "a_y": (0.05, 0.4), "ay_ratio": (None, 1.0)},
    "saygili_rathje": {"m_w": (4.5, 7.9), "a_max": (None, 1.0), "a_y": (0.05, 0.3),
                       "ay_ratio": (0.05, 1.0)},
    "madiai": {"ay_ratio": (0.1, 0.9)},
    "tsai_chien": {"m_w": (5.9, 7.6), "a_max": (None, 0.3)},
}


def in_range(model_id: str, row: dict) -> bool:
    for name, (lo, hi) in BOUNDS[model_id].items():
        value = row[name]
        if value is None:
            continue
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return False
    return True


def gep(m_w, x, r, eps):
    for v in (m_w, x, r):
        if not math.isfinite(v):
            raise Domain
    if m_w == 0.0 or x < 0.0 or r < 0.0:
        raise Domain
    if abs(r - POLE) < eps:
        raise Pole
    term1 = 6.524 * m_w / (m_w * x**4 + 7.864)
    term2 = (x * r - r**2) / (5.55 * r - 7.052)
    term3 = 3.647 / m_w**2
    term4 = x * r - x - r - 5.098
    return term1 + term2 + term3 + term4


def open_unit(x):
    if not 0.0 < x < 1.0:
        raise Domain
    return x


def value_and_scale(model_id: str, row: dict, eps: float, cm: bool) -> tuple[float, str]:
    x = row["ay_ratio"]
    if model_id == "gep":
        return gep(row["m_w"], x, row["period_ratio"], eps), "ln_D_m"
    if model_id == "hynes_griffin":
        return -0.287 - 2.854 * x - 1.733 * x**2 - 0.702 * x**3 - 0.116 * x**4, "log10_D_cm"
    if model_id == "ambraseys_menu":
        x = open_unit(x)
        value = 0.9 + math.log10((1.0 - x) ** 2.53 * x**-1.09)
        return value, "log10_D_cm" if cm else "log10_D_m"
    if model_id == "jibson":
        x = open_unit(x)
        return -0.215 + math.log10((1.0 - x) ** 2.341 * x**-1.438), "log10_D_cm"
    if model_id == "saygili_rathje":
        if not row["a_max"] > 0:
            raise Domain
        return (5.52 + 0.72 * math.log(row["a_max"]) - 4.43 * x - 20.93 * x**2
                + 42.61 * x**3 - 28.74 * x**4), "ln_D_cm"
    if model_id == "madiai":
        x = open_unit(x)
        return -0.418 - 0.857 * math.log10(x) + 2.26 * math.log10(1.0 - x), "log10_D_cm"
    if model_id == "tsai_chien":
        t_m = row["t_m"]
        if t_m is None:
            raise Missing
        if not row["a_max"] > 0 or not t_m > 0:
            raise Domain
        return (6.4 - 8.374 * x - 0.419 * x**2 + 6.366 * x**3 - 7.031 * x**4
                + 0.767 * math.log(row["a_max"]) + 1.757 * math.log(t_m)), "ln_D_cm"
    raise ValueError(model_id)


def to_meters(value: float, scale: str) -> float:
    try:
        if scale == "ln_D_m":
            return math.exp(value)
        if scale == "ln_D_cm":
            return math.exp(value) / 100.0
        if scale == "log10_D_m":
            return 10.0 ** value
        return 10.0 ** value / 100.0
    except OverflowError:
        return math.inf


def reference_row(model_id: str, row: dict, eps: float, cm: bool = False):
    """(value, D_m, in_range, status) of one row; value and D_m are NaN
    unless the status is ``ok``.  ``row`` holds m_w, a_max, a_y, ay_ratio,
    period_ratio and t_m (None when missing)."""
    status = "ok"
    try:
        value, scale = value_and_scale(model_id, row, eps, cm)
        d_m = to_meters(value, scale)
        if not (math.isfinite(value) and math.isfinite(d_m)):
            status = "domain_error"
    except Pole:
        status = "pole"
    except Missing:
        status = "missing_input"
    except (Domain, OverflowError, ZeroDivisionError):
        status = "domain_error"
    if status != "ok":
        value = d_m = math.nan
    return value, d_m, in_range(model_id, row), status


def reference_parse_column(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``data._parse_column`` one cell at a time: the float64 values (NaN
    where empty), the empty cells and the cells that are not numbers."""
    values = np.full(len(cells), np.nan)
    empty = np.zeros(len(cells), dtype=bool)
    unparsed = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        cell = cell.strip()
        if not cell:
            empty[i] = True
            continue
        try:
            values[i] = float(cell)
        except ValueError:
            unparsed[i] = True
    return values, empty, unparsed


def reference_split_ids(table: CaseTable, fraction: float, trials: int,
                        rng: np.random.Generator) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The train and test ids of ``data.split_matched``, one trial at a time:
    each trial draws one uniform per row, fully sorts the draws and trains
    on the rows of the k smallest; the first trial with the least
    ``match_score`` against the whole table wins."""
    n = len(table)
    k = min(max(int(math.floor(fraction * n)), 1), n - 1)
    best = None
    for _ in range(trials):
        perm = np.argsort(rng.random(n))
        train, test = np.sort(perm[:k]), np.sort(perm[k:])
        score = match_score(table.take(train), table.take(test), table)
        if best is None or score < best[0]:
            best = (score, train, test)
    return tuple(table.ids[i] for i in best[1]), tuple(table.ids[i] for i in best[2])


def parse_float(value: str, column: str, line: int, required: bool):
    """One numeric cell, or None for an empty optional one; the first bad
    cell of a row raises in the loader's words."""
    value = value.strip()
    if value == "":
        if required:
            raise DatasetError(f"line {line}: column {column} must not be empty")
        return None
    try:
        out = float(value)
    except ValueError:
        raise DatasetError(f"line {line}: column {column} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise DatasetError(f"line {line}: column {column} must be finite, got {value!r}")
    return out


def reference_load(path) -> CaseTable:
    """The case-history CSV parsed one row at a time, each cell checked in
    column order and then the row invariants (a_max, T_p > 0; T_d, a_y,
    D >= 0); the reference for ``data.load``'s table and messages.  A
    UTF-8 byte-order mark before the header is skipped."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(h.strip() for h in next(reader, CSV_HEADER)) != CSV_HEADER:
            raise ValueError("reference_load reads the canonical header only")
        ids, rows, seen_ids = [], [], set()
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_HEADER):
                raise DatasetError(f"line {line}: expected {len(CSV_HEADER)} columns, got {len(row)}")
            rec_id = row[0].strip()
            if not rec_id:
                raise DatasetError(f"line {line}: empty id")
            if "\r" in rec_id:
                raise DatasetError(f"line {line}: id {rec_id!r} holds a carriage return")
            if rec_id in seen_ids:
                raise DatasetError(f"line {line}: duplicate id {rec_id!r}")
            seen_ids.add(rec_id)
            m_w = parse_float(row[1], "Mw", line, required=True)
            a_max = parse_float(row[2], "amax_g", line, required=True)
            t_p = parse_float(row[3], "Tp_s", line, required=True)
            t_d = parse_float(row[4], "Td_s", line, required=False)
            a_y = parse_float(row[5], "ay_g", line, required=True)
            d = parse_float(row[6], "D_m", line, required=True)
            t_m = parse_float(row[7], "Tm_s", line, required=False)
            h = parse_float(row[8], "H_m", line, required=False)
            vs = parse_float(row[9], "Vs_mps", line, required=False)
            for name, value in (("Tm_s", t_m), ("H_m", h), ("Vs_mps", vs)):
                if value is not None and not value > 0:
                    raise DatasetError(f"line {line}: column {name} must be positive, got {value}")
            if t_d is None:
                if h is None or vs is None:
                    raise DatasetError(
                        f"line {line}: Td_s is empty and cannot be derived (needs H_m and Vs_mps)"
                    )
                t_d = 4.0 * h / vs
            for value, holds, message in ((a_max, a_max > 0, "a_max must be positive"),
                                          (t_p, t_p > 0, "T_p must be positive"),
                                          (t_d, t_d >= 0, "T_d must be >= 0"),
                                          (a_y, a_y >= 0, "a_y must be >= 0"),
                                          (d, d >= 0, "D must be >= 0")):
                if not holds:
                    raise DatasetError(f"line {line}: {message}, got {value}")
            ids.append(rec_id)
            rows.append([m_w, a_max, t_p, t_d, a_y, d]
                        + [math.nan if v is None else v for v in (t_m, h, vs)])
    return CaseTable(tuple(ids), *(list(zip(*rows)) or [()] * 9))
