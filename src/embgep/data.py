"""Case-history ingestion, summaries, matched train/test splitting and
synthetic-database generation.

CSV schema (header required, UTF-8 with or without a byte-order mark, '.'
decimal separator)::

    id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,Tm_s,H_m,Vs_mps

Optional cells (Td_s, Tm_s, H_m, Vs_mps) may be empty; a blank Td_s is
derived as 4H/Vs when height and shear wave velocity are present.  A set of
case histories is only ever held as a ``CaseTable``, one float64 array per
column: ``load`` and ``synthesize`` return one, ``save``, the summaries and
``regression_arrays`` take one, and the matched split takes one and returns
its training and test rows as two.

The real 85-record database behind the built-in gep relationship is not
publicly available; ``synthesize`` generates surrogate databases whose
statistics track the published summary table (``EMBANKMENT_SUMMARY``), with
displacement produced by the gep relationship plus lognormal noise so the
set carries a learnable signal.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .displacement import _BLOCK_ROWS, DEFAULT_POLE_EPS, POLE_PERIOD_RATIO, evaluate
from .displacement import INVARIANTS as INPUT_INVARIANTS
# re-exported only for the per-layer benchmark tracer, which binds data.gep_ln_displacement
from .displacement import gep_ln_displacement  # noqa: F401

CSV_HEADER = ("id", "Mw", "amax_g", "Tp_s", "Td_s", "ay_g", "D_m", "Tm_s", "H_m", "Vs_mps")

PARAMETERS = ("Mw", "amax", "Tp", "Td", "ay", "ay_ratio", "period_ratio", "D")
# the CaseTable column (or ratio property) of each summary parameter
_PARAMETER_FIELDS = dict(zip(PARAMETERS, ("m_w", "a_max", "t_p", "t_d", "a_y", "ay_ratio",
                                          "period_ratio", "d")))


class DatasetError(ValueError):
    """Malformed dataset file, record or generation target."""


# the row invariants of a case history: those of a model input, then D >= 0
INVARIANTS = INPUT_INVARIANTS + (("d", "D must be >= 0", lambda v: np.logical_not(v >= 0)),)

# the float columns of a case history, in CSV column order; the last three are optional
_FIELDS = ("m_w", "a_max", "t_p", "t_d", "a_y", "d", "t_m", "h", "vs")


@dataclass(frozen=True, eq=False)
class CaseTable:
    """Earth-embankment earthquake records held by column: the ids and one
    contiguous float64 array per field, NaN where an optional value (T_m,
    H, Vs) is absent.  Two tables are equal when their ids and every column
    are, an absent value equal to an absent one."""

    ids: tuple[str, ...]
    m_w: np.ndarray
    a_max: np.ndarray
    t_p: np.ndarray
    t_d: np.ndarray
    a_y: np.ndarray
    d: np.ndarray
    t_m: np.ndarray
    h: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name in _FIELDS:
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=np.float64))

    @classmethod
    def concat(cls, tables) -> CaseTable:
        tables = list(tables) or [cls((), *[()] * len(_FIELDS))]
        return cls(tuple(i for t in tables for i in t.ids),
                   *(np.concatenate([getattr(t, name) for t in tables]) for name in _FIELDS))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, CaseTable):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in _FIELDS)

    def take(self, index) -> CaseTable:
        index = np.asarray(index, dtype=np.intp)
        return CaseTable(tuple(self.ids[i] for i in index.tolist()),
                         *(getattr(self, name)[index] for name in _FIELDS))

    @property
    def ay_ratio(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.a_y / self.a_max

    @property
    def period_ratio(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.t_d / self.t_p

    def parameter_columns(self) -> dict[str, np.ndarray]:
        """The column of each of the summary ``PARAMETERS``, by name: the
        table's own arrays, and the two ratios computed once."""
        return {name: getattr(self, field) for name, field in _PARAMETER_FIELDS.items()}

    def model_columns(self) -> dict[str, np.ndarray]:
        """The input columns of ``displacement.evaluate``."""
        return {"m_w": self.m_w, "a_max": self.a_max, "a_y": self.a_y,
                "ay_ratio": self.ay_ratio, "period_ratio": self.period_ratio, "t_m": self.t_m}


@dataclass(frozen=True)
class ParamStats:
    minimum: float
    maximum: float
    mean: float
    sd: float
    degenerate: bool = False


# published summary statistics of the 85-record database (all-data rows)
EMBANKMENT_SUMMARY: dict[str, ParamStats] = {
    "Mw": ParamStats(4.9, 8.3, 7.091, 0.670),
    "amax": ParamStats(0.06, 0.9, 0.302, 0.177),
    "Tp": ParamStats(0.25, 0.7, 0.377, 0.121),
    "Td": ParamStats(0.05, 1.58, 0.519, 0.398),
    "ay": ParamStats(0.0, 0.55, 0.17, 0.115),
    "ay_ratio": ParamStats(0.0, 3.5, 0.770, 0.704),
    "period_ratio": ParamStats(0.117, 4.0, 1.435, 1.032),
    "D": ParamStats(0.001, 7.696, 1.084, 1.811),
}


def _matrix(table: CaseTable) -> np.ndarray:
    """(n, 8) float64 matrix of PARAMETERS, one row per record."""
    return np.column_stack(list(table.parameter_columns().values()))


# ---------------------------------------------------------------------------
# CSV I/O

# (column, required) of the numeric cells, in file order after the id
_NUMERIC = (("Mw", True), ("amax_g", True), ("Tp_s", True), ("Td_s", False), ("ay_g", True),
            ("D_m", True), ("Tm_s", False), ("H_m", False), ("Vs_mps", False))


def _parse_column(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column of a block: its float64 values (NaN where empty), its
    empty cells and its cells that are not numbers.  numpy converts a str
    with Python's ``float``, which also ignores surrounding whitespace; the
    column is converted whole, or, when it holds a cell that is not a
    number, cell by cell."""
    none = np.zeros(len(cells), dtype=bool)
    try:
        return np.array(cells, dtype=np.float64), none, none
    except ValueError:  # an empty cell or one that is not a number
        pass
    empty = np.array([not cell.strip() for cell in cells], dtype=bool)
    filled = np.flatnonzero(~empty).tolist()
    values = np.full(len(cells), np.nan)
    try:
        values[filled] = np.array([cells[i] for i in filled], dtype=np.float64)
        return values, empty, none
    except ValueError:  # a cell that is not a number
        pass
    unparsed = np.zeros(len(cells), dtype=bool)
    for i in filled:
        try:
            values[i] = float(cells[i])
        except ValueError:
            unparsed[i] = True
    return values, empty, unparsed


def _check(rejected: np.ndarray, message: str, cells=None) -> tuple[np.ndarray, Callable]:
    """A (rejected rows, message of row i) check of ``_parse_block``; the
    message is formatted with row i's cell of ``cells``, a str stripped and
    a number as a Python float."""
    def word(i: int) -> str:
        if cells is None:
            return message
        cell = cells[i]
        return message.format(cell.strip() if isinstance(cell, str) else float(cell))
    return rejected, word


def _parse_block(rows: list[list[str]], lines: list[int], seen: dict[str, None]) -> CaseTable:
    """Rows of one block as a table.  Each check marks the rows it rejects,
    and the checks are listed in the order a row is read: its id, its
    numeric cells in column order, the positive optional columns, the
    derivable T_d and then the row invariants.  The first marked row raises
    the message of its first check; a short row raises only when no earlier
    row is marked.  ``seen``, the ids of the earlier blocks as keys in file
    order, gains the block's ids after them."""
    width = len(CSV_HEADER)
    k = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    cells = list(zip(*rows[:k])) or [()] * width
    ids = [cell.strip() for cell in cells[0]]
    duplicate = np.zeros(k, dtype=bool)
    for i, rec_id in enumerate(ids):
        duplicate[i] = rec_id in seen
        seen[rec_id] = None
    # an id's "\r" would end its row in the "\n"-terminated artifacts, unquoted there
    checks = [_check(np.array([not rec_id for rec_id in ids], dtype=bool), "empty id"),
              _check(np.array(["\r" in rec_id for rec_id in ids], dtype=bool),
                     "id {!r} holds a carriage return", ids),
              _check(duplicate, "duplicate id {!r}", ids)]
    values, empty = {}, {}
    for (column, required), column_cells in zip(_NUMERIC, cells[1:]):
        col, blank, unparsed = _parse_column(column_cells)
        values[column], empty[column] = col, blank
        checks += [
            _check(blank & required, f"column {column} must not be empty"),
            _check(unparsed, f"column {column} is not a number: {{!r}}", column_cells),
            _check(~(np.isfinite(col) | blank | unparsed),
                   f"column {column} must be finite, got {{!r}}", column_cells),
        ]
    checks += [_check(~empty[column] & ~(values[column] > 0),
                      f"column {column} must be positive, got {{}}", values[column])
               for column in ("Tm_s", "H_m", "Vs_mps")]
    checks.append(_check(empty["Td_s"] & (empty["H_m"] | empty["Vs_mps"]),
                         "Td_s is empty and cannot be derived (needs H_m and Vs_mps)"))
    # T_d = 4H/Vs on the rows whose H and Vs passed their checks; a quotient
    # too large for a float is inf, as in Python arithmetic, without a warning
    derive = empty["Td_s"] & ~np.logical_or.reduce([rejected for rejected, _ in checks])
    with np.errstate(over="ignore"):
        values["Td_s"][derive] = 4.0 * values["H_m"][derive] / values["Vs_mps"][derive]
    table = CaseTable(tuple(ids), *(values[column] for column, _ in _NUMERIC))
    checks += [_check(rejects(getattr(table, field)), message + ", got {}", getattr(table, field))
               for field, message, rejects in INVARIANTS]
    marked = np.logical_or.reduce([rejected for rejected, _ in checks])
    if marked.any():
        i = int(np.argmax(marked))
        word = next(word for rejected, word in checks if rejected[i])
        raise DatasetError(f"line {lines[i]}: {word(i)}")
    if k < len(rows):
        raise DatasetError(f"line {lines[k]}: expected {width} columns, got {len(rows[k])}")
    return table


def load(path) -> CaseTable:
    """Parse a case-history CSV in blocks of ``_BLOCK_ROWS`` rows; empty and
    header-only files give an empty table, and a UTF-8 byte-order mark
    before the header is skipped.  An error names the line and the column
    of the first bad cell.  One insertion-ordered dict of the ids read so
    far is both the duplicate check's index and the id column: a duplicate
    raises, so once the last block is parsed its keys are the ids in file
    order.  It is dropped before the columns are joined, and each column is
    joined from its blocks as they are dropped, so the table is never held
    twice."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return CaseTable.concat([])
        header = tuple(h.strip() for h in header)
        if header != CSV_HEADER:
            missing = [c for c in CSV_HEADER if c not in header]
            extra = [c for c in header if c not in CSV_HEADER]
            parts = []
            if missing:
                parts.append(f"missing column(s): {', '.join(missing)}")
            if extra:
                parts.append(f"unexpected column(s): {', '.join(extra)}")
            if not parts:
                parts.append("columns are out of order")
            raise DatasetError(f"bad header ({'; '.join(parts)}); expected {','.join(CSV_HEADER)}")
        seen: dict[str, None] = {}
        columns: dict[str, list[np.ndarray]] = {name: [] for name in _FIELDS}
        for block in _blocks(reader, seen):
            for name in _FIELDS:
                columns[name].append(getattr(block, name))
    ids = tuple(seen)
    del seen
    return CaseTable(ids, *(_joined(columns[name]) for name in _FIELDS))


def _blocks(reader, seen: dict[str, None]) -> Iterator[CaseTable]:
    """The rows after the header, parsed ``_BLOCK_ROWS`` at a time; blank
    lines are skipped.  ``seen`` gains each block's ids, so it finds a
    duplicate across blocks and ends as ``load``'s id column."""
    rows, lines = [], []
    try:
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == _BLOCK_ROWS:
                yield _parse_block(rows, lines, seen)
                rows, lines = [], []
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        if rows:
            _parse_block(rows, lines, seen)  # a bad cell on an earlier line comes first
        raise DatasetError(f"line {reader.line_num}: {exc}") from None
    if rows:
        yield _parse_block(rows, lines, seen)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """One column from its blocks, which are dropped from ``parts``: a
    column's blocks and its whole are the only copy of it alive at once."""
    whole = np.concatenate(parts) if parts else np.empty(0)
    parts.clear()
    return whole


def csv_cells(column) -> list[str]:
    """The CSV cells of one column, formatted by its type: floats as
    ``repr`` and empty where NaN (undefined), bools as true/false, anything
    else as ``str``.  A list or tuple of strings is kept as it is, without a
    fixed-width string array as wide as its longest item."""
    if isinstance(column, (list, tuple)) and column and isinstance(column[0], str):
        return list(column)
    column = np.asarray(column)
    if column.dtype.kind == "b":
        return ["true" if v else "false" for v in column.tolist()]
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    return ["" if v != v else repr(v) for v in column.tolist()]


def write_csv(path, header, columns, lineterminator: str) -> None:
    """One CSV file from a header and equal-length columns, written as
    ``csv.writer`` writes their ``csv_cells`` with that line terminator: a
    cell holding a comma, a double quote or a character of the terminator
    is quoted with its quotes doubled, and so is the empty cell of a
    one-column row.  The rows are formatted, searched for those characters
    and written ``_BLOCK_ROWS`` at a time, each block of a column searched
    once as one string, so no cell list is longer than a block.  A column
    is formatted by the type of each block, so it must hold one type."""
    special = ',"' + lineterminator

    def quoted(cells):
        text = "".join(cells)
        if not any(ch in text for ch in special):
            return cells
        return ['"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in special)
                else cell for cell in cells]

    header = quoted(header)
    if len(header) == 1:
        header = [header[0] or '""']
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + lineterminator)
        for start in range(0, n, _BLOCK_ROWS):
            cells = [quoted(csv_cells(column[start:start + _BLOCK_ROWS])) for column in columns]
            if len(cells) == 1:
                cells = [[cell or '""' for cell in cells[0]]]
            fh.write(lineterminator.join(map(",".join, zip(*cells))) + lineterminator)


def save(table: CaseTable, path) -> None:
    """Write a table in the canonical schema; load(save(x)) round-trips exactly."""
    write_csv(path, CSV_HEADER, [table.ids] + [getattr(table, name) for name in _FIELDS], "\r\n")


# ---------------------------------------------------------------------------
# summaries


def _check_centred(centred, context: str) -> None:
    """Raises ``DatasetError`` naming every parameter whose centred squares
    (or their sum) overflow: such a parameter has no usable mean, SD or
    correlation.  ``centred`` yields (parameter, centred column) pairs, and
    each column is squared on its own."""
    with np.errstate(over="ignore", invalid="ignore"):
        names = [name for name, column in centred if not np.isfinite(np.square(column).sum())]
    if names:
        raise DatasetError(f"{context}: {', '.join(names)} too large to score (their centred"
                           " squares overflow)")


def summarize(columns: dict[str, np.ndarray]) -> dict[str, ParamStats]:
    """Min/max/mean/sample-SD of each column of
    ``CaseTable.parameter_columns``, read in place: no parameter matrix."""
    n = len(columns[PARAMETERS[0]])
    if not n:
        raise DatasetError("empty dataset")
    _check_centred(((name, col - col.mean()) for name, col in columns.items()), "summary")
    out = {}
    for name, col in columns.items():
        sd = float(np.std(col, ddof=1)) if n >= 2 else 0.0
        out[name] = ParamStats(float(col.min()), float(col.max()), float(col.mean()), sd,
                               degenerate=n < 2)
    return out


# ---------------------------------------------------------------------------
# matched splitting


@dataclass(frozen=True)
class Split:
    """The training and test rows of a matched split, each in table order,
    and the split's ``match_score``."""

    train: CaseTable
    test: CaseTable
    score: float


# the (trials, rows) float64 buffer of a split_matched chunk stays under this;
# 1 MiB times the same as 2 MiB on 20 000 rows, and 256 KiB is slower
_SPLIT_CHUNK_BYTES = 2**20


def _gap_score(train: np.ndarray, test: np.ndarray, ranges: np.ndarray) -> float:
    """Sum over parameters with a positive range of (|mean gap| + |SD gap|)
    / range; the SD gap counts only when both sides have at least 2 rows."""
    dmean = np.abs(train.mean(axis=0) - test.mean(axis=0))
    if train.shape[0] >= 2 and test.shape[0] >= 2:
        dsd = np.abs(train.std(axis=0, ddof=1) - test.std(axis=0, ddof=1))
    else:
        dsd = np.zeros_like(dmean)
    valid = ranges > 0
    return float(((dmean + dsd)[valid] / ranges[valid]).sum())


def match_score(train: CaseTable, test: CaseTable, full: CaseTable | None = None) -> float:
    """Sum over parameters of (|mean gap| + |SD gap|) / parameter range; the
    ranges are those of ``full``, or of train and test together."""
    train, test = _matrix(train), _matrix(test)
    full = np.vstack((train, test)) if full is None else _matrix(full)
    ranges = full.max(axis=0) - full.min(axis=0)
    return _gap_score(train, test, ranges)


def split_matched(table: CaseTable, fraction: float = 0.75, trials: int = 1,
                  rng: np.random.Generator | None = None) -> Split:
    """Best of ``trials`` random splits by the normalised moment-matching
    score, as the two tables of its rows.  85 records at the default
    fraction give the published 63/22.

    Trials are screened in chunks without gathering rows: a 0/1 mask of each
    trial's training rows times the column-centred matrix and its squares
    gives the training sums, the column totals less those give the test
    sums, and the moments follow.  One ``(trials, rows)`` buffer of at most
    ``_SPLIT_CHUNK_BYTES`` holds a chunk's draws and then, once they are
    partitioned, its mask.  The winner is rescored with ``match_score``'s
    formula on its two sides' rows of the parameter matrix, which are the
    rows of the two tables it returns, so ``score`` equals
    ``match_score(split.train, split.test)`` exactly.  The screen, the
    rescore and the two tables are never alive at once.
    """
    n = len(table)
    if n < 4:
        raise DatasetError(f"need at least 4 records to split, got {n}")
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must be in (0, 1), got {fraction}")
    if trials < 1:
        raise DatasetError(f"trials must be >= 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    k = int(math.floor(fraction * n))
    k = min(max(k, 1), n - 1)
    chosen, ranges = _best_trial(table, k, trials, rng)
    score = _split_score(table, chosen, ranges)
    return Split(table.take(np.flatnonzero(chosen)), table.take(np.flatnonzero(~chosen)), score)


def _split_score(table: CaseTable, chosen: np.ndarray, ranges: np.ndarray) -> float:
    """``_gap_score`` of the training rows ``chosen`` of the parameter
    matrix against the other rows: the rows, in table order, of the two
    tables of the split."""
    mat = _matrix(table)
    train, test = mat[chosen], mat[~chosen]
    del mat  # the score reads only the two sides' rows
    return _gap_score(train, test, ranges)


def _best_trial(table: CaseTable, k: int, trials: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The training rows of ``split_matched``'s best trial, as a row mask,
    and the range of every parameter.  The parameter matrix is centred in
    place and lives only until its columns with a positive range are
    copied out; nothing of the screen outlives the call."""
    n = len(table)
    mat = _matrix(table)
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = mat.max(axis=0) - mat.min(axis=0)
        mat -= mat.mean(axis=0)
    _check_centred(zip(PARAMETERS, mat.T), "matched split")
    valid = ranges > 0
    centred = mat[:, valid]
    del mat
    squares = np.square(centred)
    centred_total, squares_total = centred.sum(axis=0), squares.sum(axis=0)
    use_sd = k >= 2 and n - k >= 2
    scale = ranges[valid]

    best_score = math.inf
    best = None
    chunk = max(1, _SPLIT_CHUNK_BYTES // (8 * n))
    buffer = np.empty((min(chunk, trials), n))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        mask = buffer[:m]
        _fill_training_mask(mask, k, rng)
        # einsum, not BLAS matmul: a BLAS row product can change with the
        # number of rows in the chunk, and the pick must not depend on it
        train_sum = np.einsum("tn,nc->tc", mask, centred)
        test_sum = centred_total - train_sum
        mean_tr = train_sum / k
        mean_te = test_sum / (n - k)
        gaps = np.abs(mean_tr - mean_te)
        if use_sd:
            train_sq = np.einsum("tn,nc->tc", mask, squares)
            test_sq = squares_total - train_sq
            var_tr = (train_sq - train_sum * mean_tr) / (k - 1)
            var_te = (test_sq - test_sum * mean_te) / (n - k - 1)
            gaps += np.abs(np.sqrt(np.maximum(var_tr, 0.0)) - np.sqrt(np.maximum(var_te, 0.0)))
        scores = (gaps / scale).sum(axis=1)
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best_score = float(scores[i])
            best = mask[i] == 1.0
        done += m
    return best, ranges


def _fill_training_mask(mask: np.ndarray, k: int, rng: np.random.Generator) -> None:
    """Draw ``mask``'s (trials, rows) uniforms, then make it each trial's
    0/1 training mask: 1.0 at the rows of its k smallest draws.  A trial is
    partitioned at a time, so the only index array is one row long."""
    rng.random(out=mask)
    for trial in mask:
        # a trial trains on its k smallest draws; their order is not needed
        rows = np.argpartition(trial, k - 1)[:k]
        trial.fill(0.0)
        trial[rows] = 1.0


# ---------------------------------------------------------------------------
# synthetic databases


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _clipped_mean(mu: float, sd: float, lo: float, hi: float) -> float:
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    return (
        lo * _Phi(a)
        + mu * (_Phi(b) - _Phi(a))
        + sd * (_phi(a) - _phi(b))
        + hi * (1.0 - _Phi(b))
    )


def _solve_location(mean: float, sd: float, lo: float, hi: float) -> float:
    """Location parameter whose clip(N(mu, sd), lo, hi) has the target mean.
    The clipped mean is strictly increasing in mu, so bisection suffices."""
    if sd == 0.0:
        return mean
    lo_mu, hi_mu = lo - 10.0 * sd, hi + 10.0 * sd
    for _ in range(100):
        mid = 0.5 * (lo_mu + hi_mu)
        if _clipped_mean(mid, sd, lo, hi) < mean:
            lo_mu = mid
        else:
            hi_mu = mid
    return 0.5 * (lo_mu + hi_mu)


# generator correlations between the latent normals, tuned so the realised
# means of the derived columns (a_y = ratio * a_max, T_d = ratio * T_p) track
# the published targets despite the products of clipped marginals
GEN_CORR_AYRATIO_AMAX = -0.65
GEN_CORR_PERIODRATIO_TP = -0.25

# documented tolerance of the generator (fraction of the target mean) for
# every parameter except D, which is produced by the gep relationship and
# does not target the published D statistics
GENERATION_TOLERANCE = {
    "Mw": 0.05, "amax": 0.05, "Tp": 0.05, "ay_ratio": 0.05, "period_ratio": 0.05,
    "Td": 0.05, "ay": 0.05,
}

DEFAULT_NOISE_SD = 0.8


def _validate_targets(targets: dict[str, ParamStats]) -> None:
    """The targets are feasible, and no row drawn inside them breaks a row
    invariant: every drawn value is clipped into [min, max], so a target
    minimum must pass the invariant on its field."""
    for name in PARAMETERS:
        if name not in targets:
            raise DatasetError(f"targets missing parameter {name!r}")
        t = targets[name]
        for field, message, rejects in INVARIANTS:
            if field == _PARAMETER_FIELDS[name] and rejects(t.minimum):
                # "a_max must be positive" -> "amax: min must be positive"
                raise DatasetError(f"{name}: min {message.partition(' ')[2]}, got {t.minimum}")
        if t.sd < 0:
            raise DatasetError(f"{name}: SD must be >= 0")
        if t.minimum > t.maximum:
            raise DatasetError(f"{name}: min > max")
        if not t.minimum <= t.mean <= t.maximum:
            raise DatasetError(f"{name}: mean outside [min, max]")
        if t.sd == 0.0 and t.minimum < t.maximum:
            raise DatasetError(f"{name}: SD = 0 with min < max is infeasible")


def synthesize(targets: dict[str, ParamStats], n: int,
               rng: np.random.Generator | None = None,
               noise_sd: float = DEFAULT_NOISE_SD) -> CaseTable:
    """A table of ``n`` surrogate case histories, without H or Vs.

    Mw, a_max, T_p, a_y/a_max and T_d/T_p are clipped normals whose location
    is solved so the realised means match the targets; a_y and T_d follow as
    products (clipped back into their target bounds), and D is the gep
    relationship's prediction with lognormal noise, clipped into its bounds.
    """
    if n < 2:
        raise DatasetError(f"n must be >= 2, got {n}")
    _validate_targets(targets)
    if rng is None:
        rng = np.random.default_rng(0)

    z = rng.standard_normal((n, 6))
    r1 = GEN_CORR_AYRATIO_AMAX
    r2 = GEN_CORR_PERIODRATIO_TP
    z_ratio = r1 * z[:, 1] + math.sqrt(1.0 - r1 * r1) * z[:, 2]
    z_pr = r2 * z[:, 3] + math.sqrt(1.0 - r2 * r2) * z[:, 4]

    def draw(name: str, zcol: np.ndarray) -> np.ndarray:
        t = targets[name]
        mu = _solve_location(t.mean, t.sd, t.minimum, t.maximum)
        return np.clip(mu + t.sd * zcol, t.minimum, t.maximum)

    m_w = draw("Mw", z[:, 0])
    a_max = draw("amax", z[:, 1])
    ay_ratio = draw("ay_ratio", z_ratio)
    t_p = draw("Tp", z[:, 3])
    period_ratio = draw("period_ratio", z_pr)

    t_ay = targets["ay"]
    a_y = np.clip(ay_ratio * a_max, t_ay.minimum, t_ay.maximum)
    t_td = targets["Td"]
    t_d = np.clip(period_ratio * t_p, t_td.minimum, t_td.maximum)

    # keep the implied period ratio clear of the gep pole
    pr_eff = t_d / t_p
    margin = 2.0 * DEFAULT_POLE_EPS
    near = np.abs(pr_eff - POLE_PERIOD_RATIO) < margin
    shift = np.where(pr_eff >= POLE_PERIOD_RATIO, margin, -margin)
    t_d = np.where(near, (POLE_PERIOD_RATIO + shift) * t_p, t_d)
    pr_eff = t_d / t_p

    gep = evaluate("gep", {"m_w": m_w, "ay_ratio": a_y / a_max, "period_ratio": pr_eff})
    bad = np.flatnonzero(gep.status != "ok")
    if bad.size:
        raise DatasetError(f"synthetic row {bad[0] + 1}: the gep relationship gives "
                           f"{gep.status[bad[0]]}; check the Mw and period-ratio targets")
    ln_d = gep.value + noise_sd * z[:, 5]
    t_D = targets["D"]
    with np.errstate(over="ignore"):
        d = np.clip(np.exp(ln_d), t_D.minimum, t_D.maximum)

    t_m = t_p * rng.uniform(0.8, 1.6, size=n)

    width = len(str(n))
    ids = tuple(f"synth-{i:0{width}d}" for i in range(1, n + 1))
    absent = np.full(n, np.nan)
    return CaseTable(ids, m_w, a_max, t_p, t_d, a_y, d, t_m, absent, absent)


def regression_arrays(table: CaseTable) -> tuple[np.ndarray, np.ndarray]:
    """(Mw, ay/amax, Td/Tp) feature matrix and ln D target vector.  A
    record whose D is not positive, or one of whose features is not finite
    (a ratio that overflows), raises ``DatasetError`` naming it."""
    if not table:
        raise DatasetError("empty dataset")
    bad = np.flatnonzero(~(table.d > 0))
    if bad.size:
        raise DatasetError(f"record {table.ids[bad[0]]!r}: D must be positive to fit in ln space")
    X = np.column_stack((table.m_w, table.ay_ratio, table.period_ratio))
    finite = np.isfinite(X)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        names = ", ".join(np.array(("Mw", "ay_ratio", "period_ratio"))[~finite[bad[0]]])
        raise DatasetError(f"record {table.ids[bad[0]]!r}: {names} not finite, so the record"
                           " cannot be scored")
    return X, np.log(table.d)
