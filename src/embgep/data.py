"""Case-history ingestion, summaries, matched train/test splitting and
synthetic-database generation.

CSV schema (header required, UTF-8, '.' decimal separator)::

    id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,Tm_s,H_m,Vs_mps

Optional cells (Td_s, Tm_s, H_m, Vs_mps) may be empty; a blank Td_s is
derived as 4H/Vs when height and shear wave velocity are present.  ``load``
and ``synthesize`` return a ``CaseTable``, the records held by column, whose
items are ``CaseHistory`` views.

The real 85-record database behind the built-in gep relationship is not
publicly available; ``synthesize`` generates surrogate databases whose
statistics track the published summary table (``EMBANKMENT_SUMMARY``), with
displacement produced by the gep relationship plus lognormal noise so the
set carries a learnable signal.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .displacement import DEFAULT_POLE_EPS, POLE_PERIOD_RATIO, evaluate
from .displacement import INVARIANTS as INPUT_INVARIANTS
# re-exported only for the per-layer benchmark tracer, which binds data.gep_ln_displacement
from .displacement import gep_ln_displacement  # noqa: F401

CSV_HEADER = ("id", "Mw", "amax_g", "Tp_s", "Td_s", "ay_g", "D_m", "Tm_s", "H_m", "Vs_mps")

PARAMETERS = ("Mw", "amax", "Tp", "Td", "ay", "ay_ratio", "period_ratio", "D")
# the CaseHistory field (or ratio property) of each summary parameter
_PARAMETER_FIELDS = dict(zip(PARAMETERS, ("m_w", "a_max", "t_p", "t_d", "a_y", "ay_ratio",
                                          "period_ratio", "d")))


class DatasetError(ValueError):
    """Malformed dataset file, record or generation target."""


# the row invariants of a case history: those of a model input, then D >= 0
INVARIANTS = INPUT_INVARIANTS + (("d", "D must be >= 0", lambda v: np.logical_not(v >= 0)),)


@dataclass(frozen=True)
class CaseHistory:
    """One earth-embankment earthquake record."""

    id: str
    m_w: float
    a_max: float
    t_p: float
    t_d: float
    a_y: float
    d: float
    t_m: float | None = None
    h: float | None = None
    vs: float | None = None

    def __post_init__(self):
        for field, message, rejects in INVARIANTS:
            if rejects(getattr(self, field)):
                raise DatasetError(f"{message}, got {getattr(self, field)}")

    @property
    def ay_ratio(self) -> float:
        return self.a_y / self.a_max

    @property
    def period_ratio(self) -> float:
        return self.t_d / self.t_p


# the float fields of CaseHistory, in CSV column order; the last three are optional
_FIELDS = ("m_w", "a_max", "t_p", "t_d", "a_y", "d", "t_m", "h", "vs")


@dataclass(frozen=True, eq=False)
class CaseTable(Sequence):
    """Case histories held by column: the ids and one contiguous float64
    array per ``CaseHistory`` field, NaN where an optional value (T_m, H,
    Vs) is absent.  Indexing gives a ``CaseHistory`` view, slicing a
    sub-table; a table equals any sequence of equal records."""

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
    def from_records(cls, records) -> CaseTable:
        """A table of ``CaseHistory`` records; a table is returned as is."""
        if isinstance(records, CaseTable):
            return records
        records = list(records)
        values = np.array(
            [(r.m_w, r.a_max, r.t_p, r.t_d, r.a_y, r.d, _or_nan(r.t_m), _or_nan(r.h),
              _or_nan(r.vs)) for r in records],
            dtype=np.float64,
        ).reshape(-1, len(_FIELDS))
        return cls(tuple(r.id for r in records), *values.T)

    @classmethod
    def concat(cls, tables) -> CaseTable:
        tables = list(tables) or [cls.from_records([])]
        return cls(tuple(i for t in tables for i in t.ids),
                   *(np.concatenate([getattr(t, name) for t in tables]) for name in _FIELDS))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        rec_id = self.ids[index]
        values = [float(getattr(self, name)[index]) for name in _FIELDS]
        optional = [None if math.isnan(v) else v for v in values[6:]]
        return CaseHistory(rec_id, *values[:6], *optional)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

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

    def model_columns(self) -> dict[str, np.ndarray]:
        """The input columns of ``displacement.evaluate``."""
        return {"m_w": self.m_w, "a_max": self.a_max, "a_y": self.a_y,
                "ay_ratio": self.ay_ratio, "period_ratio": self.period_ratio, "t_m": self.t_m}


def _or_nan(value: float | None) -> float:
    return math.nan if value is None else value


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


def _matrix(records) -> np.ndarray:
    """(n, 8) float64 matrix of PARAMETERS, one row per record.  The two
    ratios are numpy divisions, IEEE-identical to the ``CaseHistory``
    properties."""
    t = CaseTable.from_records(records)
    return np.column_stack([getattr(t, field) for field in _PARAMETER_FIELDS.values()])


# ---------------------------------------------------------------------------
# CSV I/O

# rows per block of load: a block's cells are the only per-row Python objects
# alive at once, so memory does not grow with a list of every row
_BLOCK_ROWS = 4096

# (column, required) of the numeric cells, in file order after the id
_NUMERIC = (("Mw", True), ("amax_g", True), ("Tp_s", True), ("Td_s", False), ("ay_g", True),
            ("D_m", True), ("Tm_s", False), ("H_m", False), ("Vs_mps", False))


def _parse_column(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column of a block: its float64 values (NaN where empty), its
    empty cells and its cells that are not numbers.  numpy converts a str
    with Python's ``float``, which also ignores surrounding whitespace."""
    try:
        values = np.array(cells, dtype=np.float64)
        none = np.zeros(len(cells), dtype=bool)
        return values, none, none
    except ValueError:  # an empty cell or one that is not a number
        pass
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


def _parse_block(rows: list[list[str]], lines: list[int], seen: set[str]) -> CaseTable:
    """Rows of one block as a table.  Each check marks the rows it rejects,
    and the checks are listed in the order a row is read: its id, its
    numeric cells in column order, the positive optional columns, the
    derivable T_d and then the row invariants.  The first marked row raises
    the message of its first check; a short row raises only when no earlier
    row is marked.  ``seen`` gains the block's ids."""
    width = len(CSV_HEADER)
    k = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    cells = list(zip(*rows[:k])) or [()] * width
    ids = [cell.strip() for cell in cells[0]]
    duplicate = np.zeros(k, dtype=bool)
    for i, rec_id in enumerate(ids):
        duplicate[i] = rec_id in seen
        seen.add(rec_id)
    checks = [_check(np.array([not rec_id for rec_id in ids], dtype=bool), "empty id"),
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
    header-only files give an empty table.  An error names the line and the
    column of the first bad cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return CaseTable.from_records([])
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
        blocks = []
        rows, lines = [], []
        seen: set[str] = set()
        try:
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    blocks.append(_parse_block(rows, lines, seen))
                    rows, lines = [], []
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            if rows:
                _parse_block(rows, lines, seen)  # a bad cell on an earlier line comes first
            raise DatasetError(f"line {reader.line_num}: {exc}") from None
        if rows:
            blocks.append(_parse_block(rows, lines, seen))
    return CaseTable.concat(blocks)


def float_cells(values: np.ndarray) -> list[str]:
    """CSV cells of a float column: ``repr`` of each value, empty for NaN."""
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def save(records, path) -> None:
    """Write records in the canonical schema; load(save(x)) round-trips exactly."""
    table = CaseTable.from_records(records)
    columns = [table.ids] + [float_cells(getattr(table, name)) for name in _FIELDS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(*columns))


# ---------------------------------------------------------------------------
# summaries


def _centred_columns(mat: np.ndarray, context: str) -> np.ndarray:
    """The columns of ``mat`` less their means.  Raises ``DatasetError``
    naming every column whose centred squares (or their sum) overflow: such
    a column has no usable mean, SD or correlation."""
    with np.errstate(over="ignore", invalid="ignore"):
        centred = mat - mat.mean(axis=0)
        overflow = ~np.isfinite(np.square(centred).sum(axis=0))
    if overflow.any():
        names = ", ".join(np.array(PARAMETERS)[overflow])
        raise DatasetError(f"{context}: {names} too large to score (their centred squares overflow)")
    return centred


def summarize(records) -> dict[str, ParamStats]:
    """Min/max/mean/sample-SD for the eight summary parameters."""
    if not records:
        raise DatasetError("empty dataset")
    mat = _matrix(records)
    _centred_columns(mat, "summary")
    n = mat.shape[0]
    out = {}
    for j, name in enumerate(PARAMETERS):
        col = mat[:, j]
        sd = float(np.std(col, ddof=1)) if n >= 2 else 0.0
        out[name] = ParamStats(float(col.min()), float(col.max()), float(col.mean()), sd,
                               degenerate=n < 2)
    return out


# ---------------------------------------------------------------------------
# matched splitting


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    score: float


# one (trials, rows) float64 array of a split_matched chunk stays under this
_SPLIT_CHUNK_BYTES = 2 * 2**20


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


def match_score(train_records, test_records, full_records=None) -> float:
    """Sum over parameters of (|mean gap| + |SD gap|) / parameter range."""
    train, test = _matrix(train_records), _matrix(test_records)
    full = np.vstack((train, test)) if full_records is None else _matrix(full_records)
    ranges = full.max(axis=0) - full.min(axis=0)
    return _gap_score(train, test, ranges)


def split_matched(records, fraction: float = 0.75, trials: int = 1,
                  rng: np.random.Generator | None = None) -> Split:
    """Best of ``trials`` random splits by the normalised moment-matching
    score.  85 records at the default fraction give the published 63/22.

    Trials are screened in chunks without gathering rows: a 0/1 mask of each
    trial's training rows times the column-centred matrix and its squares
    gives the training sums, the column totals less those give the test
    sums, and the moments follow.  The winner is rescored with
    ``match_score``'s formula on its rows in sorted order, so ``score``
    equals ``match_score`` of the split's records exactly.
    """
    table = CaseTable.from_records(records)
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
    mat = _matrix(table)
    centred = _centred_columns(mat, "matched split")
    ranges = mat.max(axis=0) - mat.min(axis=0)
    valid = ranges > 0
    width = int(valid.sum())
    sums = np.empty((n, 2 * width))  # centred columns, then their squares
    sums[:, :width] = centred[:, valid]
    np.square(sums[:, :width], out=sums[:, width:])
    totals = sums.sum(axis=0)
    use_sd = k >= 2 and n - k >= 2
    scale = ranges[valid]

    best_score = math.inf
    best_perm = None
    chunk = max(1, _SPLIT_CHUNK_BYTES // (8 * n))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        perms = np.argsort(rng.random((m, n)), axis=1)
        mask = np.zeros((m, n))
        np.put_along_axis(mask, perms[:, :k], 1.0, axis=1)
        # einsum, not BLAS matmul: a BLAS row product can change with the
        # number of rows in the chunk, and the pick must not depend on it
        train = np.einsum("tn,nc->tc", mask, sums)
        test = totals - train
        mean_tr = train[:, :width] / k
        mean_te = test[:, :width] / (n - k)
        gaps = np.abs(mean_tr - mean_te)
        if use_sd:
            var_tr = (train[:, width:] - train[:, :width] * mean_tr) / (k - 1)
            var_te = (test[:, width:] - test[:, :width] * mean_te) / (n - k - 1)
            gaps += np.abs(np.sqrt(np.maximum(var_tr, 0.0)) - np.sqrt(np.maximum(var_te, 0.0)))
        scores = (gaps / scale).sum(axis=1)
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best_score = float(scores[i])
            best_perm = perms[i].copy()
        done += m

    train_idx = np.sort(best_perm[:k])
    test_idx = np.sort(best_perm[k:])
    return Split(
        tuple(table.ids[i] for i in train_idx.tolist()),
        tuple(table.ids[i] for i in test_idx.tolist()),
        _gap_score(mat[train_idx], mat[test_idx], ranges),
    )


def split_records(records, split: Split) -> tuple[CaseTable, CaseTable]:
    table = CaseTable.from_records(records)
    row = {rec_id: i for i, rec_id in enumerate(table.ids)}
    return (table.take([row[i] for i in split.train_ids]),
            table.take([row[i] for i in split.test_ids]))


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


def regression_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    """(Mw, ay/amax, Td/Tp) feature matrix and ln D target vector."""
    table = CaseTable.from_records(records)
    if not table:
        raise DatasetError("empty dataset")
    bad = np.flatnonzero(~(table.d > 0))
    if bad.size:
        raise DatasetError(f"record {table.ids[bad[0]]!r}: D must be positive to fit in ln space")
    X = np.column_stack((table.m_w, table.ay_ratio, table.period_ratio))
    return X, np.log(table.d)
