"""Closed-form predictors of earthquake-induced slope displacement.

The built-in evolutionary relationship (id ``gep``) predicts ln D (D in
meters) of earth embankments from moment magnitude, the yield-acceleration
ratio a_y/a_max and the period ratio T_d/T_p.  Six classical Newmark-family
regressions are provided for comparison, each implemented exactly as
published and carrying its published applicability range:

  hynes_griffin   Hynes-Griffin & Franklin (1984)   log10 D, cm
  ambraseys_menu  Ambraseys & Menu (1988)           log10 D, m as tabulated
  jibson          Jibson (2007)                     log10 D, cm
  saygili_rathje  Saygili & Rathje (2008)           ln D, cm
  madiai          Madiai (2009)                     log10 D, cm
  tsai_chien      Tsai & Chien (2016)               ln D, cm

All seven live in one model table, ``MODELS``: per relationship its scale
tag, the inputs its formula reads, its applicability range, its domain
rules and its formula.  ``evaluate`` runs one relationship over input
columns and labels every row ``ok``, ``pole``, ``domain_error`` or
``missing_input``.  Three one-row entry points call it on a single case:
``predict`` (a one-row ``Evaluation`` of a ``ModelInput``),
``check_applicability`` (the worded bound violations of a ``ModelInput``)
and ``gep_ln_displacement`` (ln D as a float, raising ``PoleError`` or
``ModelDomainError`` instead of returning a label).  They stay for callers
that hold one case rather than columns, and as the bindings the per-layer
benchmark tracer wraps.

The ``gep`` relationship has a pole where its period-ratio denominator
5.55*(T_d/T_p) - 7.052 vanishes (T_d/T_p ~ 1.2706).  Inputs within
``pole_eps`` of that ratio are labelled ``pole`` so that no non-finite value
can leak into downstream aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

POLE_PERIOD_RATIO = 7.052 / 5.55
DEFAULT_POLE_EPS = 1e-3

# all-data mean values of the case-history database; default sensitivity anchors
MEAN_MW = 7.091
MEAN_AY_RATIO = 0.770
MEAN_PERIOD_RATIO = 1.435

SENSITIVITY_PARAMS = ("Mw", "ay_ratio", "period_ratio")


class PoleError(ValueError):
    """Period ratio too close to the gep relationship's pole."""


class ModelDomainError(ValueError):
    """Input outside the mathematical domain of a relationship."""


# the row invariants of a case, in the order they are checked: the field, the
# message when it fails and the values it rejects, on a float or on a column
# (NaN compares false, so a NaN breaks each of them)
Invariant = tuple[str, str, Callable[[float | np.ndarray], bool | np.ndarray]]

INVARIANTS: tuple[Invariant, ...] = (
    ("a_max", "a_max must be positive", lambda v: np.logical_not(v > 0)),
    ("t_p", "T_p must be positive", lambda v: np.logical_not(v > 0)),
    ("t_d", "T_d must be >= 0", lambda v: np.logical_not(v >= 0)),
    ("a_y", "a_y must be >= 0", lambda v: np.logical_not(v >= 0)),
)


@dataclass(frozen=True)
class ModelInput:
    """Predictor bundle for one case: ratios are always derived, never stored."""

    m_w: float
    a_max: float
    t_p: float
    t_d: float
    a_y: float
    t_m: float | None = None

    def __post_init__(self):
        for field, message, rejects in INVARIANTS:
            if rejects(getattr(self, field)):
                raise ValueError(f"{message}, got {getattr(self, field)}")

    @property
    def ay_ratio(self) -> float:
        return self.a_y / self.a_max

    @property
    def period_ratio(self) -> float:
        return self.t_d / self.t_p


# meters from a tagged displacement measure, on one Python float
_TO_METERS: dict[str, Callable[[float], float]] = {
    "ln_D_m": math.exp,
    "ln_D_cm": lambda v: math.exp(v) / 100.0,
    "log10_D_m": lambda v: 10.0 ** v,
    "log10_D_cm": lambda v: 10.0 ** v / 100.0,
}


# ---------------------------------------------------------------------------
# applicability ranges, as published

_QUANTITY_LABELS = {"m_w": "Mw", "a_max": "a_max", "a_y": "a_y", "ay_ratio": "ay/amax"}


@dataclass(frozen=True)
class ApplicabilityRange:
    """Closed bounds per quantity; None means unbounded on that side."""

    m_w: tuple[float | None, float | None] = (None, None)
    a_max: tuple[float | None, float | None] = (None, None)
    a_y: tuple[float | None, float | None] = (None, None)
    ay_ratio: tuple[float | None, float | None] = (None, None)

    def __post_init__(self):
        for name in _QUANTITY_LABELS:
            lo, hi = getattr(self, name)
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"{name} range has lower > upper")

    def breaches(self, values: dict) -> Iterator[tuple[str, str, float, bool | np.ndarray]]:
        """(quantity, "below" or "above", bound, rows beyond it) for every set
        bound of a quantity among ``values``, floats or columns alike; a NaN
        breaks no bound, as a missing value is not checked."""
        for name in _QUANTITY_LABELS:
            if name not in values:
                continue
            lo, hi = getattr(self, name)
            if lo is not None:
                yield name, "below", lo, values[name] < lo
            if hi is not None:
                yield name, "above", hi, values[name] > hi


# ---------------------------------------------------------------------------
# the model table
#
# Each formula is the published expression on Python floats.  numpy's SIMD
# exp, log, log10 and power differ from libm in the last bit on some inputs,
# so ``evaluate`` runs formulas and meter conversions row by row and uses
# numpy only for comparisons, which are exact.


def _gep(m_w: float, x: float, r: float) -> float:
    term1 = 6.524 * m_w / (m_w * x**4 + 7.864)
    term2 = (x * r - r**2) / (5.55 * r - 7.052)
    term3 = 3.647 / m_w**2
    term4 = x * r - x - r - 5.098
    return term1 + term2 + term3 + term4


def _hynes_griffin(x: float) -> float:
    return -0.287 - 2.854 * x - 1.733 * x**2 - 0.702 * x**3 - 0.116 * x**4


def _ambraseys_menu(x: float) -> float:
    return 0.9 + math.log10((1.0 - x) ** 2.53 * x**-1.09)


def _jibson(x: float) -> float:
    return -0.215 + math.log10((1.0 - x) ** 2.341 * x**-1.438)


def _saygili_rathje(a_max: float, x: float) -> float:
    return 5.52 + 0.72 * math.log(a_max) - 4.43 * x - 20.93 * x**2 + 42.61 * x**3 - 28.74 * x**4


def _madiai(x: float) -> float:
    return -0.418 - 0.857 * math.log10(x) + 2.26 * math.log10(1.0 - x)


def _tsai_chien(a_max: float, x: float, t_m: float) -> float:
    return (6.4 - 8.374 * x - 0.419 * x**2 + 6.366 * x**3 - 7.031 * x**4
            + 0.767 * math.log(a_max) + 1.757 * math.log(t_m))


# a domain rule: the status it gives and the rows it marks, from the input
# columns and pole_eps; NaN comparisons are false, so a rule written as
# ``~(x > 0)`` marks a NaN too
Rule = tuple[str, Callable[[dict[str, np.ndarray], float], np.ndarray]]

_GEP_RULES: tuple[Rule, ...] = (
    ("domain_error", lambda c, eps: ~(np.isfinite(c["m_w"]) & np.isfinite(c["ay_ratio"])
                                      & np.isfinite(c["period_ratio"]))),
    ("domain_error", lambda c, eps: c["m_w"] == 0.0),
    ("pole", lambda c, eps: np.abs(c["period_ratio"] - POLE_PERIOD_RATIO) < eps),
)
_OPEN_UNIT_RATIO: Rule = (
    "domain_error", lambda c, eps: ~((0.0 < c["ay_ratio"]) & (c["ay_ratio"] < 1.0)))
_POSITIVE_AMAX: Rule = ("domain_error", lambda c, eps: ~(c["a_max"] > 0.0))
_TSAI_CHIEN_RULES: tuple[Rule, ...] = (
    ("missing_input", lambda c, eps: np.isnan(c["t_m"])),
    _POSITIVE_AMAX,
    ("domain_error", lambda c, eps: ~(c["t_m"] > 0.0)),
)


@dataclass(frozen=True)
class Model:
    """One relationship: its scale tag, the input columns its formula reads
    (in argument order), its applicability range, its domain rules (in the
    order they apply; the first that marks a row sets its status) and its
    formula."""

    scale: str
    inputs: tuple[str, ...]
    applicability: ApplicabilityRange
    rules: tuple[Rule, ...]
    formula: Callable[..., float]


MODELS: dict[str, Model] = {
    "gep": Model("ln_D_m", ("m_w", "ay_ratio", "period_ratio"), ApplicabilityRange(),
                 _GEP_RULES, _gep),
    "hynes_griffin": Model("log10_D_cm", ("ay_ratio",),
                           ApplicabilityRange(m_w=(None, 8.0), ay_ratio=(0.01, 0.6)),
                           (), _hynes_griffin),
    "ambraseys_menu": Model("log10_D_m", ("ay_ratio",),
                            ApplicabilityRange(m_w=(6.6, 7.2), ay_ratio=(0.05, 0.95)),
                            (_OPEN_UNIT_RATIO,), _ambraseys_menu),
    "jibson": Model("log10_D_cm", ("ay_ratio",),
                    ApplicabilityRange(m_w=(5.3, 7.6), a_y=(0.05, 0.4), ay_ratio=(None, 1.0)),
                    (_OPEN_UNIT_RATIO,), _jibson),
    "saygili_rathje": Model("ln_D_cm", ("a_max", "ay_ratio"),
                            ApplicabilityRange(m_w=(4.5, 7.9), a_max=(None, 1.0),
                                               a_y=(0.05, 0.3), ay_ratio=(0.05, 1.0)),
                            (_POSITIVE_AMAX,), _saygili_rathje),
    "madiai": Model("log10_D_cm", ("ay_ratio",), ApplicabilityRange(ay_ratio=(0.1, 0.9)),
                    (_OPEN_UNIT_RATIO,), _madiai),
    "tsai_chien": Model("ln_D_cm", ("a_max", "ay_ratio", "t_m"),
                        ApplicabilityRange(m_w=(5.9, 7.6), a_max=(None, 0.3)),
                        _TSAI_CHIEN_RULES, _tsai_chien),
}

MODEL_IDS = tuple(MODELS)

STATUSES = ("ok", "pole", "domain_error", "missing_input")
_DOMAIN_ERROR = STATUSES.index("domain_error")


def _model(model_id: str) -> Model:
    try:
        return MODELS[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}") from None


def _each(fn: Callable[..., float], args: list[list[float]]) -> list[float]:
    """``fn`` over the rows of ``args`` (equal-length lists of Python
    floats); NaN for a row where it overflows or divides by zero."""
    try:
        return list(map(fn, *args))
    except (OverflowError, ZeroDivisionError):
        return [_guarded(fn, row) for row in zip(*args)]


def _guarded(fn: Callable[..., float], row) -> float:
    try:
        return fn(*row)
    except (OverflowError, ZeroDivisionError):
        return math.nan


@dataclass(frozen=True)
class Evaluation:
    """One relationship over n rows.  ``value`` (on the ``scale``) and
    ``d_m`` (meters) are NaN unless the row's ``status`` is ``ok``;
    ``in_range`` is the applicability verdict whatever the status."""

    scale: str
    value: np.ndarray
    d_m: np.ndarray
    in_range: np.ndarray
    status: np.ndarray


def evaluate(model_id: str, columns: dict, pole_eps: float = DEFAULT_POLE_EPS,
             ambraseys_cm: bool = False) -> Evaluation:
    """Run one relationship of ``MODELS`` over input columns.

    ``columns`` maps input names (``m_w``, ``a_max``, ``a_y``, ``ay_ratio``,
    ``period_ratio``, ``t_m``) to equal-length float columns and must hold
    every input the formula reads; NaN marks a missing ``t_m``.  Bounds of
    quantities absent from ``columns`` are not checked.  A row is ``ok``
    only when no domain rule marks it and both its value and its meter
    conversion are finite; a formula that overflows or divides by zero
    gives ``domain_error``.  ``ambraseys_cm`` reads the Ambraseys-Menu value
    as log10 of centimeters.
    """
    model = _model(model_id)
    if not pole_eps > 0.0:  # 0 or NaN would turn the pole check off
        raise ValueError(f"pole_eps must be a number > 0, got {pole_eps!r}")
    cols = {name: np.asarray(col, dtype=np.float64) for name, col in columns.items()}
    n = len(cols[model.inputs[0]])
    code = np.zeros(n, dtype=np.int8)  # index into STATUSES
    for status, rule in model.rules:
        code[(code == 0) & rule(cols, pole_eps)] = STATUSES.index(status)
    in_range = np.ones(n, dtype=bool)
    for *_, beyond in model.applicability.breaches(cols):
        in_range &= ~beyond
    scale = "log10_D_cm" if ambraseys_cm and model_id == "ambraseys_menu" else model.scale
    todo = np.flatnonzero(code == 0)
    value = np.full(n, np.nan)
    value[todo] = _each(model.formula, [cols[name][todo].tolist() for name in model.inputs])
    d_m = np.full(n, np.nan)
    d_m[todo] = _each(_TO_METERS[scale], [value[todo].tolist()])
    code[todo[~(np.isfinite(value[todo]) & np.isfinite(d_m[todo]))]] = _DOMAIN_ERROR
    rejected = code != 0
    value[rejected] = np.nan
    d_m[rejected] = np.nan
    return Evaluation(scale, value, d_m, in_range, np.array(STATUSES)[code])


# ---------------------------------------------------------------------------
# one-row entry points: a single case through evaluate


def _input_columns(inp: ModelInput) -> dict[str, list[float]]:
    """``evaluate``'s one-row columns of a case; NaN marks a missing T_m."""
    return {"m_w": [inp.m_w], "a_max": [inp.a_max], "a_y": [inp.a_y],
            "ay_ratio": [inp.ay_ratio], "period_ratio": [inp.period_ratio],
            "t_m": [math.nan if inp.t_m is None else inp.t_m]}


def predict(
    model_id: str,
    inp: ModelInput,
    pole_eps: float = DEFAULT_POLE_EPS,
    ambraseys_cm: bool = False,
) -> Evaluation:
    """Run one registered relationship on one case: a one-row ``Evaluation``
    whose status labels a pole, domain error or missing input."""
    return evaluate(model_id, _input_columns(inp), pole_eps, ambraseys_cm)


def check_applicability(model_id: str, inp: ModelInput) -> tuple[str, ...]:
    """Every published bound of the relationship that the case violates,
    worded; empty when the case is in range."""
    row = {name: column[0] for name, column in _input_columns(inp).items()}
    return tuple(f"{_QUANTITY_LABELS[name]}={row[name]:g} {side} {bound:g}"
                 for name, side, bound, beyond in _model(model_id).applicability.breaches(row)
                 if beyond)


def gep_ln_displacement(
    m_w: float,
    ay_ratio: float,
    period_ratio: float,
    pole_eps: float = DEFAULT_POLE_EPS,
) -> float:
    """ln D (meters) from Mw, a_y/a_max and T_d/T_p.

    Raises PoleError within ``pole_eps`` of the period-ratio pole and
    ModelDomainError for Mw = 0, non-finite inputs or any input combination
    whose value or displacement overflows; never returns a non-finite number.
    """
    result = evaluate("gep", {"m_w": [m_w], "ay_ratio": [ay_ratio],
                              "period_ratio": [period_ratio]}, pole_eps)
    status = str(result.status[0])
    if status != "ok":
        error = PoleError if status == "pole" else ModelDomainError
        raise error(f"gep: {status} at m_w={m_w:g}, ay_ratio={ay_ratio:g}, "
                    f"period_ratio={period_ratio:g}")
    return float(result.value[0])


# ---------------------------------------------------------------------------
# sensitivity curves


@dataclass(frozen=True)
class SensitivityPoint:
    """One grid point; ``status`` is ``ok``, ``pole`` or ``domain_error``,
    and ``ln_d`` is None unless it is ``ok``."""

    value: float
    ln_d: float | None
    status: str

    @property
    def pole(self) -> bool:
        return self.status == "pole"


def sensitivity_profile(
    varied: str,
    grid,
    anchors: dict[str, float] | None = None,
    pole_eps: float = DEFAULT_POLE_EPS,
) -> list[SensitivityPoint]:
    """ln D along a grid of one parameter, the others held at their anchors
    (defaults: database means).  Grid points inside the pole neighbourhood
    or outside the model domain (Mw = 0) come back as explicit status
    markers, not values."""
    if varied not in SENSITIVITY_PARAMS:
        raise ValueError(f"unknown parameter {varied!r}; expected one of {SENSITIVITY_PARAMS}")
    base = {
        "Mw": MEAN_MW,
        "ay_ratio": MEAN_AY_RATIO,
        "period_ratio": MEAN_PERIOD_RATIO,
    }
    if anchors:
        for key in anchors:
            if key not in base:
                raise ValueError(f"unknown anchor {key!r}")
        base.update(anchors)
    values = np.asarray(grid, dtype=np.float64).reshape(-1)
    columns = {name: np.full(len(values), base[name], dtype=np.float64) for name in base}
    columns[varied] = values
    result = evaluate("gep", {"m_w": columns["Mw"], "ay_ratio": columns["ay_ratio"],
                              "period_ratio": columns["period_ratio"]}, pole_eps)
    return [
        SensitivityPoint(v, ln_d if status == "ok" else None, status)
        for v, ln_d, status in zip(values.tolist(), result.value.tolist(),
                                   result.status.tolist())
    ]
