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

The ``gep`` relationship has a pole where its period-ratio denominator
5.55*(T_d/T_p) - 7.052 vanishes (T_d/T_p ~ 1.2706).  Inputs within
``pole_eps`` of that ratio raise ``PoleError`` so that no non-finite value
can leak into downstream aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class MissingInputError(ValueError):
    """A required input value is absent from the record."""


@dataclass(frozen=True)
class EmbankmentGeometry:
    """Embankment height (m) and shear wave velocity (m/s)."""

    height_m: float
    vs_mps: float

    def __post_init__(self):
        if not self.height_m > 0:
            raise ValueError(f"height must be positive, got {self.height_m}")
        if not self.vs_mps > 0:
            raise ValueError(f"shear wave velocity must be positive, got {self.vs_mps}")


def fundamental_period(geom: EmbankmentGeometry) -> float:
    """First natural period of the embankment, 4H/Vs."""
    return 4.0 * geom.height_m / geom.vs_mps


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
        if not self.a_max > 0:
            raise ValueError(f"a_max must be positive, got {self.a_max}")
        if not self.t_p > 0:
            raise ValueError(f"T_p must be positive, got {self.t_p}")
        if self.t_d < 0:
            raise ValueError(f"T_d must be >= 0, got {self.t_d}")
        if self.a_y < 0:
            raise ValueError(f"a_y must be >= 0, got {self.a_y}")

    @property
    def ay_ratio(self) -> float:
        return self.a_y / self.a_max

    @property
    def period_ratio(self) -> float:
        return self.t_d / self.t_p


SCALE_TAGS = ("ln_D_m", "log10_D_cm", "log10_D_m", "ln_D_cm")


def to_meters(value: float, scale: str) -> float:
    """Convert a tagged displacement measure to meters."""
    try:
        if scale == "ln_D_m":
            return math.exp(value)
        if scale == "ln_D_cm":
            return math.exp(value) / 100.0
        if scale == "log10_D_m":
            return 10.0 ** value
        if scale == "log10_D_cm":
            return 10.0 ** value / 100.0
    except OverflowError:
        return math.inf
    raise ValueError(f"unknown scale tag {scale!r}")


@dataclass(frozen=True)
class Prediction:
    """A displacement measure, its scale tag, the meter conversion and the
    applicability verdict of the producing relationship."""

    value: float
    scale: str
    in_range: bool
    d_meters: float


def _prediction(value: float, scale: str, in_range: bool) -> Prediction:
    return Prediction(value, scale, in_range, to_meters(value, scale))


# ---------------------------------------------------------------------------
# applicability ranges, as published


@dataclass(frozen=True)
class ApplicabilityRange:
    """Closed bounds per quantity; None means unbounded on that side."""

    m_w: tuple[float | None, float | None] = (None, None)
    a_max: tuple[float | None, float | None] = (None, None)
    a_y: tuple[float | None, float | None] = (None, None)
    ay_ratio: tuple[float | None, float | None] = (None, None)

    def __post_init__(self):
        for name in ("m_w", "a_max", "a_y", "ay_ratio"):
            lo, hi = getattr(self, name)
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"{name} range has lower > upper")


APPLICABILITY: dict[str, ApplicabilityRange] = {
    "gep": ApplicabilityRange(),
    "hynes_griffin": ApplicabilityRange(m_w=(None, 8.0), ay_ratio=(0.01, 0.6)),
    "ambraseys_menu": ApplicabilityRange(m_w=(6.6, 7.2), ay_ratio=(0.05, 0.95)),
    "jibson": ApplicabilityRange(m_w=(5.3, 7.6), a_y=(0.05, 0.4), ay_ratio=(None, 1.0)),
    "saygili_rathje": ApplicabilityRange(
        m_w=(4.5, 7.9), a_max=(None, 1.0), a_y=(0.05, 0.3), ay_ratio=(0.05, 1.0)
    ),
    "madiai": ApplicabilityRange(ay_ratio=(0.1, 0.9)),
    "tsai_chien": ApplicabilityRange(m_w=(5.9, 7.6), a_max=(None, 0.3)),
}

_QUANTITY_LABELS = {"m_w": "Mw", "a_max": "a_max", "a_y": "a_y", "ay_ratio": "ay/amax"}


@dataclass(frozen=True)
class Applicability:
    ok: bool
    violations: tuple[str, ...] = ()


def _bounds_verdict(model_id: str, values: dict[str, float | None]) -> Applicability:
    try:
        bounds = APPLICABILITY[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}") from None
    violations = []
    for name, label in _QUANTITY_LABELS.items():
        value = values.get(name)
        if value is None:
            continue
        lo, hi = getattr(bounds, name)
        if lo is not None and value < lo:
            violations.append(f"{label}={value:g} below {lo:g}")
        if hi is not None and value > hi:
            violations.append(f"{label}={value:g} above {hi:g}")
    return Applicability(not violations, tuple(violations))


def check_applicability(model_id: str, inp: ModelInput) -> Applicability:
    """Verdict listing every published bound the input violates."""
    return _bounds_verdict(
        model_id,
        {"m_w": inp.m_w, "a_max": inp.a_max, "a_y": inp.a_y, "ay_ratio": inp.ay_ratio},
    )


# ---------------------------------------------------------------------------
# the gep relationship


def gep_ln_displacement(
    m_w: float,
    ay_ratio: float,
    period_ratio: float,
    pole_eps: float = DEFAULT_POLE_EPS,
) -> float:
    """ln D (meters) from Mw, a_y/a_max and T_d/T_p.

    Raises PoleError within ``pole_eps`` of the period-ratio pole and
    ModelDomainError for Mw = 0, non-finite inputs or any input combination
    whose value overflows; never returns a non-finite number.
    """
    for name, v in (("Mw", m_w), ("ay_ratio", ay_ratio), ("period_ratio", period_ratio)):
        if not math.isfinite(v):
            raise ModelDomainError(f"{name} must be finite, got {v}")
    if m_w == 0.0:
        raise ModelDomainError("Mw = 0 is outside the model domain")
    if abs(period_ratio - POLE_PERIOD_RATIO) < pole_eps:
        raise PoleError(
            f"period ratio {period_ratio:.6f} within {pole_eps:g} of the pole "
            f"{POLE_PERIOD_RATIO:.6f}"
        )
    try:
        term1 = 6.524 * m_w / (m_w * ay_ratio**4 + 7.864)
        term2 = (ay_ratio * period_ratio - period_ratio**2) / (5.55 * period_ratio - 7.052)
        term3 = 3.647 / m_w**2
        term4 = ay_ratio * period_ratio - ay_ratio - period_ratio - 5.098
        value = term1 + term2 + term3 + term4
    except (ZeroDivisionError, OverflowError) as exc:
        raise ModelDomainError(
            f"inputs (Mw={m_w:g}, ay_ratio={ay_ratio:g}, period_ratio={period_ratio:g}) "
            f"hit a singular denominator: {exc}"
        ) from None
    if not math.isfinite(value):
        raise ModelDomainError(
            f"inputs (Mw={m_w:g}, ay_ratio={ay_ratio:g}, period_ratio={period_ratio:g}) "
            "produce a non-finite value"
        )
    return value


# ---------------------------------------------------------------------------
# published comparison relationships


def hynes_griffin(ay_ratio: float, m_w: float | None = None) -> Prediction:
    """Hynes-Griffin & Franklin (1984): log10 D (cm) from a_y/a_max."""
    x = float(ay_ratio)
    value = -0.287 - 2.854 * x - 1.733 * x**2 - 0.702 * x**3 - 0.116 * x**4
    verdict = _bounds_verdict("hynes_griffin", {"m_w": m_w, "ay_ratio": x})
    return _prediction(value, "log10_D_cm", verdict.ok)


def ambraseys_menu(ay_ratio: float, m_w: float | None = None, cm_units: bool = False) -> Prediction:
    """Ambraseys & Menu (1988): log10 D from a_y/a_max.

    Tabulated with D in meters; the original publication used centimeters.
    ``cm_units=True`` selects the original reading (same value, cm scale tag).
    """
    x = float(ay_ratio)
    if not 0.0 < x < 1.0:
        raise ModelDomainError(f"ay/amax must be in (0, 1), got {x:g}")
    value = 0.9 + math.log10((1.0 - x) ** 2.53 * x**-1.09)
    verdict = _bounds_verdict("ambraseys_menu", {"m_w": m_w, "ay_ratio": x})
    return _prediction(value, "log10_D_cm" if cm_units else "log10_D_m", verdict.ok)


def jibson(ay_ratio: float, m_w: float | None = None, a_y: float | None = None) -> Prediction:
    """Jibson (2007): log10 D (cm) from a_y/a_max."""
    x = float(ay_ratio)
    if not 0.0 < x < 1.0:
        raise ModelDomainError(f"ay/amax must be in (0, 1), got {x:g}")
    value = -0.215 + math.log10((1.0 - x) ** 2.341 * x**-1.438)
    verdict = _bounds_verdict("jibson", {"m_w": m_w, "a_y": a_y, "ay_ratio": x})
    return _prediction(value, "log10_D_cm", verdict.ok)


def saygili_rathje(
    a_max: float,
    ay_ratio: float,
    m_w: float | None = None,
    a_y: float | None = None,
) -> Prediction:
    """Saygili & Rathje (2008): ln D (cm) from a_max and a_y/a_max."""
    if not a_max > 0:
        raise ModelDomainError(f"a_max must be positive, got {a_max:g}")
    x = float(ay_ratio)
    value = (
        5.52
        + 0.72 * math.log(a_max)
        - 4.43 * x
        - 20.93 * x**2
        + 42.61 * x**3
        - 28.74 * x**4
    )
    verdict = _bounds_verdict(
        "saygili_rathje", {"m_w": m_w, "a_max": a_max, "a_y": a_y, "ay_ratio": x}
    )
    return _prediction(value, "ln_D_cm", verdict.ok)


def madiai(ay_ratio: float) -> Prediction:
    """Madiai (2009): log10 D (cm) from a_y/a_max."""
    x = float(ay_ratio)
    if not 0.0 < x < 1.0:
        raise ModelDomainError(f"ay/amax must be in (0, 1), got {x:g}")
    value = -0.418 - 0.857 * math.log10(x) + 2.26 * math.log10(1.0 - x)
    verdict = _bounds_verdict("madiai", {"ay_ratio": x})
    return _prediction(value, "log10_D_cm", verdict.ok)


def tsai_chien(
    a_max: float,
    ay_ratio: float,
    t_m: float,
    m_w: float | None = None,
) -> Prediction:
    """Tsai & Chien (2016): ln D (cm) from a_max, a_y/a_max and mean period."""
    if not a_max > 0:
        raise ModelDomainError(f"a_max must be positive, got {a_max:g}")
    if not t_m > 0:
        raise ModelDomainError(f"T_m must be positive, got {t_m:g}")
    x = float(ay_ratio)
    value = (
        6.4
        - 8.374 * x
        - 0.419 * x**2
        + 6.366 * x**3
        - 7.031 * x**4
        + 0.767 * math.log(a_max)
        + 1.757 * math.log(t_m)
    )
    verdict = _bounds_verdict("tsai_chien", {"m_w": m_w, "a_max": a_max, "ay_ratio": x})
    return _prediction(value, "ln_D_cm", verdict.ok)


# ---------------------------------------------------------------------------
# string-id registry used by the CLI


MODEL_IDS = (
    "gep",
    "hynes_griffin",
    "ambraseys_menu",
    "jibson",
    "saygili_rathje",
    "madiai",
    "tsai_chien",
)


def predict(
    model_id: str,
    inp: ModelInput,
    pole_eps: float = DEFAULT_POLE_EPS,
    ambraseys_cm: bool = False,
) -> Prediction:
    """Run one registered relationship on a full input record."""
    if model_id == "gep":
        value = gep_ln_displacement(inp.m_w, inp.ay_ratio, inp.period_ratio, pole_eps)
        return _prediction(value, "ln_D_m", True)
    if model_id == "hynes_griffin":
        return hynes_griffin(inp.ay_ratio, inp.m_w)
    if model_id == "ambraseys_menu":
        return ambraseys_menu(inp.ay_ratio, inp.m_w, cm_units=ambraseys_cm)
    if model_id == "jibson":
        return jibson(inp.ay_ratio, inp.m_w, inp.a_y)
    if model_id == "saygili_rathje":
        return saygili_rathje(inp.a_max, inp.ay_ratio, inp.m_w, inp.a_y)
    if model_id == "madiai":
        return madiai(inp.ay_ratio)
    if model_id == "tsai_chien":
        if inp.t_m is None:
            raise MissingInputError("tsai_chien needs the mean period T_m (column Tm_s)")
        return tsai_chien(inp.a_max, inp.ay_ratio, inp.t_m, inp.m_w)
    raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")


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
    points = []
    for v in grid:
        args = dict(base)
        args[varied] = float(v)
        try:
            ln_d = gep_ln_displacement(
                args["Mw"], args["ay_ratio"], args["period_ratio"], pole_eps
            )
            points.append(SensitivityPoint(float(v), ln_d, "ok"))
        except PoleError:
            points.append(SensitivityPoint(float(v), None, "pole"))
        except ModelDomainError:
            points.append(SensitivityPoint(float(v), None, "domain_error"))
    return points
