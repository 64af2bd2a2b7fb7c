import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from embgep import data, displacement
from embgep.displacement import (
    DEFAULT_POLE_EPS,
    MEAN_AY_RATIO,
    MEAN_MW,
    MEAN_PERIOD_RATIO,
    POLE_PERIOD_RATIO,
    ApplicabilityRange,
    ModelDomainError,
    ModelInput,
    PoleError,
    check_applicability,
    evaluate,
    gep_ln_displacement,
    predict,
    sensitivity_profile,
)
from references import reference_row


def sample_input(**overrides):
    base = dict(m_w=7.0, a_max=0.3, t_p=0.4, t_d=0.6, a_y=0.09, t_m=0.5)
    base.update(overrides)
    return ModelInput(**base)


class TestGepRelationship:
    def test_matches_exact_oracle_at_database_means(self):
        got = gep_ln_displacement(MEAN_MW, MEAN_AY_RATIO, MEAN_PERIOD_RATIO)
        assert got == pytest.approx(float(oracles.gep_formula_exact(MEAN_MW, MEAN_AY_RATIO, MEAN_PERIOD_RATIO)), abs=1e-9)

    def test_matches_exact_oracle_on_grid(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            m_w = rng.uniform(4.9, 8.3)
            x = rng.uniform(0.0, 3.5)
            r = rng.uniform(0.117, 4.0)
            if abs(5.55 * r - 7.052) < 0.05:
                continue
            got = gep_ln_displacement(m_w, x, r)
            assert got == pytest.approx(float(oracles.gep_formula_exact(m_w, x, r)), abs=1e-9)
            checked += 1

    def test_pole_raises_not_nan(self):
        with pytest.raises(PoleError):
            gep_ln_displacement(7.0, 0.5, 7.052 / 5.55)
        with pytest.raises(PoleError):
            gep_ln_displacement(7.0, 0.5, POLE_PERIOD_RATIO + 0.5 * DEFAULT_POLE_EPS)
        # just outside the guard: finite value, never inf
        v = gep_ln_displacement(7.0, 0.5, POLE_PERIOD_RATIO + 2.0 * DEFAULT_POLE_EPS)
        assert math.isfinite(v)

    def test_zero_ay_ratio_reduces(self):
        m_w, r = 6.5, 2.0
        expected = 6.524 * m_w / 7.864 + (-(r**2)) / (5.55 * r - 7.052) + 3.647 / m_w**2 - r - 5.098
        assert gep_ln_displacement(m_w, 0.0, r) == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError):
            gep_ln_displacement(0.0, 0.5, 2.0)
        with pytest.raises(ModelDomainError):
            gep_ln_displacement(math.nan, 0.5, 2.0)
        with pytest.raises(ModelDomainError):
            gep_ln_displacement(7.0, math.inf, 2.0)
        # term-1 denominator zero for a crafted negative magnitude
        with pytest.raises((ModelDomainError, PoleError)):
            gep_ln_displacement(-7.864, 1.0, 2.0)


def one_row(model_id, ambraseys_cm=False, **inputs):
    """One row through ``evaluate``; an input left out is not read, and its
    bounds are not checked."""
    return evaluate(model_id, {name: [v] for name, v in inputs.items()},
                    ambraseys_cm=ambraseys_cm)


def ok_value(model_id, **inputs):
    """The value of one ``ok`` row through ``evaluate``."""
    result = one_row(model_id, **inputs)
    assert result.status.tolist() == ["ok"]
    return float(result.value[0])


class TestBaselines:
    def test_hynes_griffin_zero(self):
        assert ok_value("hynes_griffin", ay_ratio=0.0) == -0.287
        assert not one_row("hynes_griffin", ay_ratio=0.0).in_range[0]  # below the 0.01 lower bound

    def test_hynes_griffin_oracle(self):
        result = one_row("hynes_griffin", ay_ratio=0.5)
        assert result.value[0] == pytest.approx(float(oracles.hynes_griffin_exact(0.5)), abs=1e-12)
        assert result.scale == "log10_D_cm"

    def test_hynes_griffin_range(self):
        assert one_row("hynes_griffin", ay_ratio=0.3, m_w=7.0).in_range[0]
        assert not one_row("hynes_griffin", ay_ratio=0.3, m_w=8.5).in_range[0]

    def test_ambraseys_menu_domain(self):
        assert one_row("ambraseys_menu", ay_ratio=1.0).status[0] == "domain_error"
        assert one_row("ambraseys_menu", ay_ratio=0.0).status[0] == "domain_error"

    def test_ambraseys_menu_oracle_and_units(self):
        pred = one_row("ambraseys_menu", ay_ratio=0.5)
        assert pred.value[0] == pytest.approx(float(oracles.ambraseys_menu_exact(0.5)), abs=1e-12)
        assert pred.scale == "log10_D_m"
        alt = one_row("ambraseys_menu", ambraseys_cm=True, ay_ratio=0.5)
        assert alt.value[0] == pred.value[0]
        assert alt.scale == "log10_D_cm"
        assert alt.d_m[0] == pytest.approx(pred.d_m[0] / 100.0)

    def test_ambraseys_menu_range(self):
        assert one_row("ambraseys_menu", ay_ratio=0.05, m_w=7.0).in_range[0]
        assert not one_row("ambraseys_menu", ay_ratio=0.04, m_w=7.0).in_range[0]

    def test_jibson(self):
        assert ok_value("jibson", ay_ratio=0.5) == pytest.approx(
            float(oracles.jibson_exact(0.5)), abs=1e-12)
        assert one_row("jibson", ay_ratio=1.0).status[0] == "domain_error"
        assert one_row("jibson", ay_ratio=0.4, m_w=6.0, a_y=0.2).in_range[0]

    def test_saygili_rathje(self):
        assert ok_value("saygili_rathje", a_max=1.0, ay_ratio=0.0) == pytest.approx(5.52, abs=1e-15)
        result = one_row("saygili_rathje", a_max=0.3, ay_ratio=0.4)
        assert result.value[0] == pytest.approx(
            float(oracles.saygili_rathje_exact(0.3, 0.4)), abs=1e-12)
        assert result.scale == "ln_D_cm"
        assert one_row("saygili_rathje", a_max=0.0, ay_ratio=0.4).status[0] == "domain_error"
        assert one_row("saygili_rathje", a_max=0.5, ay_ratio=0.2, m_w=6.0, a_y=0.1).in_range[0]

    def test_madiai(self):
        got = ok_value("madiai", ay_ratio=0.5)
        expected = -0.418 - 0.857 * math.log10(0.5) + 2.26 * math.log10(0.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(float(oracles.madiai_exact(0.5)), abs=1e-12)
        assert one_row("madiai", ay_ratio=1.0).status[0] == "domain_error"
        assert one_row("madiai", ay_ratio=0.1).in_range[0]
        assert not one_row("madiai", ay_ratio=0.05).in_range[0]

    def test_tsai_chien(self):
        assert ok_value("tsai_chien", a_max=1.0, ay_ratio=0.0, t_m=1.0) == pytest.approx(
            6.4, abs=1e-15)
        assert ok_value("tsai_chien", a_max=0.25, ay_ratio=0.3, t_m=0.5) == pytest.approx(
            float(oracles.tsai_chien_exact(0.25, 0.3, 0.5)), abs=1e-12)
        assert one_row("tsai_chien", a_max=0.25, ay_ratio=0.3, t_m=0.0).status[0] == "domain_error"
        assert one_row("tsai_chien", a_max=-1.0, ay_ratio=0.3, t_m=0.5).status[0] == "domain_error"

    def test_tsai_chien_missing_tm_is_not_applicable(self):
        result = predict("tsai_chien", sample_input(t_m=None))
        assert result.status.tolist() == ["missing_input"]
        assert math.isnan(result.value[0]) and math.isnan(result.d_m[0])

    def test_oracle_grids_all_models(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.02, 0.95)
            a_max = rng.uniform(0.06, 0.9)
            t_m = rng.uniform(0.2, 1.2)
            assert ok_value("hynes_griffin", ay_ratio=x) == pytest.approx(
                float(oracles.hynes_griffin_exact(x)), abs=1e-9)
            assert ok_value("ambraseys_menu", ay_ratio=x) == pytest.approx(
                float(oracles.ambraseys_menu_exact(x)), abs=1e-9)
            assert ok_value("jibson", ay_ratio=x) == pytest.approx(
                float(oracles.jibson_exact(x)), abs=1e-9)
            assert ok_value("saygili_rathje", a_max=a_max, ay_ratio=x) == pytest.approx(
                float(oracles.saygili_rathje_exact(a_max, x)), abs=1e-9)
            assert ok_value("madiai", ay_ratio=x) == pytest.approx(
                float(oracles.madiai_exact(x)), abs=1e-9)
            assert ok_value("tsai_chien", a_max=a_max, ay_ratio=x, t_m=t_m) == pytest.approx(
                float(oracles.tsai_chien_exact(a_max, x, t_m)), abs=1e-9)


# D in meters from a value on each scale tag, written out independently
METERS = {
    "ln_D_m": math.exp,
    "ln_D_cm": lambda v: math.exp(v) / 100.0,
    "log10_D_m": lambda v: 10.0 ** v,
    "log10_D_cm": lambda v: 10.0 ** v / 100.0,
}


class TestScalesAndRegistry:
    def test_unit_round_trip(self):
        # each scale tag reached by a model converts its value to meters
        inp = sample_input()
        scales = set()
        for model_id in displacement.MODEL_IDS:
            for cm in (False, True):
                result = predict(model_id, inp, ambraseys_cm=cm)
                assert result.d_m[0] == pytest.approx(
                    METERS[result.scale](result.value[0]), rel=1e-15)
                scales.add(result.scale)
        assert scales == set(METERS)

    def test_prediction_meters_consistent(self):
        result = predict("gep", sample_input())
        assert result.d_m[0] == pytest.approx(math.exp(result.value[0]), rel=1e-15)
        result = predict("jibson", sample_input())
        assert result.d_m[0] == pytest.approx(10.0 ** result.value[0] / 100.0, rel=1e-15)

    def test_registry_covers_all_ids(self):
        inp = sample_input()
        for model_id in displacement.MODEL_IDS:
            result = predict(model_id, inp)
            assert result.status.tolist() == ["ok"]
            assert math.isfinite(result.d_m[0])

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            predict("newmark", sample_input())
        with pytest.raises(ValueError):
            check_applicability("newmark", sample_input())

    def test_gep_pole_via_registry(self):
        inp = sample_input(t_p=1.0, t_d=POLE_PERIOD_RATIO)
        result = predict("gep", inp)
        assert result.status.tolist() == ["pole"]
        assert math.isnan(result.value[0])


class TestApplicability:
    def test_jibson_magnitude_bound(self):
        violations = check_applicability("jibson", sample_input(m_w=8.0))
        assert violations
        assert any("Mw" in v and "7.6" in v for v in violations)

    def test_hynes_griffin_in_range(self):
        assert check_applicability("hynes_griffin", sample_input(m_w=7.0, a_max=0.3, a_y=0.09)) == ()

    def test_tsai_chien_amax_bound(self):
        violations = check_applicability("tsai_chien", sample_input(a_max=0.5, a_y=0.15))
        assert violations
        assert any("a_max" in v for v in violations)

    def test_gep_has_no_published_bounds(self):
        assert check_applicability("gep", sample_input(m_w=9.9)) == ()

    def test_bad_range_definition_rejected(self):
        with pytest.raises(ValueError):
            ApplicabilityRange(m_w=(8.0, 5.0))


class TestFundamentalPeriod:
    """T_d = 4H/Vs, which the loader derives for rows with a blank Td_s."""

    @staticmethod
    def derived_periods(tmp_path, geometry):
        rows = "".join(f"{i},7.0,0.3,0.4,,0.1,0.5,,{h},{vs}\n" for i, (h, vs) in enumerate(geometry))
        path = tmp_path / "cases.csv"
        path.write_text(",".join(data.CSV_HEADER) + "\n" + rows, encoding="utf-8")
        return [r.t_d for r in data.load(path)]

    def test_direct_values(self, tmp_path):
        assert self.derived_periods(tmp_path, ((25.0, 200.0), (100.0, 400.0))) == [0.5, 1.0]

    def test_realistic_inputs_fall_in_database_span(self, tmp_path):
        # documentation check against the published Td span, not an enforced bound
        periods = self.derived_periods(tmp_path, ((5.0, 250.0), (40.0, 300.0), (90.0, 280.0)))
        assert all(0.05 <= t <= 1.58 for t in periods)


class TestSensitivity:
    def test_singleton_grid_equals_direct_call(self):
        points = sensitivity_profile("Mw", [6.0])
        assert len(points) == 1
        assert points[0].ln_d == gep_ln_displacement(6.0, MEAN_AY_RATIO, MEAN_PERIOD_RATIO)

    def test_magnitude_trend_increasing(self):
        grid = np.linspace(4.9, 8.3, 35)
        values = [p.ln_d for p in sensitivity_profile("Mw", grid)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_ay_ratio_anchor_comparison(self):
        lo = sensitivity_profile("ay_ratio", [0.5])[0].ln_d
        hi = sensitivity_profile("ay_ratio", [1.0])[0].ln_d
        assert hi < lo

    def test_period_ratio_trend_above_local_max(self):
        # exact-arithmetic oracle shows ln D rises from the pole up to a local
        # max near r = 1.80 at the mean anchors, then falls; the strictly
        # decreasing branch starts there
        f_15 = float(oracles.gep_formula_exact(MEAN_MW, MEAN_AY_RATIO, 1.5))
        f_18 = float(oracles.gep_formula_exact(MEAN_MW, MEAN_AY_RATIO, 1.8))
        assert f_18 > f_15  # not monotone on [1.5, 4.0]
        grid = np.linspace(1.9, 4.0, 30)
        oracle_vals = [float(oracles.gep_formula_exact(MEAN_MW, MEAN_AY_RATIO, float(r))) for r in grid]
        assert all(b < a for a, b in zip(oracle_vals, oracle_vals[1:]))
        values = [p.ln_d for p in sensitivity_profile("period_ratio", grid)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_pole_markers_emitted(self):
        grid = [1.2, POLE_PERIOD_RATIO, 1.4]
        points = sensitivity_profile("period_ratio", grid)
        assert [p.pole for p in points] == [False, True, False]
        assert points[1].ln_d is None

    def test_domain_error_marked(self):
        points = sensitivity_profile("Mw", [0.0, 7.0])
        assert [(p.status, p.pole) for p in points] == [("domain_error", False), ("ok", False)]
        assert points[0].ln_d is None
        assert points[1].ln_d == gep_ln_displacement(7.0, MEAN_AY_RATIO, MEAN_PERIOD_RATIO)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sensitivity_profile("Tp", [1.0])
        with pytest.raises(ValueError):
            sensitivity_profile("Mw", [7.0], anchors={"bogus": 1.0})


class TestModelInput:
    def test_ratios_recomputed(self):
        inp = sample_input(a_y=0.12, a_max=0.4, t_d=0.9, t_p=0.3)
        assert inp.ay_ratio == 0.12 / 0.4
        assert inp.period_ratio == 0.9 / 0.3

    def test_invariants(self):
        with pytest.raises(ValueError):
            sample_input(a_max=0.0)
        with pytest.raises(ValueError):
            sample_input(t_p=-0.1)
        with pytest.raises(ValueError):
            sample_input(a_y=-0.01)
        with pytest.raises(ValueError):
            sample_input(t_d=-0.5)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def model_inputs(draw):
    """One ModelInput with weight on the domain edges: Mw at 0 and 1e+-300,
    ay/amax at 0 and 1, the period ratio at the pole and pole +- eps, and a
    missing or overflowing T_m."""
    eps = DEFAULT_POLE_EPS
    m_w = draw(st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300, 1e-10, 7.0, 8.3])
               | st.floats(-10.0, 10.0))
    a_max = draw(st.sampled_from([1e-300, 1e-200, 0.3, 1.0, 1e300]) | st.floats(1e-3, 2.0))
    ratio = draw(st.sampled_from([0.0, 1.0, 0.01, 0.05, 0.6, 0.95, 1e-300, 1e300])
                 | st.floats(0.0, 4.0))
    a_y = ratio * a_max if math.isfinite(ratio * a_max) else 1e300
    t_p = draw(st.sampled_from([1e-300, 0.4, 1.0, 1e300]) | st.floats(0.05, 2.0))
    pole = POLE_PERIOD_RATIO
    period = draw(st.sampled_from([pole, pole + eps, pole - eps, pole + 0.999 * eps,
                                   pole - 1.001 * eps, 0.0, 1e300]) | st.floats(0.0, 5.0))
    t_d = period * t_p if math.isfinite(period * t_p) else 1e300
    t_m = draw(st.none() | st.sampled_from([1e300, 1e-300, 0.0, -1.0]) | st.floats(0.01, 2.0))
    return ModelInput(m_w=m_w, a_max=a_max, t_p=t_p, t_d=t_d, a_y=a_y, t_m=t_m)


def input_row(inp: ModelInput) -> dict:
    return {"m_w": inp.m_w, "a_max": inp.a_max, "a_y": inp.a_y, "ay_ratio": inp.ay_ratio,
            "period_ratio": inp.period_ratio, "t_m": inp.t_m}


def input_columns(inputs) -> dict:
    """evaluate's columns of ModelInputs; NaN marks a missing T_m."""
    rows = [input_row(inp) for inp in inputs]
    return {name: [math.nan if r[name] is None else r[name] for r in rows] for name in rows[0]}


def gep_status(inp: ModelInput, eps: float):
    """``gep_ln_displacement`` on one input: its value and ``ok``, or None
    and the status its error stands for."""
    try:
        return gep_ln_displacement(inp.m_w, inp.ay_ratio, inp.period_ratio, eps), "ok"
    except PoleError:
        return None, "pole"
    except ModelDomainError:
        return None, "domain_error"


class TestModelTable:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(model_inputs(), min_size=1, max_size=8),
           st.sampled_from(displacement.MODEL_IDS), st.booleans(),
           st.sampled_from([DEFAULT_POLE_EPS, 1e-9, 0.5]))
    def test_evaluate_equals_scalar_paths_bitwise(self, inputs, model_id, cm, eps):
        result = evaluate(model_id, input_columns(inputs), eps, cm)
        for i, inp in enumerate(inputs):
            got = (result.value[i], result.d_m[i], result.in_range[i], result.status[i])
            value, d_m, in_range, status = reference_row(model_id, input_row(inp), eps, cm)
            assert (bits(got[0]), bits(got[1]), got[2], got[3]) == (
                bits(value), bits(d_m), in_range, status)
            assert (check_applicability(model_id, inp) == ()) == in_range
            pred = predict(model_id, inp, eps, cm)
            assert (bits(pred.value[0]), bits(pred.d_m[0]), pred.in_range[0], pred.status[0]) == (
                bits(value), bits(d_m), in_range, status)
            if model_id == "gep":
                own, own_status = gep_status(inp, eps)
                assert own_status == status
                if status == "ok":
                    assert bits(own) == bits(value)

    def test_overflowing_formula_is_domain_error(self):
        # ay/amax = 9e197: x**2 overflows in the polynomial models
        for model_id in ("hynes_griffin", "saygili_rathje", "tsai_chien"):
            inp = sample_input(a_max=1e-200)
            assert predict(model_id, inp).status.tolist() == ["domain_error"]
            result = evaluate(model_id, input_columns([inp]))
            assert result.status.tolist() == ["domain_error"]
            assert math.isnan(result.value[0]) and math.isnan(result.d_m[0])

    def test_nonfinite_meters_is_domain_error(self):
        # ln D (cm) = 1218 is finite, but D in meters overflows
        assert evaluate("tsai_chien", {"a_max": [0.25], "ay_ratio": [0.3], "t_m": [1e300]}
                        ).status.tolist() == ["domain_error"]

    def test_pole_eps_must_be_positive(self):
        # 0 or NaN would turn the pole check off: a row at Td/Tp = 1.2707
        # would give ln D = -1536 and D = 0.0 with status ok
        columns = {"m_w": [7.0], "ay_ratio": [0.5], "period_ratio": [1.2707]}
        assert evaluate("gep", columns).status.tolist() == ["pole"]
        for eps in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="pole_eps"):
                evaluate("gep", columns, pole_eps=eps)
            with pytest.raises(ValueError, match="pole_eps"):
                gep_ln_displacement(7.0, 0.5, 1.2707, pole_eps=eps)
