import math

import numpy as np
import pytest

from embgep.metrics import (
    MetricsError,
    PredictionSet,
    bias,
    correlation_matrix,
    cumulative_frequency,
    mae_conventional,
    mae_paper,
    metrics_report,
    pearson_r,
    r_squared,
    relative_error,
    residual_summary,
    rmse,
    scatter_index,
)


def pset(ym, yp):
    return PredictionSet(np.asarray(ym, float), np.asarray(yp, float))


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared(pset([1, 2, 3], [1, 2, 3])) == 1.0

    def test_mean_predictor(self):
        assert r_squared(pset([1, 2, 3], [2, 2, 2])) == 0.0

    def test_hand_computed(self):
        # pairs {(1,2),(2,2),(3,2),(4,3)}: SSE = 1+0+1+1 = 3, SST = 5
        assert r_squared(pset([1, 2, 3, 4], [2, 2, 2, 3])) == pytest.approx(1 - 3 / 5)

    def test_constant_measured_rejected(self):
        with pytest.raises(MetricsError):
            r_squared(pset([2, 2], [1, 3]))


class TestMaePaper:
    def test_perfect(self):
        assert mae_paper(pset([1, 2], [1, 2])) == 0.0

    def test_direct_substitution(self):
        # (1/2) * (|2-1| + |0-1|) / (1+1) = 0.5
        assert mae_paper(pset([1, 1], [2, 0])) == 0.5

    def test_identity_with_mae_conventional(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            ym = rng.uniform(0.5, 5.0, n)
            yp = ym + rng.normal(0, 1, n)
            p = pset(ym, yp)
            assert mae_paper(p) == pytest.approx(mae_conventional(p) / float(ym.sum()), abs=1e-12)

    def test_zero_sum_rejected(self):
        with pytest.raises(MetricsError):
            mae_paper(pset([1, -1], [0, 0]))


class TestRmseBiasSi:
    def test_perfect_all_zero(self):
        p = pset([1, 2, 3], [1, 2, 3])
        assert (r_squared(p), mae_paper(p), rmse(p), scatter_index(p), bias(p)) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_single_pair(self):
        assert rmse(pset([0], [3])) == 3.0

    def test_symmetric_errors(self):
        assert rmse(pset([0, 0], [1, -1])) == 1.0

    def test_si_direct(self):
        p = pset([4, 4], [6, 2])  # rmse 2, mean 4
        assert scatter_index(p) == 0.5

    def test_si_zero_mean_guarded(self):
        with pytest.raises(MetricsError):
            scatter_index(pset([1, -1], [1, -1]))

    def test_bias_direct(self):
        # errors +1 and -2: signed mean -0.5
        assert bias(pset([1, 5], [2, 3])) == -0.5

    def test_bias_not_above_rmse(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            p = pset(rng.normal(0, 2, n), rng.normal(0, 2, n))
            assert bias(p) <= rmse(p) + 1e-12

    def test_bias_is_signed_mean_error(self):
        # errors +1 and -1 cancel in the bias but not in the absolute error
        p = pset([1, 1], [2, 0])
        assert (bias(p), mae_conventional(p)) == (0.0, 1.0)


class TestRelativeError:
    def test_anchors(self):
        assert relative_error(2.0, 2.0) == 0.0
        assert relative_error(2.0, 4.0) == 100.0
        assert relative_error(2.0, 1.0) == -50.0

    def test_vectorised(self):
        out = relative_error([1.0, 2.0], [2.0, 1.0])
        assert np.allclose(out, [100.0, -50.0])

    def test_zero_measured_rejected(self):
        with pytest.raises(MetricsError):
            relative_error(0.0, 1.0)


class TestPearson:
    def test_identity(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson_r(x, x) == 1.0

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson_r(x, -x) == -1.0

    def test_affine_invariance(self):
        x = np.array([0.2, 1.0, 3.0, 4.0])
        assert pearson_r(x, 2 * x + 3) == pytest.approx(1.0)

    def test_constant_rejected(self):
        with pytest.raises(MetricsError):
            pearson_r(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_matrix_layout(self, rng):
        cols = {f"p{i}": rng.normal(0, 1, 30) for i in range(4)}
        names, mat = correlation_matrix(cols)
        assert names == tuple(cols)
        assert np.allclose(np.diag(mat), 1.0)
        assert np.allclose(mat, mat.T)


class TestCumulativeFrequency:
    def test_counting(self):
        assert cumulative_frequency([-10, 0, 10], [0.0])[0] == pytest.approx(2 / 3)

    def test_bounds(self):
        errs = [1.0, 2.0, 3.0]
        assert cumulative_frequency(errs, [0.5])[0] == 0.0
        assert cumulative_frequency(errs, [3.0])[0] == 1.0
        assert cumulative_frequency(errs, [99.0])[0] == 1.0

    def test_monotone_on_random_inputs(self, rng):
        for _ in range(200):
            errs = rng.normal(0, 50, int(rng.integers(1, 60)))
            grid = np.sort(rng.uniform(-150, 150, 20))
            fracs = cumulative_frequency(errs, grid)
            assert np.all(np.diff(fracs) >= 0)
            assert np.all((0 <= fracs) & (fracs <= 1))

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            cumulative_frequency([], [0.0])


class TestResidualSummary:
    def test_degenerate_perfect_fit(self):
        summary = residual_summary(pset([1, 2, 3], [1, 2, 3]))
        assert summary.degenerate
        assert summary.sd == 0.0
        assert summary.counts.sum() == 3

    def test_two_point_case(self):
        summary = residual_summary(pset([0, 0], [-1, 1]))
        assert summary.mean_abs == 1.0
        assert summary.sd == pytest.approx(math.sqrt(2))
        assert summary.marker_low == pytest.approx(-math.sqrt(2))
        assert summary.marker_high == pytest.approx(math.sqrt(2))

    def test_histogram_counts_sum_to_n(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 80))
            summary = residual_summary(pset(rng.normal(0, 1, n), rng.normal(0, 1, n)))
            assert summary.counts.sum() == n

    def test_needs_two_pairs(self):
        with pytest.raises(MetricsError):
            residual_summary(pset([1.0], [2.0]))


class TestReport:
    def test_report_fields(self, rng):
        ym = rng.uniform(1, 3, 25)
        yp = ym + rng.normal(0, 0.5, 25)
        rep = metrics_report(pset(ym, yp))
        assert rep.n == 25
        assert rep.bias == pytest.approx(float(np.mean(yp - ym)), abs=1e-15)
        assert rep.rmse >= rep.mae_conventional >= abs(rep.bias)

    def test_shape_validation(self):
        with pytest.raises(MetricsError):
            PredictionSet(np.zeros(3), np.zeros(4))
        with pytest.raises(MetricsError):
            PredictionSet(np.zeros(0), np.zeros(0))
