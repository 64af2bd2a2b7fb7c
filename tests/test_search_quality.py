"""What the engine finds against the relationship planted in its own search
space, on data that the planted chromosome fits exactly.

The data are 85 synthetic rows (``default_rng(11)``, no noise) whose targets
are the exact, unclipped ``gep`` ln D, and a noisy twin of them that adds
N(0, 0.8) drawn from noise seed 12.  ``evolution.run`` evolves on each with
the published defaults for seeds 1 to 10.  The floors below are the medians
the engine reaches today, so a change that lowers what the search finds
fails here; a change that raises them should raise the floors too.
"""

from pathlib import Path

import numpy as np
import pytest

from embgep import data, displacement, evolution, karva, kernels, metrics

PLANTED = Path(__file__).resolve().parent / "fixtures" / "gep_planted.kexpr"
SEEDS = range(1, 11)
NOISE_SD = 0.8
# today's medians over SEEDS, rounded down: fitness 385.641 and R^2 0.5151
# noise-free, fitness 377.458 and R^2 0.5054 on the noisy twin
FLOORS = {"noise-free": (385.6, 0.515), "noisy": (377.4, 0.505)}


@pytest.fixture(scope="module")
def datasets():
    table = data.synthesize(data.EMBANKMENT_SUMMARY, 85, np.random.default_rng(11), noise_sd=0.0)
    X, _ = data.regression_arrays(table)
    y = displacement.evaluate("gep", table.model_columns()).value
    noisy = y + np.random.default_rng(12).normal(0.0, NOISE_SD, y.size)
    return X, {"noise-free": y, "noisy": noisy}


def r_squared(codes, pools, X, y):
    return metrics.r_squared(metrics.PredictionSet(y, kernels.evaluate_codes(codes, pools, X, 3)))


def test_planted_chromosome_fits_the_noise_free_data_exactly(datasets):
    X, targets = datasets
    codes, pools = karva.kexpr_codes(PLANTED.read_text(encoding="utf-8"), 3)
    predicted = kernels.evaluate_codes(codes, pools, X, 3)
    rmse = np.sqrt(np.mean((predicted - targets["noise-free"]) ** 2))
    assert 1000.0 / (1.0 + rmse) == pytest.approx(1000.0, abs=1e-9)
    assert r_squared(codes, pools, X, targets["noise-free"]) == pytest.approx(1.0, abs=1e-12)
    assert r_squared(codes, pools, X, targets["noisy"]) == pytest.approx(0.903, abs=5e-4)


@pytest.mark.parametrize("name", FLOORS)
def test_found_medians_hold_the_floor(datasets, name):
    X, targets = datasets
    y = targets[name]
    fitness, r2 = [], []
    for seed in SEEDS:
        result = evolution.run(evolution.GepConfig(rng_seed=seed), X, y)
        fitness.append(result.report.fitness)
        r2.append(r_squared(result.best_codes, result.best_pools, X, y))
    fitness_floor, r2_floor = FLOORS[name]
    assert np.median(fitness) >= fitness_floor, fitness
    assert np.median(r2) >= r2_floor, r2
