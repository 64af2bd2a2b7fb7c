import contextlib
import hashlib
import math
import os
import signal
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_sound_codes, child_pids, random_chromosome
from embgep import data, evolution, karva, kernels
from embgep.evolution import (
    ConfigError,
    GepConfig,
    OperatorRates,
    _one_point_recombination,
    apply_operators,
    config_from_text,
    fitness,
    initialize,
    run,
    select,
    sweep,
)
from embgep.karva import Chromosome, Gene
from oracles import population_views


def identity_gene(head_size=1):
    head = ("d0",) + ("d0",) * (head_size - 1)
    tail = ("d0",) * karva.tail_length(head_size)
    return Gene(head, tail, tuple(float(i) for i in range(10)))


def div_by_input_gene():
    # c0 / d0: non-finite whenever d0 == 0
    head = ("/", "c0")
    tail = ("d0",) * 3
    return Gene(head, tail, (1.0,) + (0.0,) * 9)


class TestFitness:
    def test_perfect_fit_is_exactly_1000(self):
        chrom = Chromosome((identity_gene(),))
        X = np.linspace(-2, 2, 20).reshape(-1, 1)
        report = fitness(chrom, X, X[:, 0])
        assert report.fitness == 1000.0
        assert report.rmse == 0.0

    def test_rmse_one_gives_500(self):
        chrom = Chromosome((identity_gene(),))
        X = np.zeros((10, 1))
        report = fitness(chrom, X, np.ones(10))
        assert report.rmse == 1.0
        assert report.fitness == 500.0

    def test_identity_holds(self, rng):
        X = rng.uniform(0.5, 2.0, (30, 3))
        y = rng.uniform(-1, 1, 30)
        for _ in range(20):
            report = fitness(random_chromosome(rng), X, y)
            assert report.fitness == 1000.0 / (1.0 + report.rmse)

    def test_nonfinite_prediction_forces_zero(self):
        chrom = Chromosome((div_by_input_gene(),))
        X = np.array([[1.0], [0.0]])
        report = fitness(chrom, X, np.zeros(2))
        assert report.fitness == 0.0
        assert math.isinf(report.rmse)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fitness(Chromosome((identity_gene(),)), np.zeros((0, 1)), np.zeros(0))


# genes of head 3 over d0, d1 (and c0 = 1e8): where a row holds 0.0 or 1e300
# they divide by zero, overflow a product, subtract inf from inf and, two at
# once, overflow the gene sum; a bare d0 of 1e300 overflows the squared error
OVERFLOWING_GENES = {
    "big": "* d0 c0 d0 d0 d0 d0",
    "over_square": "/ d0 * d1 d1 d0 d0",
    "inf_minus_inf": "- * * d0 d0 d0 d0",
    "bare": "d0 d1 d1 d1 d1 d1 d1",
}
EDGE_ROWS = np.array([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300], [1e300, 1e300], [1.0, 2.0]])


def kexpr(*names):
    pool = " 1e8" + " 0" * (karva.POOL_SIZE - 1)
    text = "".join(f"{OVERFLOWING_GENES[name]} |{pool}\n" for name in names)
    return karva.kexpr_codes(text, 2)


@pytest.mark.parametrize("names", [("big", "big"), ("over_square",), ("inf_minus_inf",),
                                   ("bare",), ("big", "over_square", "inf_minus_inf", "bare")])
def test_no_floating_point_warning_escapes_an_evaluator(names):
    codes, pools = kexpr(*names)
    columns = np.ascontiguousarray(EDGE_ROWS.T)
    y = np.zeros(len(EDGE_ROWS))
    lengths = karva.coding_lengths(codes).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels.gene_sum(codes, pools, lengths, columns, 2)
        predicted = kernels.evaluate_codes(codes, pools, EDGE_ROWS, 2)
        [chrom] = population_views(codes[None], pools[None], 2)
        report = fitness(chrom, EDGE_ROWS, y)
        # the same arithmetic outside any np.errstate does warn
        with np.errstate(all="warn"), pytest.raises(RuntimeWarning):
            evolution._report(*kernels._gene_sum(codes, pools, lengths, columns, 2), y)
    assert np.isfinite(predicted[-1])
    assert (report.fitness, report.rmse) == (0.0, math.inf)


def test_no_floating_point_warning_escapes_a_run():
    X = np.tile(EDGE_ROWS, (4, 1))
    config = GepConfig(num_chromosomes=20, num_inputs=2, max_generations=30,
                       stagnation_limit=30, rng_seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(config, X, np.ones(len(X)))
    assert sum(result.zero_fitness_history) > 0


class TestInitialize:
    def test_deterministic_under_seed(self):
        config = GepConfig(rng_seed=7)
        a_codes, a_pools = initialize(config, np.random.default_rng(7))
        b_codes, b_pools = initialize(config, np.random.default_rng(7))
        assert np.array_equal(a_codes, b_codes) and np.array_equal(a_pools, b_pools)
        assert (population_views(a_codes, a_pools, config.num_inputs)
                == population_views(b_codes, b_pools, config.num_inputs))

    def test_all_valid(self):
        config = GepConfig(num_inputs=3)
        codes, pools = initialize(config, np.random.default_rng(0))
        assert_sound_codes(codes, pools, 3)

    def test_published_defaults_geometry(self):
        config = GepConfig()
        codes, pools = initialize(config, np.random.default_rng(1))
        assert len(codes) == len(pools) == 50
        views = population_views(codes, pools, config.num_inputs)
        assert all(len(c.genes) == 4 for c in views)
        assert all(g.length == 15 for c in views for g in c.genes)

    def test_pool_constants_in_range(self):
        config = GepConfig()
        for c in population_views(*initialize(config, np.random.default_rng(3)),
                                  config.num_inputs):
            for g in c.genes:
                assert all(-10.0 <= v <= 10.0 for v in g.constants)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("geometry", [dict(), dict(num_chromosomes=3, num_genes=1, head_size=2),
                                          dict(num_chromosomes=9, num_genes=5, head_size=11,
                                               num_inputs=7)])
    def test_chunked_draws_equal_one_int64_draw(self, monkeypatch, geometry, chunk):
        # the one-call form draws every position as int64 and casts after
        config = GepConfig(**geometry)
        rng = np.random.default_rng(41)
        shape = (config.num_chromosomes, config.num_genes)
        n_symbols = len(karva.alphabet(config.num_inputs))
        heads = rng.integers(0, n_symbols, size=shape + (config.head_size,))
        tails = rng.integers(karva.NUM_FUNCTIONS, n_symbols,
                             size=shape + (karva.tail_length(config.head_size),))
        want_codes = np.concatenate((heads, tails), axis=2)
        want_codes = want_codes.astype(karva.code_dtype(config.num_inputs))
        want_pools = rng.uniform(-10.0, 10.0, size=shape + (karva.POOL_SIZE,))
        monkeypatch.setattr(evolution, "_DRAW_CHUNK", chunk)
        got = np.random.default_rng(41)
        codes, pools = initialize(config, got)
        assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
        assert pools.tobytes() == want_pools.tobytes()
        assert got.bit_generator.state == rng.bit_generator.state


class TestSelect:
    def test_degenerate_roulette(self):
        fits = [0.0, 0.0, 1000.0, 0.0, 0.0]
        idx = select(fits, np.random.default_rng(0))
        assert idx.tolist() == [2] * 5

    def test_equal_fitness_is_uniform(self):
        # 1e5 draws over 8 slots: each within 3 sigma of n*p
        n_items, draws = 8, 100_000
        rng = np.random.default_rng(42)
        counts = np.zeros(n_items)
        per_call = n_items - 1
        for _ in range(draws // per_call + 1):
            idx = select([100.0] * n_items, rng)
            counts += np.bincount(idx[1:], minlength=n_items)
        total = counts.sum()
        p = 1.0 / n_items
        sigma = math.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 3.0 * sigma)

    def test_all_zero_falls_back_to_uniform_with_elitism(self):
        idx = select([0.0] * 6, np.random.default_rng(5))
        assert len(idx) == 6
        assert idx[0] == 0  # argmax of all-zero is index 0

    def test_roulette_draws_what_generator_choice_draws(self):
        # 1,200 fitness vectors of 2 to 60 entries, 300 of each kind
        source = np.random.default_rng(2024)
        kinds = {
            "random": lambda n: source.uniform(0.0, 1000.0, n),
            "mostly_zero": lambda n: np.where(source.random(n) < 0.85, 0.0,
                                              source.uniform(0.0, 1000.0, n)),
            "all_equal": lambda n: np.full(n, source.uniform(1e-3, 1000.0)),
            "wide": lambda n: 10.0 ** source.uniform(-300.0, 3.0, n),
        }
        for kind, draw in kinds.items():
            for case in range(300):
                n = int(source.integers(2, 61))
                fits = draw(n)
                if kind == "mostly_zero" and not fits.any():
                    fits[source.integers(0, n)] = source.uniform(0.0, 1000.0)
                ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
                idx = select(fits, ours)
                expected = np.concatenate(
                    ([np.argmax(fits)], theirs.choice(n, n - 1, p=fits / fits.sum())))
                assert idx.dtype == expected.dtype, kind
                assert np.array_equal(idx, expected), (kind, case)
                assert ours.bit_generator.state == theirs.bit_generator.state, (kind, case)


def only(rate_name, value):
    """Operator rates with one stage at ``value`` and every other at 0."""
    return OperatorRates(**{**{k: 0.0 for k in OperatorRates().as_dict()}, rate_name: value})


class TestOperators:
    def test_all_rates_zero_is_identity(self, rng):
        config = GepConfig(rates=OperatorRates(**{k: 0.0 for k in OperatorRates().as_dict()}))
        codes, pools = initialize(config, rng)
        out_codes, out_pools = codes.copy(), pools.copy()
        apply_operators(out_codes, out_pools, config, rng)
        assert np.array_equal(codes, out_codes) and np.array_equal(pools, out_pools)

    def test_mutation_rate_one_resamples_every_position(self):
        config = GepConfig(num_chromosomes=2, num_genes=1, head_size=7, num_inputs=2,
                           rates=only("mutation", 1.0))
        rng = np.random.default_rng(9)
        codes, pools = initialize(config, rng)
        apply_operators(codes, pools, config, rng)
        assert_sound_codes(codes, pools, 2)
        for chrom in population_views(codes, pools, 2):
            for gene in chrom.genes:
                assert all(s not in karva.FUNCTION_TOKENS for s in gene.tail)

    def test_structural_soundness_bulk(self, rng):
        # scaled-down version of the acceptance gate
        config = GepConfig(num_chromosomes=20, num_inputs=3)
        codes, pools = initialize(config, rng)
        for _ in range(50):
            apply_operators(codes, pools, config, rng)
            assert_sound_codes(codes, pools, 3)
            for chrom in population_views(codes, pools, 3):
                assert len(chrom.genes) == 4
                assert all(g.length == 15 for g in chrom.genes)

    def test_recombination_conserves_symbol_multiset(self, rng):
        for rate_name in ("one_point_recombination", "two_point_recombination",
                          "uniform_recombination", "gene_recombination"):
            config = GepConfig(num_chromosomes=2, rates=only(rate_name, 1.0))
            codes, pools = initialize(config, rng)
            out_codes, out_pools = codes.copy(), pools.copy()
            apply_operators(out_codes, out_pools, config, rng)
            for before, after in ((codes, out_codes), (pools, out_pools)):
                # every exchange swaps cells between the pair at the same position
                assert np.array_equal(np.sort(before, axis=0), np.sort(after, axis=0))
            before = sorted(s for ch in population_views(codes, pools, 3)
                            for g in ch.genes for s in g.symbols)
            after = sorted(s for ch in population_views(out_codes, out_pools, 3)
                           for g in ch.genes for s in g.symbols)
            assert before == after


class OneSite:
    """Generator stand-in whose per-site draw picks exactly one site for a
    positive rate and none otherwise."""

    def __init__(self, rng):
        self.rng = rng

    def binomial(self, n, p):
        return int(p > 0)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class FixedCut:
    """Generator stand-in for one-point cuts at a chosen position."""

    def __init__(self, at):
        self.at = at

    def integers(self, low, high, size):
        return np.full(size, self.at)


class TestUntouchedGenesKept:
    def test_one_drawn_site_rebuilds_one_gene(self, rng):
        for rate_name in ("mutation", "conservative_mutation", "biased_mutation"):
            config = GepConfig(num_chromosomes=6, rates=only(rate_name, 0.5))
            for _ in range(30):
                codes, pools = initialize(config, rng)
                children, child_pools = codes.copy(), pools.copy()
                apply_operators(children, child_pools, config, OneSite(rng))
                edits = np.count_nonzero(children != codes)
                edits += np.count_nonzero(child_pools != pools)
                assert edits <= 1
                if rate_name == "biased_mutation":
                    assert edits == 1

    def test_one_point_cut_reuses_whole_parent_genes(self, rng):
        config = GepConfig(num_chromosomes=2)
        gene_len = config.gene_length
        first = np.array([0])
        parents, parent_pools = initialize(config, rng)
        (a, b), (pa, pb) = parents, parent_pools

        codes, pools = parents.copy(), parent_pools.copy()
        _one_point_recombination(codes, pools, first, FixedCut(2 * gene_len))
        assert np.array_equal(codes, [np.concatenate((a[:2], b[2:])), np.concatenate((b[:2], a[2:]))])
        assert np.array_equal(pools, [np.concatenate((pa[:2], pb[2:])),
                                      np.concatenate((pb[:2], pa[2:]))])
        # a cut inside gene 2 splits that gene only, which keeps its first parent's pool
        codes, pools = parents.copy(), parent_pools.copy()
        _one_point_recombination(codes, pools, first, FixedCut(2 * gene_len + 3))
        assert np.array_equal(codes[0, [0, 1, 3]], np.concatenate((a[:2], b[3:])))
        assert np.array_equal(codes[0, 2], np.concatenate((a[2, :3], b[2, 3:])))
        assert np.array_equal(pools[0], np.concatenate((pa[:3], pb[3:])))


class TestRun:
    def test_identity_target_recovered_exactly(self):
        # y = d0 is representable by a single terminal; most seeds should hit
        # fitness 1000 exactly within 100 generations
        data_rng = np.random.default_rng(99)
        X = data_rng.uniform(-2.0, 2.0, (50, 1))
        y = X[:, 0].copy()
        rates = OperatorRates(mutation=0.02, conservative_mutation=0.02)
        wins = 0
        for seed in range(10):
            config = GepConfig(
                num_chromosomes=50, head_size=7, num_genes=1, num_inputs=1,
                rates=rates, max_generations=100, stagnation_limit=100, rng_seed=seed,
            )
            result = run(config, X, y)
            if result.report.fitness == 1000.0:
                wins += 1
        assert wins >= 8

    def test_zero_generations_returns_initial_best(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        config = GepConfig(num_inputs=1, max_generations=0, rng_seed=3)
        result = run(config, X, X[:, 0])
        assert result.report.per_generation_best == ()
        assert result.mean_history == ()
        views = population_views(*initialize(config, np.random.default_rng(3)), config.num_inputs)
        best = max(fitness(c, X, X[:, 0]).fitness for c in views)
        assert result.report.fitness == best

    def test_history_nondecreasing_and_bounded(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        config = GepConfig(num_inputs=1, max_generations=40, rng_seed=11)
        result = run(config, X, 2.0 * X[:, 0])
        hist = result.report.per_generation_best
        assert len(hist) <= 40
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_bitwise_reproducible(self):
        X = np.linspace(0, 1, 15).reshape(-1, 1)
        config = GepConfig(num_inputs=1, max_generations=25, rng_seed=21)
        r1 = run(config, X, X[:, 0] + 1.0)
        r2 = run(config, X, X[:, 0] + 1.0)
        assert np.array_equal(r1.best_codes, r2.best_codes)
        assert r1.best_pools.tobytes() == r2.best_pools.tobytes()
        assert r1.report == r2.report
        assert r1.mean_history == r2.mean_history

    @pytest.mark.parametrize("mutation", [OperatorRates().mutation, 0.05])
    def test_program_cache_changes_no_result(self, monkeypatch, mutation):
        data_rng = np.random.default_rng(17)
        X = data_rng.uniform(-2.0, 2.0, (30, 3))
        X[::7, 1] = 0.0  # divisions by d1 flag these rows
        y = X[:, 0] * X[:, 2] - X[:, 1]
        rates = OperatorRates(mutation=mutation, biased_mutation=10 * mutation)
        config = GepConfig(num_chromosomes=20, rates=rates, max_generations=80,
                           stagnation_limit=80, rng_seed=6)
        cached = run(config, X, y)

        def every_chromosome(codes, pools, num_inputs, columns, y, prev_cache, timings):
            return ([fitness(c, columns.T, y) for c in population_views(codes, pools, num_inputs)],
                    prev_cache, len(codes))

        monkeypatch.setattr(evolution, "_evaluate_population", every_chromosome)
        plain = run(config, X, y)
        assert np.array_equal(cached.best_codes, plain.best_codes)
        assert cached.best_pools.tobytes() == plain.best_pools.tobytes()
        assert cached.report == plain.report
        assert cached.mean_history == plain.mean_history
        assert plain.evaluations == 20 * (len(plain.report.per_generation_best) + 1)
        assert 0 < cached.evaluations < plain.evaluations

    def test_elite_is_never_varied(self, monkeypatch):
        # every operator fires on every chromosome, so only slot 0 can keep
        # the previous generation's best
        data_rng = np.random.default_rng(5)
        X = data_rng.uniform(0.5, 2.0, (25, 2))
        y = X[:, 0] * X[:, 1] + 1.0
        rates = OperatorRates(**{k: 1.0 for k in OperatorRates().as_dict()})
        config = GepConfig(num_chromosomes=10, num_inputs=2, rates=rates, max_generations=15,
                           stagnation_limit=15, rng_seed=4)
        scored = []  # (codes, pools as passed, their copies then, the fitnesses)
        evaluate = evolution._evaluate_population

        def spy(codes, pools, *args):
            out = evaluate(codes, pools, *args)
            scored.append((codes, pools, codes.copy(), pools.copy(), [r.fitness for r in out[0]]))
            return out

        monkeypatch.setattr(evolution, "_evaluate_population", spy)
        result = run(config, X, y)
        assert len(scored) == config.max_generations + 1
        for (_, _, codes, pools, fits), (_, _, after, after_pools, _) in zip(scored, scored[1:]):
            best = int(np.argmax(fits))
            assert after[0].tobytes() == codes[best].tobytes()
            assert after_pools[0].tobytes() == pools[best].tobytes()
        # no generation's arrays were written after they were scored
        for codes, pools, codes_then, pools_then, _ in scored:
            assert codes.tobytes() == codes_then.tobytes()
            assert pools.tobytes() == pools_then.tobytes()
        lengths = karva.coding_lengths(result.best_codes).tolist()
        total, bad = kernels.gene_sum(result.best_codes, result.best_pools, lengths,
                                      np.ascontiguousarray(X.T), config.num_inputs)
        report = evolution._report(total, bad, y)
        assert (report.fitness, report.rmse) == (result.report.fitness, result.report.rmse)

    def test_copies_of_scored_chromosomes_are_not_evaluated(self):
        # no operator fires, so every later generation holds copies of
        # chromosomes scored in the generation before it
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        rates = OperatorRates(**{k: 0.0 for k in OperatorRates().as_dict()})
        config = GepConfig(num_chromosomes=12, num_inputs=1, rates=rates, max_generations=10,
                           stagnation_limit=10, rng_seed=1)
        result = run(config, X, X[:, 0])
        assert len(result.report.per_generation_best) == 10
        assert result.evaluations <= 12

    def test_each_generation_is_laid_out_once(self, monkeypatch):
        # the cache keys and every scored chromosome share one coding_lengths
        # call per generation, over the whole population
        layouts = []

        def counted(codes):
            layouts.append(codes.shape)
            return karva.coding_lengths(codes)

        monkeypatch.setattr(evolution, "coding_lengths", counted)
        monkeypatch.setattr(kernels, "coding_lengths", counted)
        X = np.random.default_rng(4).uniform(-2.0, 2.0, (20, 3))
        config = GepConfig(num_chromosomes=12, max_generations=15, stagnation_limit=15,
                           rng_seed=8)
        result = run(config, X, X[:, 0] * X[:, 1])
        assert len(result.report.per_generation_best) == 15
        assert result.evaluations > 16  # some chromosome was scored after the first generation
        assert layouts == [(12, config.num_genes, config.gene_length)] * 16

    # the published-default run on 85 synthetic rows, all 1000 generations,
    # recorded before the generation loop's fixed costs were cut: evaluations,
    # best fitness and RMSE, and the sha256 of the best codes, the best pools
    # and the float64 mean-fitness history
    FULL_STREAM = {
        1: (4889, "0x1.a57fab232314ap+8", "0x1.5f5b46f5f1f12p+0",
            "3fe299d98156229d818ba13cc18852c89d5e8e533df7a91d84712559953a2fa1",
            "d419d521e79e905743856d924223401d4f595646f9099129e15577a747a48aeb",
            "f3dd48e7499f4676dcbaa1c6004e669cfb87cbb92efbb76893c7ad57f34289c4"),
        2: (3427, "0x1.79b46510d3061p+8", "0x1.a5c739f32c242p+0",
            "b283b99ed4daf5d55638441212d2e14cfb6033b44bbff29652958245252d9e07",
            "7c0b2803a6c981cd5e5eab80bcb3405d70e0f66f05be711fccb67a713afe4728",
            "12c7faeb44bb73d58047a9d32addc3745ae2f405cc086355a39e2e87e628ef8b"),
    }

    @pytest.mark.parametrize("seed", FULL_STREAM)
    def test_full_published_run_keeps_its_stream(self, seed):
        table = data.synthesize(data.EMBANKMENT_SUMMARY, 85, np.random.default_rng(11))
        X, y = data.regression_arrays(table)
        result = run(GepConfig(stagnation_limit=1000, rng_seed=seed), X, y)
        assert len(result.mean_history) == 1000
        digest = [hashlib.sha256(a.tobytes()).hexdigest() for a in
                  (result.best_codes, result.best_pools, np.array(result.mean_history))]
        assert (result.evaluations, result.report.fitness.hex(), result.report.rmse.hex(),
                *digest) == self.FULL_STREAM[seed]

    def test_stagnation_stops_early(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        config = GepConfig(num_inputs=1, max_generations=500, stagnation_limit=5, rng_seed=2)
        result = run(config, X, np.full(10, 1.0e6))  # unreachable target: instant stagnation
        assert len(result.report.per_generation_best) < 500


class TestSweep:
    def test_shape_and_determinism(self):
        X = np.linspace(0, 1, 12).reshape(-1, 1)
        y = X[:, 0]
        config = GepConfig(num_chromosomes=10, num_inputs=1, max_generations=3, rng_seed=5)
        cells = sweep(X, y, config, range(1, 7), range(4, 13))
        assert len(cells) == 54
        again = sweep(X, y, config, range(1, 7), range(4, 13))
        assert cells == again

    def test_single_gene_target_plateaus(self):
        # representable with one gene: fitness must not strictly increase with
        # every added gene
        X = np.linspace(0.1, 1, 25).reshape(-1, 1)
        y = X[:, 0]
        config = GepConfig(num_chromosomes=30, num_inputs=1, max_generations=60,
                           stagnation_limit=60, rng_seed=8)
        cells = sweep(X, y, config, [1, 2, 3], [7])
        fits = [c.fitness for c in cells]
        assert not (fits[1] > fits[0] and fits[2] > fits[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(np.zeros((3, 1)), np.zeros(3), GepConfig(num_inputs=1), [], [7])


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block outlasts ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def patch_run(monkeypatch, in_child=None, in_parent=None):
    """Make ``evolution.run`` call ``in_child(config)`` in a forked sweep
    worker, or ``in_parent(config)`` in this process, before the real run."""
    parent, real_run = os.getpid(), evolution.run

    def patched(config, X, y, rng):
        hook = in_parent if os.getpid() == parent else in_child
        if hook is not None:
            X = hook(config, X)
        return real_run(config, X, y, rng)

    monkeypatch.setattr(evolution, "run", patched)


class TestSweepWorkers:
    """Each test also checks, through conftest's autouse fixture, that
    ``sweep`` leaves no worker process behind."""

    X = np.random.default_rng(3).uniform(0.5, 2.0, size=(30, 3))
    y = X[:, 0] * X[:, 1] - X[:, 2]
    config = GepConfig(num_chromosomes=8, max_generations=3, rng_seed=9)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_any_worker_count_matches_per_cell_runs_in_grid_order(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        genes, heads = [1, 2, 3], [3, 5]
        assert evolution.sweep_workers(6) == cpus and evolution.sweep_workers(2) == min(2, cpus)
        cells = sweep(self.X, self.y, self.config, genes, heads)
        assert len(forks) == cpus - 1
        expected = []
        for g in genes:
            for h in heads:
                rng = np.random.default_rng(np.random.SeedSequence([9, g, h]))
                result = run(replace(self.config, num_genes=g, head_size=h), self.X, self.y, rng)
                expected.append((g, h, result.report.fitness))
        assert [(c.num_genes, c.head_size, c.fitness) for c in cells] == expected

    def test_cells_read_x_by_column_without_a_copy(self, monkeypatch):
        # a run copies X.T unless it is already C-contiguous
        set_cpus(monkeypatch, 1)
        layouts = []
        patch_run(monkeypatch,
                  in_parent=lambda config, X: layouts.append(X.T.flags.c_contiguous) or X)
        sweep(self.X, self.y, self.config, [1, 2], [3])
        assert layouts == [True, True]

    def test_a_workers_exception_is_raised_here(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        patch_run(monkeypatch, in_child=lambda config, X: X[:, :1])
        with deadline(60), pytest.raises(ValueError, match=r"but X has 1 column\(s\)") as info:
            sweep(self.X, self.y, self.config, [1, 2, 3, 4], [4])
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("end, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (lambda: os._exit(3), "exit status 3"),
    ])
    def test_a_worker_that_ends_without_a_result_raises(self, monkeypatch, end, how):
        # of three shares, only share 1 (the gene count 2) ends early
        set_cpus(monkeypatch, 3)

        def end_in_share_1(config, X):
            if config.num_genes == 2:
                end()
            return X

        patch_run(monkeypatch, in_child=end_in_share_1)
        with deadline(60), pytest.raises(RuntimeError,
                                         match=rf"share 1 ended without a result \({how}\)"):
            sweep(self.X, self.y, self.config, [1, 2, 3], [4])

    def test_interrupted_parent_kills_and_reaps_every_worker(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        before = child_pids()

        def interrupt(config, X):
            assert len(child_pids() - before) == 2
            raise KeyboardInterrupt

        patch_run(monkeypatch, in_child=lambda config, X: time.sleep(600), in_parent=interrupt)
        with deadline(60), pytest.raises(KeyboardInterrupt):
            sweep(self.X, self.y, self.config, [1, 2, 3], [4])
        assert child_pids() == before


class TestConfig:
    def test_defaults_match_published_table(self):
        config = GepConfig()
        assert config.num_chromosomes == 50
        assert config.head_size == 7
        assert config.num_genes == 4
        r = config.rates
        assert (r.mutation, r.conservative_mutation) == (0.0014, 0.0037)
        assert (r.permutation, r.biased_mutation) == (0.0055, 0.0055)
        assert (r.is_transposition, r.ris_transposition, r.inversion) == (0.0055, 0.0055, 0.0055)
        assert r.uniform_recombination == 0.008
        assert (r.one_point_recombination, r.two_point_recombination) == (0.003, 0.003)
        assert (r.gene_recombination, r.gene_transposition) == (0.003, 0.003)

    def test_readme_config_block_is_the_defaults(self):
        # the `key = value` block of README's "GEP engine" section documents
        # the defaults, so it must read back as GepConfig()
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## GEP engine\n", 1)[1]
        block = section.split("```\n", 2)[1]
        assert "number_of_chromosomes = 50" in block
        assert config_from_text(block) == GepConfig()

    def test_every_key_read_to_its_field(self):
        text = (
            "number_of_chromosomes = 30\nhead_size = 5\nnumber_of_genes = 2\n"
            "number_of_inputs = 4\nlinking_function = +\nfunction_set = +, -, *, /\n"
            "rate_of_mutation = 0.01\nconservative_mutation = 0.02\npermutation = 0.03\n"
            "biased_mutation = 0.04\nis_transposition_rate = 0.05\n"
            "ris_transposition_rate = 0.06\nrate_of_inversion = 0.07\n"
            "uniform_recombination = 0.08\none_point_recombination = 0.09\n"
            "two_point_recombination = 0.1\nrate_of_gene_recombination = 0.11\n"
            "rate_of_gene_transposition = 0.12\nmax_generations = 77\n"
            "stagnation_limit = 33\nrng_seed = 17\n"
        )
        rates = OperatorRates(
            mutation=0.01, conservative_mutation=0.02, permutation=0.03, biased_mutation=0.04,
            is_transposition=0.05, ris_transposition=0.06, inversion=0.07,
            uniform_recombination=0.08, one_point_recombination=0.09,
            two_point_recombination=0.1, gene_recombination=0.11, gene_transposition=0.12,
        )
        expected = GepConfig(num_chromosomes=30, head_size=5, num_genes=2, num_inputs=4,
                             rates=rates, max_generations=77, stagnation_limit=33, rng_seed=17)
        config = config_from_text(text)
        assert config == expected
        # every field differs from its default, so no key is silently ignored
        default = GepConfig()
        assert all(getattr(config, f) != getattr(default, f) for f in GepConfig.__dataclass_fields__)
        assert all(a != b for a, b in zip(config.rates.as_dict().values(),
                                          default.rates.as_dict().values()))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("population = 50\n")

    def test_fixed_linking_and_function_set(self):
        with pytest.raises(ConfigError):
            config_from_text("linking_function = *\n")
        with pytest.raises(ConfigError):
            config_from_text("function_set = +, -, *, /, sqrt\n")
        config = config_from_text("linking_function = +\nfunction_set = +,-,*,/\n")
        assert config == GepConfig()

    def test_invariants(self):
        with pytest.raises(ConfigError):
            GepConfig(num_chromosomes=1)
        with pytest.raises(ConfigError):
            GepConfig(num_genes=0)
        with pytest.raises(ConfigError):
            GepConfig(head_size=0)
        with pytest.raises(ConfigError):
            GepConfig(rates=OperatorRates(mutation=1.5))
        with pytest.raises(ConfigError):
            GepConfig(rng_seed=-1)
        with pytest.raises(ConfigError, match="^number of inputs must be >= 1"):
            GepConfig(num_inputs=0)
        with pytest.raises(ConfigError, match="^max_generations must be >= 0"):
            GepConfig(max_generations=-1)
        with pytest.raises(ConfigError, match="^stagnation_limit must be >= 1"):
            GepConfig(stagnation_limit=0)

    def test_comments_and_blank_lines(self):
        text = "# tuned parameters\n\nnumber_of_chromosomes = 40  # forty\n"
        assert config_from_text(text).num_chromosomes == 40
