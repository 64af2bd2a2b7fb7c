import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_chromosome
from embgep import data, displacement, karva, kernels
from embgep.evolution import STAGES, _evaluate_population, canonical_keys
from embgep.karva import Chromosome, Gene

POOL = tuple(float(i) for i in range(10))
NUM_INPUTS = 3

terminals = st.one_of(
    st.integers(0, NUM_INPUTS - 1).map("d{}".format),
    st.integers(0, karva.POOL_SIZE - 1).map("c{}".format),
)
symbols = st.one_of(st.sampled_from(karva.FUNCTION_TOKENS), terminals)
# zeros provoke divisions by 0, 1e300 overflows
values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e300]), st.floats(-10.0, 10.0))


@st.composite
def genes(draw, head_len=None):
    h = draw(st.integers(1, 12)) if head_len is None else head_len
    head = draw(st.lists(symbols, min_size=h, max_size=h))
    if h >= 3 and draw(st.integers(0, 2)) == 0:
        # a root "/ a / b c" or "/ a * b c": the computed divisor is infinite
        # where c is 0 or b * c overflows, and its quotient is then finite,
        # which only the check on computed divisors flags
        head[0] = "/"
        head[2] = draw(st.sampled_from(["/", "*"]))
    tail = draw(st.lists(terminals, min_size=h + 1, max_size=h + 1))
    pool = draw(st.lists(values, min_size=karva.POOL_SIZE, max_size=karva.POOL_SIZE))
    return Gene(tuple(head), tuple(tail), tuple(pool))


@st.composite
def chromosomes(draw):
    h = draw(st.integers(1, 12))
    return Chromosome(tuple(draw(st.lists(genes(h), min_size=1, max_size=4))))


data_rows = st.lists(st.lists(values, min_size=NUM_INPUTS, max_size=NUM_INPUTS),
                     min_size=0, max_size=6).map(lambda rows: np.array(rows + [[0.0] * NUM_INPUTS]))


def gene_from_tokens(tokens, head_len, constants=POOL):
    return Gene(tuple(tokens[:head_len]), tuple(tokens[head_len:]), constants)


def test_batch_matches_scalar_evaluation(rng):
    X = rng.uniform(-4.0, 4.0, size=(40, 3))
    for _ in range(40):
        chrom = random_chromosome(rng)
        batch = kernels.evaluate_chromosome_batch(chrom, X)
        for r in range(X.shape[0]):
            scalar = oracles.evaluate_chromosome(chrom, X[r])
            if scalar is None:
                assert math.isnan(batch[r])
            else:
                assert batch[r] == scalar


def test_nonfinite_intermediate_flags_even_if_final_finite():
    # d0 / (c0 / d1) at d1 = 0: inner division is inf, outer would be 0.0
    gene = gene_from_tokens("/ d0 / c0 d1 d0 d0".split(), head_len=3, constants=(2.0,) + (0.0,) * 9)
    assert oracles.evaluate_tree(oracles.decode(gene), [1.0, 0.0], gene.constants) is None
    X = np.array([[1.0, 0.0], [1.0, 2.0]])
    out = kernels.evaluate_chromosome_batch(Chromosome((gene,)), X)
    assert math.isnan(out[0])
    assert out[1] == 1.0  # 1 / (2/2)


def test_chromosome_batch_is_gene_sum(rng):
    chrom = random_chromosome(rng)
    X = rng.uniform(0.5, 2.0, size=(20, 3))
    total = np.zeros(20)
    for gene in chrom.genes:
        total = total + kernels.evaluate_chromosome_batch(Chromosome((gene,)), X)
    got = kernels.evaluate_chromosome_batch(chrom, X)
    finite = np.isfinite(total)
    assert np.array_equal(got[finite], total[finite])
    assert np.isnan(got[~finite]).all()


def test_sum_overflow_flags():
    big = (1e308,) + (0.0,) * 9
    gene = gene_from_tokens("c0 d0 d0".split(), head_len=1, constants=big)
    chrom = Chromosome((gene, gene))  # 1e308 + 1e308 overflows
    out = kernels.evaluate_chromosome_batch(chrom, np.zeros((1, 1)))
    assert math.isnan(out[0])


def test_rejects_bad_shape():
    gene = gene_from_tokens("d0 d0 d0".split(), head_len=1)
    with pytest.raises(ValueError):
        kernels.evaluate_chromosome_batch(Chromosome((gene,)), np.zeros(3))


def test_missing_input_column_is_named():
    gene = gene_from_tokens("+ d3 d0".split(), head_len=1)
    with pytest.raises(ValueError, match="d3"):
        kernels.evaluate_chromosome_batch(Chromosome((gene,)), np.zeros((2, 3)))
    # a non-coding read of the missing column is never evaluated
    gene = gene_from_tokens("d0 d3 d3".split(), head_len=1)
    assert kernels.evaluate_chromosome_batch(Chromosome((gene,)), np.ones((2, 3))).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("row", [
    [karva.ADD, 4, karva.ADD],  # + d0 +
    [karva.MUL, karva.ADD, 4, 4, karva.SUB],  # * + d0 d0 -
])
def test_decoding_that_reaches_a_function_in_the_tail_is_rejected(row):
    # kexpr_codes refuses such a gene, so it is built as codes over one input
    codes = np.array([[4] * len(row), row], dtype=karva.code_dtype(1))  # d0 d0 ..., then row
    with pytest.raises(ValueError, match="function in its tail"):
        kernels.evaluate_codes(codes, np.zeros((2, karva.POOL_SIZE)), np.ones((2, 1)), 1)
    # a function in the tail that the decoding never reaches is non-coding
    unread = np.array([[4] + row[1:]], dtype=codes.dtype)
    assert kernels.evaluate_codes(unread, np.zeros((1, karva.POOL_SIZE)), np.ones((2, 1)),
                                  1).tolist() == [1.0, 1.0]


def codes_of(*genes):
    """Population arrays ``(codes, pools)`` holding one one-gene chromosome
    per gene."""
    arrays = [karva.chromosome_codes(Chromosome((g,)), NUM_INPUTS) for g in genes]
    return (np.stack([codes for codes, _ in arrays]),
            np.stack([pools for _, pools in arrays]))


@settings(max_examples=300, deadline=None)
@given(genes())
def test_layout_agrees_across_consumers(gene):
    n = karva.consumed_length(gene)
    assert n == oracles.decode(gene).size == karva.coding_lengths(codes_of(gene)[0])[0, 0]
    assert n <= gene.length


def read_slots(gene):
    coding = gene.symbols[: karva.consumed_length(gene)]
    return sorted({int(s[1:]) for s in coding if s[0] == "c"})


@settings(max_examples=200, deadline=None)
@given(genes(), st.data(), data_rows)
def test_noncoding_edits_keep_the_program(gene, data, X):
    n = karva.consumed_length(gene)
    edited_symbols = list(gene.symbols)
    for i in range(n, gene.length):
        if data.draw(st.booleans()):
            edited_symbols[i] = data.draw(symbols if i < gene.head_length else terminals)
    read = read_slots(gene)
    pool = [c if j in read or not data.draw(st.booleans()) else data.draw(values)
            for j, c in enumerate(gene.constants)]
    h = gene.head_length
    edited = Gene(tuple(edited_symbols[:h]), tuple(edited_symbols[h:]), tuple(pool))
    codes, pools = codes_of(gene, edited)
    keys = canonical_keys(codes, pools, karva.coding_lengths(codes), NUM_INPUTS)
    assert keys[0].tobytes() == keys[1].tobytes()
    before = kernels.evaluate_chromosome_batch(Chromosome((gene,)), X)
    after = kernels.evaluate_chromosome_batch(Chromosome((edited,)), X)
    assert before.tobytes() == after.tobytes()


@settings(max_examples=200, deadline=None)
@given(genes(), st.data())
def test_read_constant_edit_changes_the_program(gene, data):
    read = read_slots(gene)
    assume(read)
    slot = data.draw(st.sampled_from(read))
    pool = list(gene.constants)
    pool[slot] = data.draw(values.filter(lambda v: v != gene.constants[slot]))
    edited = Gene(gene.head, gene.tail, tuple(pool))
    codes, pools = codes_of(gene, edited)
    keys = canonical_keys(codes, pools, karva.coding_lengths(codes), NUM_INPUTS)
    assert keys[0].tobytes() != keys[1].tobytes()


@settings(max_examples=300, deadline=None)
@given(chromosomes(), data_rows)
def test_batch_matches_oracle_property(chrom, X):
    batch = kernels.evaluate_chromosome_batch(chrom, X)
    for r in range(X.shape[0]):
        scalar = oracles.evaluate_chromosome(chrom, X[r])
        if scalar is None:
            assert math.isnan(batch[r])
        else:
            assert batch[r] == scalar


def score(codes, pools, X, y):
    """``_evaluate_population`` of the population arrays ``(codes, pools)``
    over the ``(rows, inputs)`` matrix ``X``, laid out as ``run`` lays it,
    with a fresh cache."""
    return _evaluate_population(codes, pools, X.shape[1], np.ascontiguousarray(X.T), y, None,
                                dict.fromkeys(STAGES, 0.0))


def assert_fitness_matches_oracle(chrom, X, y):
    """The fitness path scores ``chrom`` 0 exactly when the scalar oracle
    flags some row, and otherwise to the bit of the oracle's RMSE."""
    codes, pools = karva.chromosome_codes(chrom, NUM_INPUTS)
    [report], _, _ = score(codes[None], pools[None], X, y)
    values = [oracles.evaluate_chromosome(chrom, row) for row in X]
    if any(v is None for v in values):
        assert (report.fitness, report.rmse) == (0.0, math.inf)
        return
    with np.errstate(over="ignore"):
        rmse = math.sqrt(np.add.reduce((np.array(values) - y) ** 2) / len(y))
    if math.isfinite(rmse):
        assert report.rmse == rmse
        assert report.fitness == 1000.0 / (1.0 + rmse)
    else:
        assert (report.fitness, report.rmse) == (0.0, math.inf)


@settings(max_examples=300, deadline=None)
@given(chromosomes(), data_rows, st.data())
def test_fitness_path_matches_oracle_property(chrom, X, data):
    y = np.array(data.draw(st.lists(values, min_size=len(X), max_size=len(X))))
    assert_fitness_matches_oracle(chrom, X, y)


def test_fitness_path_flags_nonfinite_intermediate_even_if_final_finite():
    # d0 / (c0 / d1) at d1 = 0: the computed divisor is inf, the quotient 0.0
    gene = gene_from_tokens("/ d0 / c0 d1 d0 d0".split(), head_len=3, constants=(2.0,) + (0.0,) * 9)
    X = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    assert_fitness_matches_oracle(Chromosome((gene,)), X, np.zeros(2))
    assert_fitness_matches_oracle(Chromosome((gene,)), X[1:], np.zeros(1))
    codes, pools = karva.chromosome_codes(Chromosome((gene,)), NUM_INPUTS)
    total, bad = kernels.gene_sum(codes, pools, karva.coding_lengths(codes).tolist(),
                                  np.ascontiguousarray(X.T), NUM_INPUTS)
    assert total.tolist() == [0.0, 1.0] and bad.tolist() == [True, False]


@pytest.mark.parametrize("root", ["d0", "c0"])
def test_gene_sum_is_a_new_row_array_started_at_positive_zero(root):
    # a gene that is one terminal has a view of the inputs or a scalar for
    # its value; the sum is still a new row array, and a -0.0 in it sums to
    # +0.0, as 0.0 + -0.0 does
    codes, pools = karva.chromosome_codes(
        Chromosome((gene_from_tokens([root, "d1", "d2"], 1, (-0.0,) + POOL[1:]),)), NUM_INPUTS)
    columns = np.ascontiguousarray(np.array([[-0.0, 1.0, 2.0], [-0.0, 4.0, 5.0]]).T)
    total, bad = kernels.gene_sum(codes, pools, [1], columns, NUM_INPUTS)
    assert total.shape == (2,) and not np.shares_memory(total, columns)
    assert total.tolist() == [0.0, 0.0] and not np.signbit(total).any()
    assert bad is None


def test_gene_sum_keeps_only_live_node_values():
    # a head of 12 functions computes 12 row arrays, but the reverse walk
    # reads each one once: at most 6 wait for their parent while a 7th is
    # computed, beside the sum and the flags.  Holding every node's value
    # until the gene ends would peak at 13 row arrays
    rows = 20_000
    tokens = [("+", "-", "*")[i % 3] for i in range(12)] + [f"d{i % 3}" for i in range(13)]
    codes, pools = karva.chromosome_codes(Chromosome((gene_from_tokens(tokens, 12),)), NUM_INPUTS)
    columns = np.random.default_rng(5).uniform(1.0, 2.0, (NUM_INPUTS, rows))
    lengths = karva.coding_lengths(codes).tolist()
    assert lengths == [25]
    tracemalloc.start()
    try:
        kernels.gene_sum(codes, pools, lengths, columns, NUM_INPUTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * rows


# The published gep relationship planted in the engine's own search space: a
# 4-gene, head-7 chromosome (the published default geometry), one term per
# gene over d0 = Mw, d1 = ay/amax, d2 = Td/Tp.  Gene 1 is written as
# 6.524 / (x^4 + 7.864 / Mw), the published first term divided through by Mw.
PLANTED = Path(__file__).resolve().parent / "fixtures" / "gep_planted.kexpr"


def planted():
    return karva.kexpr_codes(PLANTED.read_text(encoding="utf-8"), 3)


def test_planted_relationship_matches_the_exact_oracle_up_to_the_pole():
    codes, pools = planted()
    assert codes.shape == (4, 15)
    assert karva.kexpr_text(codes, pools, 3) == PLANTED.read_text(encoding="utf-8")
    pole, eps = displacement.POLE_PERIOD_RATIO, displacement.DEFAULT_POLE_EPS
    near = eps * np.array([1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1000.0])
    ratios = np.concatenate((pole - near, pole + near, np.linspace(0.2, 4.0, 21)))
    grid = np.meshgrid(np.linspace(4.9, 8.3, 7), np.linspace(0.02, 1.0, 7), ratios,
                       indexing="ij")
    X = np.column_stack([axis.ravel() for axis in grid])
    got = kernels.evaluate_codes(codes, pools, X, 3)
    for row, value in zip(X.tolist(), got.tolist()):
        exact = float(oracles.gep_formula_exact(*row))
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact)), row


def test_planted_relationship_scores_1000_on_noise_free_rows():
    # the synthesizer's inputs keep 2 * DEFAULT_POLE_EPS from the pole; the
    # targets are the exact relationship, with no noise and no clipping
    table = data.synthesize(data.EMBANKMENT_SUMMARY, 200, np.random.default_rng(7),
                            noise_sd=0.0)
    X, _ = data.regression_arrays(table)
    assert (np.abs(X[:, 2] - displacement.POLE_PERIOD_RATIO) > displacement.DEFAULT_POLE_EPS).all()
    y = np.array([float(oracles.gep_formula_exact(*row)) for row in X.tolist()])
    codes, pools = planted()
    reports, _, evaluations = score(codes[None], pools[None], X, y)
    assert evaluations == 1
    assert 1000.0 - 1e-9 <= reports[0].fitness <= 1000.0
