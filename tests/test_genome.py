"""Properties of the array genome: code arrays, their Karva layout, the
canonical keys and the array operators."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_sound_codes
from embgep import karva, kernels
from embgep.evolution import (
    GepConfig,
    OperatorRates,
    apply_operators,
    canonical_keys,
    initialize,
)

RATE_NAMES = tuple(OperatorRates().as_dict())


@st.composite
def code_arrays(draw, max_genes=4, max_head=12):
    """(num_inputs, codes, pools) of one chromosome drawn straight as arrays."""
    num_inputs = draw(st.integers(1, 4))
    n_symbols = len(karva.alphabet(num_inputs))
    head = draw(st.integers(1, max_head))
    genes = draw(st.integers(1, max_genes))
    heads = draw(st.lists(st.lists(st.integers(0, n_symbols - 1), min_size=head, max_size=head),
                          min_size=genes, max_size=genes))
    tails = draw(st.lists(st.lists(st.integers(karva.NUM_FUNCTIONS, n_symbols - 1),
                                   min_size=head + 1, max_size=head + 1),
                          min_size=genes, max_size=genes))
    codes = np.array([h + t for h, t in zip(heads, tails)], dtype=karva.code_dtype(num_inputs))
    pools = np.array(draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=10, max_size=10),
                                   min_size=genes, max_size=genes)))
    return num_inputs, codes, pools


@settings(max_examples=200, deadline=None)
@given(code_arrays())
def test_view_round_trip_is_identity(arrays):
    num_inputs, codes, pools = arrays
    assert_sound_codes(codes, pools, num_inputs)
    chrom = oracles.chromosome_from_codes(codes, pools, num_inputs)
    back_codes, back_pools = karva.chromosome_codes(chrom, num_inputs)
    assert back_codes.dtype == codes.dtype
    assert np.array_equal(back_codes, codes)
    assert back_pools.tobytes() == pools.tobytes()


@settings(max_examples=200, deadline=None)
@given(code_arrays())
def test_kexpr_round_trip_is_identity(arrays):
    num_inputs, codes, pools = arrays
    text = karva.kexpr_text(codes, pools, num_inputs)
    back_codes, back_pools = karva.kexpr_codes(text, num_inputs)
    assert back_codes.dtype == codes.dtype
    assert np.array_equal(back_codes, codes)
    assert back_pools.tobytes() == pools.tobytes()


@settings(max_examples=300, deadline=None)
@given(code_arrays())
def test_cumsum_coding_lengths_match_the_decoder(arrays):
    num_inputs, codes, pools = arrays
    chrom = oracles.chromosome_from_codes(codes, pools, num_inputs)
    expected = [oracles.decode(gene).size for gene in chrom.genes]
    assert karva.coding_lengths(codes).tolist() == expected
    # the same rule over a whole population at once
    stacked = np.stack([codes, codes[::-1]])
    assert karva.coding_lengths(stacked).tolist() == [expected, expected[::-1]]


def slot_value(slot, k):
    # the values of different slots never coincide, so a program constant
    # names its pool slot
    return slot + 0.25 * k


@st.composite
def gene_pairs(draw):
    """``(num_inputs, codes, pools)`` of two one-gene chromosomes, the second
    an edit of the first."""
    num_inputs, codes, _ = draw(code_arrays(max_genes=1))
    pools = np.array([[slot_value(s, draw(st.integers(0, 3))) for s in range(10)]])
    edited, edited_pools = codes.copy(), pools.copy()
    n_symbols = len(karva.alphabet(num_inputs))
    head = codes.shape[1] // 2
    for i in range(codes.shape[1]):
        if draw(st.integers(0, 4)) == 0:
            low = 0 if i < head else karva.NUM_FUNCTIONS
            edited[0, i] = draw(st.integers(low, n_symbols - 1))
    for s in range(10):
        if draw(st.integers(0, 4)) == 0:
            edited_pools[0, s] = slot_value(s, draw(st.integers(0, 3)))
    return num_inputs, np.stack([codes, edited]), np.stack([pools, edited_pools])


def valued_tree(gene):
    """The gene's ``oracles.decode`` tree with each constant leaf replaced by
    its pool value."""
    def walk(node):
        if node.symbol[0] == "c":
            return gene.constants[int(node.symbol[1:])]
        return node.symbol, tuple(walk(child) for child in node.children)

    return walk(oracles.decode(gene))


@settings(max_examples=500, deadline=None)
@given(gene_pairs())
def test_equal_keys_exactly_when_programs_are_equal(pair):
    num_inputs, codes, pools = pair
    keys = canonical_keys(codes, pools, karva.coding_lengths(codes), num_inputs)
    assert keys.shape[:2] == (2, 1)
    same_key = keys[0].tobytes() == keys[1].tobytes()
    views = oracles.population_views(codes, pools, num_inputs)
    first, second = (chrom.genes[0] for chrom in views)
    assert same_key == (valued_tree(first) == valued_tree(second))
    # the code rows and their view evaluate alike
    X = np.linspace(-2.0, 2.0, 3 * num_inputs).reshape(3, num_inputs)
    values = kernels.evaluate_codes(codes[1], pools[1], X, num_inputs)
    assert values.tobytes() == kernels.evaluate_chromosome_batch(views[1], X).tobytes()


@st.composite
def populations(draw):
    num_inputs = draw(st.integers(1, 4))
    config = GepConfig(num_chromosomes=draw(st.integers(2, 7)), head_size=draw(st.integers(1, 8)),
                       num_genes=draw(st.integers(1, 4)), num_inputs=num_inputs)
    seed = draw(st.integers(0, 2**32 - 1))
    return config, seed


@settings(max_examples=100, deadline=None)
@given(populations())
def test_every_operator_at_rate_one_keeps_the_genome_sound(drawn):
    config, seed = drawn
    rng = np.random.default_rng(seed)
    codes, pools = initialize(config, rng)
    shape, dtype, pool_shape = codes.shape, codes.dtype, pools.shape
    for name in RATE_NAMES:
        config = replace(config, rates=OperatorRates(**{k: float(k == name) for k in RATE_NAMES}))
        apply_operators(codes, pools, config, rng)
        assert codes.shape == shape and codes.dtype == dtype
        assert pools.shape == pool_shape
        assert (codes < len(karva.alphabet(config.num_inputs))).all()
        assert (codes[:, :, config.head_size:] >= karva.NUM_FUNCTIONS).all(), name
        assert np.isfinite(pools).all()
        assert_sound_codes(codes, pools, config.num_inputs)
