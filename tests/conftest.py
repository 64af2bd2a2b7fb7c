import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from embgep import data, evolution, karva


def child_pids() -> set[int]:
    """Pids of this process's children, running or exited but not reaped."""
    return {int(pid) for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()}


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process behind; reap nothing."""
    before = child_pids()
    yield
    left = child_pids() - before
    assert not left, f"the test left child process(es) {sorted(left)}"


@pytest.fixture(scope="session")
def synth85():
    return data.synthesize(data.EMBANKMENT_SUMMARY, 85, np.random.default_rng(42))


def case_table(*rows):
    """A ``data.CaseTable`` of rows ``(id, Mw, amax, Tp, Td, ay, D)``, with
    no T_m, H or Vs."""
    ids, *columns = zip(*rows) if rows else [()] * 7
    absent = [math.nan] * len(rows)
    return data.CaseTable(ids, *columns, absent, absent, absent)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_chromosome(rng, num_genes=4, head_size=7, num_inputs=3):
    config = evolution.GepConfig(
        num_chromosomes=2, head_size=head_size, num_genes=num_genes, num_inputs=num_inputs
    )
    return oracles.population_views(evolution.initialize(config, rng))[0]


def assert_sound_codes(codes, pools, num_inputs):
    """The structural rules of a gene, checked on code rows ``(..., G, L)``
    and their pools: a gene length 2 * head + 1 >= 3, every code naming a
    symbol of ``alphabet(num_inputs)``, only terminals in the tail, and 10
    finite pool constants per gene."""
    length = codes.shape[-1]
    assert length >= 3 and length % 2 == 1
    assert codes.min() >= 0 and (codes < len(karva.alphabet(num_inputs))).all()
    assert (codes[..., length // 2:] >= karva.NUM_FUNCTIONS).all()
    assert pools.shape == codes.shape[:-1] + (karva.POOL_SIZE,)
    assert np.isfinite(pools).all()
