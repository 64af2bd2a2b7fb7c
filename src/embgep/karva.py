"""Karva-encoded genomes: fixed-length linear genes read breadth first.

A gene is a linear string of symbols split into a head (functions and
terminals) and a tail (terminals only).  With a binary function set the tail
length is tied to the head length by ``tail = head + 1``, which guarantees
that breadth-first decoding of any gene always terminates inside the string.
A chromosome is a tuple of genes combined by addition.

Array form: the search loop holds genes as rows of integer codes, a token's
code being its position in the token table ``alphabet(num_inputs)``
(functions, then inputs, then pool constants; ``token_codes`` is the
inverse), plus one row of pool constants each.  ``coding_lengths`` gives
every gene's coding length in one call, and ``kernels.gene_sum`` evaluates
code rows straight from that Karva layout; the package holds no other
evaluator.  ``Gene``/``Chromosome`` are token views of one chromosome, and
``chromosome_codes`` gives a view's code rows.  The scalar reference decoder
(expression trees, evaluated one row at a time) is the test oracle in
``tests/oracles.py``.

Text form (K-expression): one gene per line, space-separated tokens
(``+ - * / d0 d1 ... c0 .. c9``), a literal ``|``, then the 10 pool
constants.  ``kexpr_text`` / ``kexpr_codes`` write and read it straight from
and into code rows; the reader takes ``d00`` or ``c01`` as ``d0`` or ``c1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

FUNCTION_TOKENS = ("+", "-", "*", "/")
ADD, SUB, MUL, DIV = range(4)
NUM_FUNCTIONS = len(FUNCTION_TOKENS)
MAX_ARITY = 2
POOL_SIZE = 10


class KExprError(ValueError):
    """Malformed K-expression text or token."""


def tail_length(head_length: int) -> int:
    """Tail length required for a head, ``head + 1``: every function is binary."""
    if head_length < 1:
        raise ValueError(f"head_length must be >= 1, got {head_length}")
    return head_length + 1


@dataclass(frozen=True)
class Gene:
    """Head and tail token strings plus the 10-constant pool (c0..c9)."""

    head: tuple[str, ...]
    tail: tuple[str, ...]
    constants: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "tail", tuple(self.tail))
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.head + self.tail

    @property
    def head_length(self) -> int:
        return len(self.head)

    @property
    def length(self) -> int:
        return len(self.head) + len(self.tail)


@dataclass(frozen=True)
class Chromosome:
    """Genes combined by the fixed linking function, addition."""

    genes: tuple[Gene, ...]

    def __post_init__(self):
        genes = tuple(self.genes)
        if not genes:
            raise ValueError("chromosome needs at least one gene")
        if len({(g.head_length, len(g.tail)) for g in genes}) > 1:
            raise ValueError("all genes of a chromosome must share head/tail lengths")
        object.__setattr__(self, "genes", genes)


def coding_lengths(codes: np.ndarray) -> np.ndarray:
    """Number of leading symbols the breadth-first decoding reads, for
    every gene row of a code array ``(..., L)``; 0 for a gene whose decoding
    runs past its end, which only a function in the tail can cause.

    Karva position ``i`` has its children at ``1 + 2 * F_i`` and
    ``2 + 2 * F_i``, ``F_i`` being the number of functions before ``i``, so
    the coding region ends at the first ``i`` with ``i >= 1 + 2 * F_i``, that
    is ``i > 2 * F_i``; one cumulative sum gives every ``F_i``.
    """
    length = codes.shape[-1]
    before = np.zeros(codes.shape[:-1] + (length + 1,), dtype=np.intp)
    (codes < NUM_FUNCTIONS).cumsum(axis=-1, out=before[..., 1:])
    return (np.arange(length + 1) > MAX_ARITY * before).argmax(axis=-1)


def consumed_length(gene: Gene) -> int:
    """``coding_lengths`` of a ``Gene`` view; it reads only which codes are a function's."""
    terminal = np.array([token not in FUNCTION_TOKENS for token in gene.symbols])
    return int(coding_lengths(terminal * NUM_FUNCTIONS))


@functools.lru_cache(maxsize=8)
def alphabet(num_inputs: int) -> tuple[str, ...]:
    """Every token of a genome over ``num_inputs`` inputs, in code order:
    the functions, then the inputs, then the pool constants."""
    return (FUNCTION_TOKENS + tuple(f"d{i}" for i in range(num_inputs))
            + tuple(f"c{j}" for j in range(POOL_SIZE)))


@functools.lru_cache(maxsize=8)
def token_codes(num_inputs: int) -> MappingProxyType[str, int]:
    """The inverse of ``alphabet(num_inputs)``, token -> code; read-only, as it is shared."""
    return MappingProxyType({token: code for code, token in enumerate(alphabet(num_inputs))})


def code_dtype(num_inputs: int) -> np.dtype:
    """Smallest integer dtype holding every code and the alphabet size,
    which marks a position that holds no symbol."""
    return np.min_scalar_type(NUM_FUNCTIONS + num_inputs + POOL_SIZE)


def chromosome_codes(chrom: Chromosome, num_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(genes, L)`` code array and ``(genes, 10)`` pools of a chromosome view."""
    table = token_codes(num_inputs)
    return (np.array([[table[token] for token in gene.symbols] for gene in chrom.genes],
                     dtype=code_dtype(num_inputs)),
            np.array([gene.constants for gene in chrom.genes], dtype=np.float64))


def kexpr_text(codes: np.ndarray, pools: np.ndarray, num_inputs: int) -> str:
    """K-expression text of ``(G, L)`` code rows over ``alphabet(num_inputs)``
    and their ``(G, 10)`` pools: one line per gene."""
    tokens = alphabet(num_inputs)
    return "".join(
        " ".join(tokens[c] for c in row) + " | " + " ".join(map(repr, pool)) + "\n"
        for row, pool in zip(codes.tolist(), pools.tolist())
    )


def kexpr_codes(text: str, num_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``kexpr_text``: the code rows and pools of K-expression text.

    Blank lines are skipped.  Raises ``KExprError``, naming the line and the
    position, for a missing ``|``, an unknown token, an input ``d<i>`` with
    ``i >= num_inputs``, a function in the tail, a gene length that is not
    ``2 * head + 1`` for a head >= 1 or differs from the first gene's, and a
    pool that is not 10 finite numbers.
    """
    table = token_codes(num_inputs)
    codes, pools = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "|" not in line:
            raise KExprError(f"line {lineno}: missing the '|' before the pool constants")
        sym_part, _, const_part = line.partition("|")
        tokens = sym_part.split()
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise KExprError(f"line {lineno}: gene length {len(tokens)} is not 2*head+1 "
                             f"for any head >= 1")
        if codes and len(tokens) != len(codes[0]):
            raise KExprError(f"line {lineno}: gene length {len(tokens)} differs from "
                             f"the first gene's {len(codes[0])}")
        row = []
        for pos, token in enumerate(tokens):
            where = f"line {lineno}, position {pos}"
            code = table.get(token)
            if code is None:  # an index with leading zeros is read as int() reads it
                # str.isdigit alone also accepts non-ASCII digits such as '²' and '٢'
                index = int(token[1:]) if token[1:].isascii() and token[1:].isdigit() else -1
                code = table.get(f"{token[0]}{index}")
                if code is None:
                    raise KExprError(f"{where}: " + (
                        f"unknown symbol token {token!r}" if token[0] not in "dc" or index < 0
                        else f"input {token} but only {num_inputs} input(s)" if token[0] == "d"
                        else f"constant index {index} outside pool 0..{POOL_SIZE - 1}"))
            if code < NUM_FUNCTIONS and pos >= len(tokens) // 2:
                raise KExprError(f"{where}: function {token!r} in the tail")
            row.append(code)
        pool = const_part.split()
        if len(pool) != POOL_SIZE:
            raise KExprError(f"line {lineno}: expected {POOL_SIZE} pool constants, got {len(pool)}")
        for slot, token in enumerate(pool):
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise KExprError(f"line {lineno}, constant {slot}: {token!r} is not a finite number")
            pool[slot] = value
        codes.append(row)
        pools.append(pool)
    if not codes:
        raise KExprError("empty K-expression text: no gene line")
    return np.array(codes, dtype=code_dtype(num_inputs)), np.array(pools, dtype=np.float64)
