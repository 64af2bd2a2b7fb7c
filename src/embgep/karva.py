"""Karva-encoded genomes: fixed-length linear genes read breadth first.

A gene is a linear string of symbols split into a head (functions and
terminals) and a tail (terminals only).  With a binary function set the tail
length is tied to the head length by ``tail = head + 1``, which guarantees
that breadth-first decoding of any gene always terminates inside the string.
A chromosome is a tuple of genes combined by addition.

Array form: the search loop holds genes as rows of integer symbol codes,
a symbol's code being its position in ``alphabet(num_inputs)`` (functions,
then inputs, then pool constants), plus one row of pool constants each.
``coding_lengths`` gives every gene's coding length in one call, and
``kernels.gene_sum`` evaluates code rows straight from that Karva layout;
the package holds no other evaluator.  ``Gene``/``Chromosome`` are object
views of one chromosome, and ``chromosome_codes`` gives a view's code rows.
The scalar reference decoder (expression trees, evaluated one row at a
time) is the test oracle in ``tests/oracles.py``.

Text form (K-expression): one gene per line, space-separated symbol tokens
(``+ - * / d0 d1 ... c0 .. c9``), a literal ``|``, then the 10 pool
constants.  ``kexpr_text`` / ``kexpr_codes`` write and read it straight from
and into code rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

FUNCTION_TOKENS = ("+", "-", "*", "/")
ADD, SUB, MUL, DIV = range(4)
NUM_FUNCTIONS = len(FUNCTION_TOKENS)
MAX_ARITY = 2
POOL_SIZE = 10

KIND_FUNC = "func"
KIND_INPUT = "input"
KIND_CONST = "const"


class KExprError(ValueError):
    """Malformed K-expression text or symbol token."""


@dataclass(frozen=True)
class Symbol:
    """One position of a gene: a binary function, an input or a pool constant."""

    kind: str
    index: int

    @property
    def is_terminal(self) -> bool:
        return self.kind != KIND_FUNC

    @property
    def arity(self) -> int:
        return 0 if self.is_terminal else MAX_ARITY

    @property
    def token(self) -> str:
        if self.kind == KIND_FUNC:
            return FUNCTION_TOKENS[self.index]
        if self.kind == KIND_INPUT:
            return f"d{self.index}"
        return f"c{self.index}"


def function_symbol(token: str) -> Symbol:
    if token not in FUNCTION_TOKENS:
        raise KExprError(f"unknown function token {token!r}")
    return Symbol(KIND_FUNC, FUNCTION_TOKENS.index(token))


def input_symbol(index: int) -> Symbol:
    if index < 0:
        raise KExprError(f"negative input index {index}")
    return Symbol(KIND_INPUT, index)


def constant_symbol(index: int) -> Symbol:
    if not 0 <= index < POOL_SIZE:
        raise KExprError(f"constant index {index} outside pool 0..{POOL_SIZE - 1}")
    return Symbol(KIND_CONST, index)


def parse_symbol(token: str) -> Symbol:
    if token in FUNCTION_TOKENS:
        return function_symbol(token)
    # str.isdigit alone also accepts non-ASCII digits such as '²' and '٢'
    if len(token) > 1 and token[0] in ("d", "c") and token[1:].isascii() and token[1:].isdigit():
        index = int(token[1:])
        return input_symbol(index) if token[0] == "d" else constant_symbol(index)
    raise KExprError(f"unknown symbol token {token!r}")


def tail_length(head_length: int) -> int:
    """Tail length required for a head, ``head + 1``: every function is binary."""
    if head_length < 1:
        raise ValueError(f"head_length must be >= 1, got {head_length}")
    return head_length + 1


@dataclass(frozen=True)
class Gene:
    """Head and tail symbol strings plus the 10-constant pool (c0..c9)."""

    head: tuple[Symbol, ...]
    tail: tuple[Symbol, ...]
    constants: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "tail", tuple(self.tail))
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))

    @property
    def symbols(self) -> tuple[Symbol, ...]:
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
        head = genes[0].head_length
        tail = len(genes[0].tail)
        for g in genes[1:]:
            if g.head_length != head or len(g.tail) != tail:
                raise ValueError("all genes of a chromosome must share head/tail lengths")
        object.__setattr__(self, "genes", genes)

    @property
    def head_length(self) -> int:
        return self.genes[0].head_length


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
    """``coding_lengths`` of a ``Gene`` view; only a function's code is
    below ``NUM_FUNCTIONS``, whatever the input count."""
    return int(coding_lengths(np.array([symbol_code(sym, 0) for sym in gene.symbols])))


@functools.lru_cache(maxsize=8)
def alphabet(num_inputs: int) -> tuple[Symbol, ...]:
    """Every symbol of a genome over ``num_inputs`` inputs, in code order:
    the functions, then the inputs, then the pool constants."""
    return (
        tuple(function_symbol(t) for t in FUNCTION_TOKENS)
        + tuple(input_symbol(i) for i in range(num_inputs))
        + tuple(constant_symbol(j) for j in range(POOL_SIZE))
    )


def code_dtype(num_inputs: int) -> np.dtype:
    """Smallest integer dtype holding every code and the alphabet size,
    which marks a position that holds no symbol."""
    return np.min_scalar_type(NUM_FUNCTIONS + num_inputs + POOL_SIZE)


def symbol_code(sym: Symbol, num_inputs: int) -> int:
    if sym.kind == KIND_FUNC:
        return sym.index
    if sym.kind == KIND_INPUT:
        return NUM_FUNCTIONS + sym.index
    return NUM_FUNCTIONS + num_inputs + sym.index


def chromosome_codes(chrom: Chromosome, num_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(genes, L)`` code array and ``(genes, 10)`` pools of a chromosome view."""
    codes = [[symbol_code(sym, num_inputs) for sym in gene.symbols] for gene in chrom.genes]
    return (np.array(codes, dtype=code_dtype(num_inputs)),
            np.array([gene.constants for gene in chrom.genes], dtype=np.float64))


def kexpr_text(codes: np.ndarray, pools: np.ndarray, num_inputs: int) -> str:
    """K-expression text of ``(G, L)`` code rows over ``alphabet(num_inputs)``
    and their ``(G, 10)`` pools: one line per gene."""
    tokens = [sym.token for sym in alphabet(num_inputs)]
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
            try:
                sym = parse_symbol(token)
            except KExprError as exc:
                raise KExprError(f"{where}: {exc}") from None
            if sym.kind == KIND_INPUT and sym.index >= num_inputs:
                raise KExprError(f"{where}: input {token} but only {num_inputs} input(s)")
            code = symbol_code(sym, num_inputs)
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
