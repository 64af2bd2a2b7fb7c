"""Batch evaluation of decoded genes over a data matrix.

A gene, given as a row of symbol codes (``karva.alphabet``) and its pool,
is compiled once into a flat program of ``(code, arg1, arg2)`` triples in
breadth-first node order (children always after their parent, laid out by
``karva.coding_children``), then evaluated with numpy over every
data row at once: one vectorised pass per node, in reverse node order.

Non-finite semantics: a division by zero, an overflow or any other
non-finite intermediate poisons that data row to NaN, even if later
operations would have brought it back to a finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .karva import (
    ADD,
    KIND_INPUT,
    MUL,
    NUM_FUNCTIONS,
    SUB,
    Chromosome,
    Gene,
    coding_children,
    symbol_code,
)

CODE_INPUT = 4
CODE_CONST = 5


@dataclass(frozen=True)
class GeneProgram:
    """Flat executable form of one gene's coding region.

    ``nodes[i]`` is ``(code, arg1, arg2)``: ``code`` is 0..3 for + - * /,
    4 for an input load, 5 for a constant load.  For functions
    ``arg1``/``arg2`` are child node indices (always > i); for loads
    ``arg1`` is the input column, or the index into ``constants``, and
    ``arg2`` is 0.

    ``constants`` holds only the pool constants the coding region reads,
    once each, in the order of their first use.  Non-coding symbols and
    unread pool slots never enter the program, so two genes compile to
    equal programs exactly when they compute the same function.
    """

    nodes: tuple[tuple[int, int, int], ...]
    constants: tuple[float, ...]


def compile_codes(codes, pool, num_inputs: int) -> GeneProgram:
    """Program of one gene given as its symbol codes and its pool."""
    codes = [int(c) for c in codes]
    first_constant = NUM_FUNCTIONS + num_inputs
    nodes = []
    slots: dict[int, int] = {}  # pool slot -> index into the program's constants
    for code, children in zip(codes, coding_children([c < NUM_FUNCTIONS for c in codes])):
        if children is not None:
            nodes.append((code, children[0], children[1]))
        elif code < first_constant:
            nodes.append((CODE_INPUT, code - NUM_FUNCTIONS, 0))
        else:
            nodes.append((CODE_CONST, slots.setdefault(code - first_constant, len(slots)), 0))
    return GeneProgram(tuple(nodes), tuple(float(pool[slot]) for slot in slots))


def compile_gene(gene: Gene) -> GeneProgram:
    # any alphabet holding the gene's inputs gives the same program
    num_inputs = 1 + max((s.index for s in gene.symbols if s.kind == KIND_INPUT), default=-1)
    return compile_codes([symbol_code(s, num_inputs) for s in gene.symbols], gene.constants,
                         num_inputs)


def compile_chromosome(chrom: Chromosome) -> tuple[GeneProgram, ...]:
    return tuple(compile_gene(g) for g in chrom.genes)


def evaluate_gene_batch(prog: GeneProgram, X: np.ndarray) -> np.ndarray:
    """Gene value per row of ``X``, NaN where any node is non-finite."""
    nodes = prog.nodes
    rows = X.shape[0]
    vals = np.empty((len(nodes), rows), dtype=np.float64)
    bad = np.zeros(rows, dtype=bool)
    with np.errstate(all="ignore"):
        for i in range(len(nodes) - 1, -1, -1):
            c, arg1, arg2 = nodes[i]
            if c == CODE_INPUT:
                vals[i] = X[:, arg1]
            elif c == CODE_CONST:
                vals[i] = prog.constants[arg1]
            else:
                a = vals[arg1]
                b = vals[arg2]
                if c == ADD:
                    v = a + b
                elif c == SUB:
                    v = a - b
                elif c == MUL:
                    v = a * b
                else:
                    v = a / b
                bad |= ~np.isfinite(v)
                vals[i] = v
    out = vals[0].copy()
    out[bad] = np.nan
    return out


def evaluate_chromosome_batch(chrom: Chromosome, X: np.ndarray,
                              programs: tuple[GeneProgram, ...] | None = None) -> np.ndarray:
    """Chromosome value per row: sum of gene programs, NaN where any gene
    (or the sum itself) is non-finite."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (rows, inputs) matrix")
    if programs is None:
        programs = compile_chromosome(chrom)
    total = np.zeros(X.shape[0], dtype=np.float64)
    with np.errstate(all="ignore"):
        for prog in programs:
            total = total + evaluate_gene_batch(prog, X)
    total[~np.isfinite(total)] = np.nan
    return total
