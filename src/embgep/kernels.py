"""Batch evaluation of chromosomes over a data matrix.

A chromosome is evaluated straight from its code rows (symbol codes from
``karva.alphabet``, one row per gene), their pools and the lengths of their
coding regions, which the caller takes from ``karva.coding_lengths``: each
coding region is run with numpy over every data row at once, one vectorised
operation per coding node, in reverse node order, so a function's children,
which Karva places after it, come first.  Non-coding symbols and unread
pool slots are never touched.  The inputs are read as contiguous
``(inputs, rows)`` columns, so a terminal is a unit-stride row.

Non-finite semantics: a division by zero, an overflow or any other
non-finite intermediate poisons that data row to NaN, even if later
operations would have brought it back to a finite value; so does a
non-finite sum of the genes.  ``gene_sum`` writes NaN in one place only:
into a quotient, on the rows where its divisor is a computed node and
infinite.  That is complete for finite terminals.  Among + - * /,
``x / +-inf`` is the only operation that turns a non-finite operand
finite: a NaN operand always gives NaN, and an infinite one gives an
infinity or a NaN in every other position.  So a non-finite node value
either reaches the gene sum or is an infinite computed divisor, and a NaN
divisor makes its quotient NaN.

The arithmetic overflows and divides by zero by design.  ``gene_sum``
leaves silencing numpy's warnings to its caller, which enters
``np.errstate(all="ignore")``: ``evaluate_codes`` once per call, the GEP
loop once per generation.
"""

from __future__ import annotations

import operator

import numpy as np

from .karva import DIV, NUM_FUNCTIONS, Chromosome, chromosome_codes, coding_lengths

# the function codes ADD, SUB, MUL, DIV, in that order
_OPERATIONS = (operator.add, operator.sub, operator.mul, operator.truediv)


def compile_chromosome(chrom: Chromosome) -> tuple[np.ndarray, np.ndarray, int]:
    """Code rows, pools and input count of a token view, for ``evaluate_codes``:
    the inputs run up to the highest ``d<i>`` token the view holds."""
    num_inputs = 1 + max((int(t[1:]) for g in chrom.genes for t in g.symbols if t[0] == "d"),
                         default=-1)
    codes, pools = chromosome_codes(chrom, num_inputs)
    return codes, pools, num_inputs


def gene_sum(codes: np.ndarray, pools: np.ndarray, lengths: list[int], columns: np.ndarray,
             num_inputs: int) -> np.ndarray:
    """Sum of the genes per data row, unmasked: non-finite exactly on the
    rows the module docstring calls non-finite.

    ``codes`` and ``pools`` are ``(G, L)`` code rows over
    ``alphabet(num_inputs)`` and ``(G, 10)`` pools, G >= 1, and ``lengths``
    is their ``coding_lengths`` as G ints; ``columns`` holds the inputs as
    a C-contiguous ``(inputs, rows)`` array.  Returns a new row array.  The
    caller enters ``np.errstate(all="ignore")``.

    Only the node values that an unevaluated parent still reads are kept: a
    function drops its two children's values once it has read them, so at
    most about half of a gene's function nodes are held as row arrays at
    once, beside the sum.
    """
    first_constant = NUM_FUNCTIONS + num_inputs
    num_columns, rows = columns.shape
    total = None
    for row, pool, n in zip(codes.tolist(), pools, lengths):
        if n == 0:
            raise ValueError("gene too short to read: a function in its tail?")
        # the k-th function's children are at 2k+1 and 2k+2, and a
        # coding region of n symbols holds (n - 1) // 2 functions
        functions = (n - 1) // 2
        vals = [None] * n
        for i in range(n - 1, -1, -1):
            code = row[i]
            if code < NUM_FUNCTIONS:
                functions -= 1
                left, right = 2 * functions + 1, 2 * functions + 2
                v = _OPERATIONS[code](vals[left], vals[right])
                if code == DIV and row[right] < NUM_FUNCTIONS:
                    infinite = np.isinf(vals[right])
                    if infinite.any():
                        # np.where also covers a 0-d quotient of constants
                        v = np.where(infinite, np.nan, v)
                # each node has one parent, so no child is read again
                vals[left] = vals[right] = None
            elif code < first_constant:
                column = code - NUM_FUNCTIONS
                if column >= num_columns:
                    raise ValueError(f"the chromosome reads input d{column},"
                                     f" but X has {num_columns} column(s)")
                v = columns[column]
            else:
                v = pool[code - first_constant]  # a numpy scalar: x / 0 gives inf
            vals[i] = v
        if total is None:
            # 0.0 + x, as a sum started at zero gives, into a new row array:
            # the gene's value may be a column of the inputs or a scalar
            total = np.add(vals[0], 0.0, out=np.empty(rows))
        else:
            total += vals[0]
    return total


def evaluate_codes(codes: np.ndarray, pools: np.ndarray, X: np.ndarray,
                   num_inputs: int) -> np.ndarray:
    """Chromosome value per row of the ``(rows, inputs)`` matrix ``X``: the
    ``gene_sum`` of its code rows and pools, NaN where any coding node or
    the sum is non-finite.  The rule is complete for finite inputs; ``X``
    is assumed finite."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    with np.errstate(all="ignore"):
        total = gene_sum(codes, pools, coding_lengths(codes).tolist(), columns, num_inputs)
    total[~np.isfinite(total)] = np.nan
    return total


def evaluate_chromosome_batch(chrom: Chromosome, X: np.ndarray) -> np.ndarray:
    """``evaluate_codes`` of a ``Chromosome`` view."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (rows, inputs) matrix")
    codes, pools, num_inputs = compile_chromosome(chrom)
    return evaluate_codes(codes, pools, X, num_inputs)
