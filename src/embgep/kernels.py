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
non-finite sum of the genes.  ``gene_sum`` checks this at two places only:
at every division whose divisor is a computed node (``isinf``, into a
``bad`` mask made at the first such division) and at the gene sum.  That
is complete for finite terminals.  Among + - * /, ``x / +-inf`` is the only
operation that turns a non-finite operand finite: a NaN operand always
gives NaN, and an infinite one gives an infinity or a NaN in every other
position.  So a non-finite node value either reaches the gene sum or is an
infinite computed divisor, and a NaN divisor makes its quotient NaN.

The arithmetic overflows and divides by zero by design.  ``gene_sum``, which
every evaluator here calls, enters ``np.errstate(all="ignore")`` and lets no
numpy warning out; ``_gene_sum``, its body, leaves that to its caller.
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
             num_inputs: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Sum of the genes per data row, unmasked, and the rows it flags.

    ``codes`` and ``pools`` are ``(G, L)`` code rows over
    ``alphabet(num_inputs)`` and ``(G, 10)`` pools, G >= 1, and ``lengths``
    is their ``coding_lengths`` as G ints; ``columns`` holds the inputs as
    a C-contiguous ``(inputs, rows)`` array.  Returns a new ``total`` array
    and ``bad``, true where a computed divisor is infinite (a numpy bool
    that broadcasts when every such divisor is a constant), or None when no
    divisor is a computed node.  A row is non-finite in the sense of the
    module docstring exactly where ``bad`` holds or ``total`` is not finite.

    Only the node values that an unevaluated parent still reads are kept: a
    function drops its two children's values once it has read them, so at
    most about half of a gene's function nodes are held as row arrays at
    once, beside ``total`` and ``bad``.

    numpy's floating-point warnings are silenced by one ``np.errstate``
    per call.  The GEP loop, which scores several chromosomes a generation,
    enters ``np.errstate`` once per generation and calls ``_gene_sum``, this
    function's body, directly.
    """
    with np.errstate(all="ignore"):
        return _gene_sum(codes, pools, lengths, columns, num_inputs)


def _gene_sum(codes, pools, lengths, columns, num_inputs):
    """``gene_sum`` for a caller that has entered ``np.errstate(all="ignore")``
    itself."""
    first_constant = NUM_FUNCTIONS + num_inputs
    num_columns, rows = columns.shape
    total = bad = None
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
                if code == DIV and row[right] < NUM_FUNCTIONS:
                    if bad is None:
                        bad = np.isinf(vals[right])
                    else:
                        bad |= np.isinf(vals[right])
                v = _OPERATIONS[code](vals[left], vals[right])
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
    return total, bad


def evaluate_codes(codes: np.ndarray, pools: np.ndarray, X: np.ndarray,
                   num_inputs: int) -> np.ndarray:
    """Chromosome value per row of the ``(rows, inputs)`` matrix ``X``: the
    ``gene_sum`` of its code rows and pools, NaN where any coding node or
    the sum is non-finite."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    total, bad = gene_sum(codes, pools, coding_lengths(codes).tolist(), columns, num_inputs)
    nonfinite = ~np.isfinite(total)
    if bad is not None:
        nonfinite |= bad
    total[nonfinite] = np.nan
    return total


def evaluate_chromosome_batch(chrom: Chromosome, X: np.ndarray) -> np.ndarray:
    """``evaluate_codes`` of a ``Chromosome`` view."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D (rows, inputs) matrix")
    codes, pools, num_inputs = compile_chromosome(chrom)
    return evaluate_codes(codes, pools, X, num_inputs)
