"""Independent oracles used to freeze expected values.

These never call the package's own arithmetic: the gep relationship is
re-evaluated in exact rational arithmetic (fractions), the comparison
relationships in 60-digit decimal arithmetic (decimal).  Python floats are
converted exactly (binary value, no re-parsing), so the oracle evaluates the
same inputs the implementation sees.

The scalar Karva decoder is the oracle of the array engine: it reads a
``karva.Gene`` view breadth first into an expression tree, with its own
layout code, and evaluates the tree on one input row in Python floats,
flagging any non-finite value.  ``kernels.gene_sum`` and
``kernels.evaluate_codes`` are checked against it.
"""

import math
from dataclasses import dataclass, field
from decimal import Decimal, getcontext
from fractions import Fraction

from embgep import karva

getcontext().prec = 60


def gep_formula_exact(m_w: float, ay_ratio: float, period_ratio: float) -> Fraction:
    """Exact rational evaluation of the gep ln-displacement formula."""
    mw = Fraction(m_w)
    x = Fraction(ay_ratio)
    r = Fraction(period_ratio)
    t1 = Fraction("6.524") * mw / (mw * x**4 + Fraction("7.864"))
    t2 = (x * r - r * r) / (Fraction("5.55") * r - Fraction("7.052"))
    t3 = Fraction("3.647") / (mw * mw)
    t4 = x * r - x - r - Fraction("5.098")
    return t1 + t2 + t3 + t4


def _d(value: float) -> Decimal:
    return Decimal(value)  # exact binary expansion of the float


_LN10 = Decimal(10).ln()


def _log10(value: Decimal) -> Decimal:
    return value.ln() / _LN10


def _pow(base: Decimal, exponent: str) -> Decimal:
    return (Decimal(exponent) * base.ln()).exp()


def hynes_griffin_exact(x: float) -> Decimal:
    v = _d(x)
    return (
        Decimal("-0.287")
        - Decimal("2.854") * v
        - Decimal("1.733") * v**2
        - Decimal("0.702") * v**3
        - Decimal("0.116") * v**4
    )


def ambraseys_menu_exact(x: float) -> Decimal:
    v = _d(x)
    return Decimal("0.9") + _log10(_pow(1 - v, "2.53") * _pow(v, "-1.09"))


def jibson_exact(x: float) -> Decimal:
    v = _d(x)
    return Decimal("-0.215") + _log10(_pow(1 - v, "2.341") * _pow(v, "-1.438"))


def saygili_rathje_exact(a_max: float, x: float) -> Decimal:
    a = _d(a_max)
    v = _d(x)
    return (
        Decimal("5.52")
        + Decimal("0.72") * a.ln()
        - Decimal("4.43") * v
        - Decimal("20.93") * v**2
        + Decimal("42.61") * v**3
        - Decimal("28.74") * v**4
    )


def madiai_exact(x: float) -> Decimal:
    v = _d(x)
    return Decimal("-0.418") - Decimal("0.857") * _log10(v) + Decimal("2.26") * _log10(1 - v)


def tsai_chien_exact(a_max: float, x: float, t_m: float) -> Decimal:
    a = _d(a_max)
    v = _d(x)
    tm = _d(t_m)
    return (
        Decimal("6.4")
        - Decimal("8.374") * v
        - Decimal("0.419") * v**2
        + Decimal("6.366") * v**3
        - Decimal("7.031") * v**4
        + Decimal("0.767") * a.ln()
        + Decimal("1.757") * tm.ln()
    )


# ---------------------------------------------------------------------------
# a chromosome hand-encoding the four additive terms of the gep relationship
# (inputs d0 = Mw, d1 = ay/amax, d2 = Td/Tp)


def _gene(kexpr_tokens: list[str], constants: dict[int, float], head_len: int = 11) -> karva.Gene:
    symbols = [karva.parse_symbol(tok) for tok in kexpr_tokens]
    filler = karva.parse_symbol("d0")
    total = head_len + karva.tail_length(head_len)
    symbols = symbols + [filler] * (total - len(symbols))
    pool = [0.0] * karva.POOL_SIZE
    for idx, value in constants.items():
        pool[idx] = value
    return karva.Gene(tuple(symbols[:head_len]), tuple(symbols[head_len:]), tuple(pool))


def build_gep_formula_chromosome() -> karva.Chromosome:
    """Four sub-trees matching the published expression term by term."""
    term1 = _gene(
        # c0*d0 / (d0*(d1^4) + c1) with d1^4 = (d1*d1)*(d1*d1)
        "/ * + c0 d0 * c1 d0 * * * d1 d1 d1 d1".split(),
        {0: 6.524, 1: 7.864},
    )
    term2 = _gene(
        # (d1*d2 - d2*d2) / (c0*d2 - c1)
        "/ - - * * * c1 d1 d2 d2 d2 c0 d2".split(),
        {0: 5.55, 1: 7.052},
    )
    term3 = _gene(
        # c0 / (d0*d0)
        "/ c0 * d0 d0".split(),
        {0: 3.647},
    )
    term4 = _gene(
        # ((d1*d2 - d1) - d2) - c0
        "- - c0 - d2 * d1 d1 d2".split(),
        {0: 5.098},
    )
    return karva.Chromosome((term1, term2, term3, term4))


# ---------------------------------------------------------------------------
# the scalar Karva decoder: object views of code rows, expression trees and
# their evaluation one input row at a time


def chromosome_from_codes(codes, constants, num_inputs: int) -> karva.Chromosome:
    """``Chromosome`` view of a ``(genes, L)`` code array and its ``(genes, 10)`` pools."""
    alphabet = karva.alphabet(num_inputs)
    head = (codes.shape[1] - 1) // 2
    return karva.Chromosome(tuple(
        karva.Gene(tuple(alphabet[c] for c in row[:head]), tuple(alphabet[c] for c in row[head:]),
                   pool)
        for row, pool in zip(codes.tolist(), constants.tolist())
    ))


def population_views(codes, pools, num_inputs: int) -> list[karva.Chromosome]:
    """The ``Chromosome`` view of every chromosome of the population arrays
    ``(codes, pools)``."""
    return [chromosome_from_codes(c, p, num_inputs) for c, p in zip(codes, pools)]


@dataclass(frozen=True)
class Node:
    """Expression-tree node; functions carry exactly two children."""

    symbol: karva.Symbol
    children: tuple["Node", ...] = field(default=())

    @property
    def size(self) -> int:
        return 1 + sum(child.size for child in self.children)


def decode(gene: karva.Gene) -> Node:
    """The gene's expression tree, read breadth first: each symbol's
    arguments are the next unread symbols, level by level, so a function's
    children follow every argument of the symbols read before it.  Symbols
    left unread are the gene's non-coding region."""
    symbols = gene.symbols
    first_child = []  # per coding position, where its arguments start
    needed = 1  # symbols the tree needs so far: the root and every argument met
    for sym in symbols:
        if len(first_child) == needed:
            break
        first_child.append(needed)
        needed += sym.arity
    if needed > len(symbols):
        raise ValueError("gene too short to decode: a function in its tail?")

    def build(i: int) -> Node:
        sym = symbols[i]
        return Node(sym, tuple(build(first_child[i] + k) for k in range(sym.arity)))

    return build(0)


def evaluate_tree(tree: Node, inputs, constants) -> float | None:
    """Evaluate an expression tree; ``None`` flags any non-finite result.

    Division by zero, overflow and every other non-finite intermediate value
    return the flag instead of a number: there is no protected arithmetic.
    """
    sym = tree.symbol
    if sym.kind == karva.KIND_INPUT:
        value = float(inputs[sym.index])
    elif sym.kind == karva.KIND_CONST:
        value = float(constants[sym.index])
    else:
        left = evaluate_tree(tree.children[0], inputs, constants)
        right = evaluate_tree(tree.children[1], inputs, constants)
        if left is None or right is None:
            return None
        if sym.index == karva.ADD:
            value = left + right
        elif sym.index == karva.SUB:
            value = left - right
        elif sym.index == karva.MUL:
            value = left * right
        else:
            if right == 0.0:
                return None
            value = left / right
    return value if math.isfinite(value) else None


def evaluate_gene(gene: karva.Gene, inputs) -> float | None:
    return evaluate_tree(decode(gene), inputs, gene.constants)


def evaluate_chromosome(chrom: karva.Chromosome, inputs) -> float | None:
    """Sum of per-gene values (linking by addition); non-finite if any gene is."""
    total = 0.0
    for gene in chrom.genes:
        value = evaluate_gene(gene, inputs)
        if value is None:
            return None
        total += value
    return total if math.isfinite(total) else None
