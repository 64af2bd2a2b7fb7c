import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import random_chromosome
from embgep import displacement, karva
from embgep.karva import (
    Chromosome,
    Gene,
    KExprError,
    chromosome_codes,
    kexpr_codes,
    kexpr_text,
    tail_length,
)
from oracles import chromosome_from_codes, decode, evaluate_chromosome, evaluate_tree

POOL = tuple(float(i) for i in range(10))
POOL_TEXT = " ".join(map(repr, POOL))


def gene_from_tokens(tokens, head_len, constants=POOL):
    return Gene(tuple(tokens[:head_len]), tuple(tokens[head_len:]), constants)


class TestTailLength:
    def test_published_geometry(self):
        assert tail_length(7) == 8

    def test_smallest_head(self):
        assert tail_length(1) == 2

    @pytest.mark.parametrize("head", [0, -1])
    def test_rejects_nonpositive(self, head):
        with pytest.raises(ValueError):
            tail_length(head)


def gene_line(tokens, pool_text=POOL_TEXT):
    return f"{tokens} | {pool_text}"


class TestValidate:
    """The structural rules of a gene, which the reader enforces."""

    def test_function_in_tail_reports_position(self):
        with pytest.raises(KExprError, match=r"^line 1, position 3: function '-' in the tail"):
            kexpr_codes(gene_line("+ d0 d1 - d0 d1 d0"), 2)

    def test_valid_published_geometry(self):
        codes, pools = kexpr_codes(gene_line("+ - * / d0 d1 d2 " + "d0 " * 8), 3)
        assert codes.shape == (1, 7 + tail_length(7)) and pools.shape == (1, 10)
        assert codes.dtype == karva.code_dtype(3)

    def test_tail_length_mismatch(self):
        # head 2 needs a tail of 3: a 4-symbol gene has no head/tail split
        with pytest.raises(KExprError, match=r"^line 1: gene length 4 is not 2\*head\+1"):
            kexpr_codes(gene_line("+ d0 d0 d1"), 2)

    def test_input_index_bound(self):
        line = gene_line("+ d0 d5 d0 d1")
        assert kexpr_codes(line, 6)[0].tolist() == [[0, 4, 9, 4, 5]]
        with pytest.raises(KExprError, match=r"^line 1, position 2: input d5 but only 3 input"):
            kexpr_codes(line, 3)

    def test_short_constant_pool(self):
        with pytest.raises(KExprError, match=r"^line 1: expected 10 pool constants, got 2"):
            kexpr_codes(gene_line("d0 d0 d0", "1.0 2.0"), 1)


class TestDecode:
    def test_terminal_root_short_circuits(self):
        gene = gene_from_tokens("d0 * + d1 d2 d0 d1".split(), head_len=3)
        tree = decode(gene)
        assert tree.children == ()
        assert evaluate_tree(tree, [5.0, 1.0, 2.0], POOL) == 5.0

    def test_breadth_first_layout(self):
        # [*, +, d0 | d1, d2, d0, d1] decodes to (d1 + d2) * d0
        gene = gene_from_tokens("* + d0 d1 d2 d0 d1".split(), head_len=3)
        tree = decode(gene)
        assert tree.symbol == "*"
        left, right = tree.children
        assert left.symbol == "+"
        assert [c.symbol for c in left.children] == ["d1", "d2"]
        assert right.symbol == "d0"
        assert evaluate_tree(tree, [2.0, 3.0, 4.0], POOL) == 14.0

    def test_deterministic(self):
        gene = gene_from_tokens("* + d0 d1 d2 d0 d1".split(), head_len=3)
        assert decode(gene) == decode(gene)

    def test_exhaustive_small_genes_decode_cleanly(self):
        # every L_h = 2 gene over a 2-input, 2-constant alphabet
        head_alphabet = "+ - * / d0 d1 c0 c1".split()
        tail_alphabet = "d0 d1 c0 c1".split()
        count = 0
        for head in itertools.product(head_alphabet, repeat=2):
            for tail in itertools.product(tail_alphabet, repeat=3):
                gene = gene_from_tokens(list(head) + list(tail), head_len=2)
                codes, pools = kexpr_codes(gene_line(" ".join(head + tail)), 2)
                assert chromosome_from_codes(codes, pools, 2) == Chromosome((gene,))
                consumed = karva.consumed_length(gene)
                assert consumed <= gene.length
                tree = decode(gene)
                assert tree.size == consumed
                stack = [tree]
                while stack:
                    node = stack.pop()
                    assert len(node.children) == (2 if node.symbol in karva.FUNCTION_TOKENS else 0)
                    stack.extend(node.children)
                count += 1
        assert count == 8**2 * 4**3

    def test_gep_formula_terms_round_trip(self):
        # encode the four published sub-trees, decode, and check algebraic
        # equivalence against the closed-form relationship
        chrom = oracles.build_gep_formula_chromosome()
        for gene in chrom.genes:
            assert decode(gene) == decode(gene)
        text = kexpr_text(*chromosome_codes(chrom, 3), 3)
        again = chromosome_from_codes(*kexpr_codes(text, 3), 3)
        assert again == chrom
        rng = np.random.default_rng(5)
        for _ in range(10):
            m_w = rng.uniform(4.9, 8.3)
            x = rng.uniform(0.0, 3.5)
            r = rng.uniform(1.5, 4.0)  # above the pole
            direct = displacement.gep_ln_displacement(m_w, x, r)
            via_genes = evaluate_chromosome(chrom, [m_w, x, r])
            assert via_genes == pytest.approx(direct, abs=1e-9)


class TestEvaluate:
    def test_constant_leaf(self):
        gene = gene_from_tokens("c3 d0 d0".split(), head_len=1, constants=(0, 0, 0, 5.0, 0, 0, 0, 0, 0, 0))
        assert evaluate_tree(decode(gene), [1.0], gene.constants) == 5.0

    def test_division_by_zero_flags(self):
        gene = gene_from_tokens("/ d0 d1 d0 d0".split(), head_len=2)
        assert evaluate_tree(decode(gene), [1.0, 0.0], POOL) is None

    def test_overflow_flags(self):
        big = (1e308,) + (0.0,) * 9
        gene = gene_from_tokens("* c0 c0 d0 d0".split(), head_len=2, constants=big)
        assert evaluate_tree(decode(gene), [0.0], gene.constants) is None

    def test_linking_by_addition(self):
        gene = gene_from_tokens("d0 d0 d0".split(), head_len=1)
        chrom = Chromosome((gene, gene))
        assert evaluate_chromosome(chrom, [3.0]) == 6.0

    def test_non_finite_gene_poisons_chromosome(self):
        ok = gene_from_tokens("d0 d0 d0".split(), head_len=1)
        div0 = Gene(
            ("/",),
            ("d0", "c0"),
            (0.0,) * 10,
        )
        assert evaluate_chromosome(Chromosome((ok, div0)), [3.0]) is None

    def test_chromosome_equals_sum_of_gene_trees(self, rng):
        for _ in range(50):
            chrom = random_chromosome(rng)
            inputs = rng.uniform(-3.0, 3.0, size=3)
            total = 0.0
            finite = True
            for gene in chrom.genes:
                v = evaluate_tree(decode(gene), inputs, gene.constants)
                if v is None:
                    finite = False
                    break
                total += v
            got = evaluate_chromosome(chrom, inputs)
            if finite and math.isfinite(total):
                assert got == pytest.approx(total, rel=0, abs=0)
            else:
                assert got is None


class TestSerialization:
    def test_round_trip_random(self, rng):
        for _ in range(25):
            chrom = random_chromosome(rng)
            codes, pools = chromosome_codes(chrom, 3)
            text = kexpr_text(codes, pools, 3)
            back_codes, back_pools = kexpr_codes(text, 3)
            assert np.array_equal(back_codes, codes) and back_pools.tobytes() == pools.tobytes()
            assert kexpr_text(back_codes, back_pools, 3) == text

    def test_rejects_even_length(self):
        with pytest.raises(KExprError, match="^line 1: gene length 4"):
            kexpr_codes(gene_line("+ d0 d0 d0"), 1)

    def test_rejects_bad_token(self):
        with pytest.raises(KExprError, match="^line 1, position 0: unknown symbol token 'q'"):
            kexpr_codes(gene_line("q d0 d0"), 1)

    def test_rejects_wrong_pool_size(self):
        with pytest.raises(KExprError, match="^line 1: expected 10 pool constants, got 2"):
            kexpr_codes(gene_line("+ d0 d0 d0 d0", "1.0 2.0"), 1)

    def test_rejects_empty(self):
        for text in ("", "\n\n", "  \n"):
            with pytest.raises(KExprError, match="empty K-expression text"):
                kexpr_codes(text, 3)
        with pytest.raises(ValueError, match="^chromosome needs at least one gene"):
            Chromosome(())

    def test_mixed_gene_lengths_rejected(self):
        text = gene_line("d0 d0 d0") + "\n" + gene_line("+ d0 d0 d0 d0")
        with pytest.raises(KExprError, match="^line 2: gene length 5 differs from the first gene's 3"):
            kexpr_codes(text, 1)
        genes = (gene_from_tokens("d0 d0 d0".split(), 1),
                 gene_from_tokens("+ d0 d0 d0 d0".split(), 2))
        with pytest.raises(ValueError, match="^all genes of a chromosome must share head/tail"):
            Chromosome(genes)

    def test_reader_spellings_of_each_code(self):
        # an index with leading zeros is the index int() reads from it
        for num_inputs in range(1, 5):
            tokens = karva.alphabet(num_inputs)
            assert len(tokens) == karva.NUM_FUNCTIONS + num_inputs + karva.POOL_SIZE
            spelled = kexpr_codes(gene_line("+ d00 c01 c009 d0"), num_inputs)[0]
            assert spelled.tolist() == [[tokens.index(t) for t in ("+", "d0", "c1", "c9", "d0")]]
            # every token of the alphabet, all in one head, reads back as its own code
            line = gene_line(" ".join(tokens + ("d0",) * (len(tokens) + 1)))
            codes = kexpr_codes(line, num_inputs)[0]
            assert codes[0, :len(tokens)].tolist() == list(range(len(tokens)))

    # each line below is wrong in one way; a good gene and a blank line come
    # first, so the error must name line 3
    @pytest.mark.parametrize("bad,message", [
        (gene_line("+ d0 * d1 d2"), "line 3, position 2: function '\\*' in the tail"),
        (gene_line("+ d0 d3 d0 d1"), "line 3, position 2: input d3 but only 3 input"),
        (gene_line("+ d0 d1 d2 d0 d1 d2"), "line 3: gene length 7 differs"),
        (gene_line("+ d0 d1 d2 d0", "1.0 x " + "0.0 " * 8), "line 3, constant 1: 'x' is not"),
        (gene_line("+ d0 d1 d2 d0", "nan " + "0.0 " * 9), "line 3, constant 0: 'nan' is not"),
        ("+ d0 d1 d2 d0 " + POOL_TEXT, "line 3: missing the '\\|'"),
        (gene_line("+ d0 c10 d2 d0"), "line 3, position 2: constant index 10 outside pool"),
        (gene_line("+ d0 c\u00b2 d2 d0"), "line 3, position 2: unknown symbol token 'c\u00b2'"),
        (gene_line("+ d0 d\u0662 d2 d0"), "line 3, position 2: unknown symbol token 'd\u0662'"),
    ])
    def test_reader_names_the_offending_line(self, bad, message):
        good = gene_line("- d1 c9 d2 d0")
        with pytest.raises(KExprError, match="^" + message):
            kexpr_codes(f"{good}\n\n{bad}\n", 3)
        assert kexpr_codes(good, 3)[0].tolist() == [[1, 5, 16, 6, 4]]
