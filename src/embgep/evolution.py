"""GEP search loop: initialisation, fitness, roulette selection with elitism,
the full genetic operator suite and the generation loop.

Rate conventions: the three mutation variants are per-site probabilities
(symbol positions, or pool slots for constant mutation); permutation,
inversion, the transpositions and all recombinations are per-chromosome
(per-pair for recombinations) probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .karva import (
    FUNCTION_TOKENS,
    POOL_SIZE,
    Chromosome,
    Gene,
    Symbol,
    constant_symbol,
    function_symbol,
    input_symbol,
    tail_length,
)
from .kernels import compile_chromosome, compile_gene, evaluate_chromosome_batch


class ConfigError(ValueError):
    """Bad evolution configuration value or config-file line."""


@dataclass(frozen=True)
class OperatorRates:
    """Per-operator trigger probabilities (defaults: tuned published values)."""

    mutation: float = 0.0014
    conservative_mutation: float = 0.0037
    permutation: float = 0.0055
    biased_mutation: float = 0.0055
    is_transposition: float = 0.0055
    ris_transposition: float = 0.0055
    inversion: float = 0.0055
    uniform_recombination: float = 0.008
    one_point_recombination: float = 0.003
    two_point_recombination: float = 0.003
    gene_recombination: float = 0.003
    gene_transposition: float = 0.003

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class GepConfig:
    num_chromosomes: int = 50
    head_size: int = 7
    num_genes: int = 4
    num_inputs: int = 3
    rates: OperatorRates = field(default_factory=OperatorRates)
    max_generations: int = 1000
    stagnation_limit: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_chromosomes < 2:
            raise ConfigError("population size must be >= 2")
        if self.num_genes < 1:
            raise ConfigError("number of genes must be >= 1")
        if self.head_size < 1:
            raise ConfigError("head size must be >= 1")
        if self.num_inputs < 1:
            raise ConfigError("number of inputs must be >= 1")
        if self.max_generations < 0:
            raise ConfigError("max_generations must be >= 0")
        if self.stagnation_limit < 1:
            raise ConfigError("stagnation_limit must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be a non-negative 64-bit integer")
        for name, value in self.rates.as_dict().items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"rate {name}={value} outside [0, 1]")

    @property
    def gene_length(self) -> int:
        return self.head_size + tail_length(self.head_size)


@dataclass(frozen=True)
class FitnessReport:
    """Fitness is 1000 / (1 + rmse); 1000 means a perfect fit, 0 a flagged one."""

    fitness: float
    rmse: float
    per_generation_best: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Best-ever chromosome and its report, the per-generation mean fitness,
    and ``evaluations``, the number of chromosomes actually evaluated (a
    chromosome whose coding programs were already scored is not)."""

    best: Chromosome
    report: FitnessReport
    mean_history: tuple[float, ...]
    evaluations: int


@dataclass(frozen=True)
class SymbolSpace:
    """Sampling alphabets for a given input arity."""

    functions: tuple[Symbol, ...]
    terminals: tuple[Symbol, ...]

    @classmethod
    def for_inputs(cls, num_inputs: int) -> "SymbolSpace":
        functions = tuple(function_symbol(t) for t in FUNCTION_TOKENS)
        terminals = tuple(input_symbol(i) for i in range(num_inputs)) + tuple(
            constant_symbol(j) for j in range(POOL_SIZE)
        )
        return cls(functions, terminals)

    @property
    def head_symbols(self) -> tuple[Symbol, ...]:
        return self.functions + self.terminals


def _as_dataset(X, y):
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (rows, inputs)")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-D with one target per row")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    return X, y


def fitness(chrom: Chromosome, X, y, programs=None) -> FitnessReport:
    """RMSE-based fitness; any non-finite prediction forces fitness 0.

    ``programs`` are the chromosome's compiled genes, compiled here if not
    given."""
    X, y = _as_dataset(X, y)
    if programs is None:
        programs = compile_chromosome(chrom)
    preds = evaluate_chromosome_batch(chrom, X, programs)
    if not np.isfinite(preds).all():
        return FitnessReport(0.0, math.inf)
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
    if not math.isfinite(rmse):
        return FitnessReport(0.0, math.inf)
    return FitnessReport(1000.0 / (1.0 + rmse), rmse)


def initialize(config: GepConfig, rng: np.random.Generator) -> list[Chromosome]:
    """Random population: heads uniform over functions and terminals, tails
    uniform over terminals, pool constants uniform in [-10, 10]."""
    space = SymbolSpace.for_inputs(config.num_inputs)
    head_n = len(space.head_symbols)
    term_n = len(space.terminals)
    tail_len = tail_length(config.head_size)
    population = []
    for _ in range(config.num_chromosomes):
        genes = []
        for _ in range(config.num_genes):
            head_idx = rng.integers(0, head_n, size=config.head_size)
            tail_idx = rng.integers(0, term_n, size=tail_len)
            constants = rng.uniform(-10.0, 10.0, size=POOL_SIZE)
            genes.append(
                Gene(
                    tuple(space.head_symbols[i] for i in head_idx),
                    tuple(space.terminals[i] for i in tail_idx),
                    tuple(constants),
                )
            )
        population.append(Chromosome(tuple(genes)))
    return population


def select(population, fitnesses, rng: np.random.Generator) -> list[Chromosome]:
    """Roulette-wheel sampling proportional to fitness with the single best
    chromosome copied unchanged to slot 0 (elitism).  All-zero fitness falls
    back to uniform sampling."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    if len(population) != fits.shape[0]:
        raise ValueError("fitness list does not match population")
    best = int(np.argmax(fits))
    n = len(population)
    total = float(fits.sum())
    if total > 0.0:
        idx = rng.choice(n, size=n - 1, p=fits / total)
    else:
        idx = rng.integers(0, n, size=n - 1)
    return [population[best]] + [population[i] for i in idx]


# ---------------------------------------------------------------------------
# operators


def _replace_gene(chrom: Chromosome, gi: int, gene: Gene) -> Chromosome:
    genes = list(chrom.genes)
    genes[gi] = gene
    return Chromosome(tuple(genes))


def _point_mutation(chrom, rate, rng, space, conservative=False):
    """Resample random symbol positions; head draws from the full alphabet,
    tail from terminals only.  Conservative mode stays within the symbol
    class (function -> function, terminal -> terminal)."""
    gene_len = chrom.genes[0].length
    head_len = chrom.head_length
    n_positions = len(chrom.genes) * gene_len
    k = int(rng.binomial(n_positions, rate))
    if k == 0:
        return chrom
    positions = np.sort(rng.choice(n_positions, size=k, replace=False))
    touched: dict[int, list[Symbol]] = {}  # gene index -> its symbols, edited
    for pos in positions:
        gi, si = divmod(int(pos), gene_len)
        symbols = touched.get(gi)
        if symbols is None:
            symbols = touched[gi] = list(chrom.genes[gi].symbols)
        in_head = si < head_len
        if conservative:
            old = symbols[si]
            pool = space.functions if not old.is_terminal else space.terminals
        else:
            pool = space.head_symbols if in_head else space.terminals
        symbols[si] = pool[int(rng.integers(0, len(pool)))]
    genes = list(chrom.genes)
    for gi, symbols in touched.items():
        genes[gi] = Gene(tuple(symbols[:head_len]), tuple(symbols[head_len:]), genes[gi].constants)
    return Chromosome(tuple(genes))


def _constant_mutation(chrom, rate, rng):
    """Perturb random pool constants with unit-sigma Gaussian noise."""
    n_slots = len(chrom.genes) * POOL_SIZE
    k = int(rng.binomial(n_slots, rate))
    if k == 0:
        return chrom
    slots = np.sort(rng.choice(n_slots, size=k, replace=False))
    touched: dict[int, list[float]] = {}  # gene index -> its pool, edited
    for slot in slots:
        gi, ci = divmod(int(slot), POOL_SIZE)
        pool = touched.get(gi)
        if pool is None:
            pool = touched[gi] = list(chrom.genes[gi].constants)
        pool[ci] += float(rng.normal(0.0, 1.0))
    genes = list(chrom.genes)
    for gi, pool in touched.items():
        genes[gi] = Gene(genes[gi].head, genes[gi].tail, tuple(pool))
    return Chromosome(tuple(genes))


def _permutation(chrom, rng):
    """Swap two head positions of one gene."""
    gi = int(rng.integers(0, len(chrom.genes)))
    gene = chrom.genes[gi]
    if gene.head_length < 2:
        return chrom
    i, j = (int(v) for v in rng.choice(gene.head_length, size=2, replace=False))
    head = list(gene.head)
    head[i], head[j] = head[j], head[i]
    return _replace_gene(chrom, gi, Gene(tuple(head), gene.tail, gene.constants))


def _inversion(chrom, rng):
    """Reverse a random head segment of one gene."""
    gi = int(rng.integers(0, len(chrom.genes)))
    gene = chrom.genes[gi]
    if gene.head_length < 2:
        return chrom
    start = int(rng.integers(0, gene.head_length - 1))
    length = int(rng.integers(2, gene.head_length - start + 1))
    head = list(gene.head)
    head[start : start + length] = reversed(head[start : start + length])
    return _replace_gene(chrom, gi, Gene(tuple(head), gene.tail, gene.constants))


_MAX_TRANSPOSON = 3


def _is_transposition(chrom, rng):
    """Copy a short segment (from anywhere in a source gene) into a non-root
    head position of a target gene; the head is truncated back to length."""
    src = chrom.genes[int(rng.integers(0, len(chrom.genes)))]
    gi = int(rng.integers(0, len(chrom.genes)))
    gene = chrom.genes[gi]
    if gene.head_length < 2:
        return chrom
    symbols = src.symbols
    start = int(rng.integers(0, len(symbols)))
    max_len = min(_MAX_TRANSPOSON, len(symbols) - start)
    length = int(rng.integers(1, max_len + 1))
    segment = symbols[start : start + length]
    pos = int(rng.integers(1, gene.head_length))
    head = (gene.head[:pos] + segment + gene.head[pos:])[: gene.head_length]
    return _replace_gene(chrom, gi, Gene(head, gene.tail, gene.constants))


def _ris_transposition(chrom, rng):
    """Copy a function-rooted segment of one gene to that gene's head root."""
    gi = int(rng.integers(0, len(chrom.genes)))
    gene = chrom.genes[gi]
    scan = int(rng.integers(0, gene.head_length))
    root = None
    for i in range(scan, gene.head_length):
        if not gene.head[i].is_terminal:
            root = i
            break
    if root is None:
        return chrom
    symbols = gene.symbols
    max_len = min(_MAX_TRANSPOSON, len(symbols) - root)
    length = int(rng.integers(1, max_len + 1))
    segment = symbols[root : root + length]
    head = (segment + gene.head)[: gene.head_length]
    return _replace_gene(chrom, gi, Gene(head, gene.tail, gene.constants))


def _gene_transposition(chrom, rng):
    """Move a whole gene to the front of the chromosome."""
    if len(chrom.genes) < 2:
        return chrom
    gi = int(rng.integers(1, len(chrom.genes)))
    genes = list(chrom.genes)
    gene = genes.pop(gi)
    return Chromosome(tuple([gene] + genes))


def _flat_symbols(chrom):
    return [s for g in chrom.genes for s in g.symbols]


def _rebuild(symbols, pools, parents, head_len, gene_len):
    """Chromosome from a flat symbol list and one pool per gene.  A gene
    whose segment and pool are a parent's own objects is that parent's
    ``Gene``; the others are built anew."""
    genes = []
    for gi, pool in enumerate(pools):
        seg = symbols[gi * gene_len : (gi + 1) * gene_len]
        for parent in parents:
            gene = parent.genes[gi]
            if pool is gene.constants and all(a is b for a, b in zip(seg, gene.symbols)):
                break
        else:
            gene = Gene(tuple(seg[:head_len]), tuple(seg[head_len:]), pool)
        genes.append(gene)
    return Chromosome(tuple(genes))


def _one_point_recombination(c1, c2, rng):
    """Swap everything past a single cut point; a gene's pool follows the
    parent that supplies the gene's first symbol."""
    gene_len = c1.genes[0].length
    head_len = c1.head_length
    s1, s2 = _flat_symbols(c1), _flat_symbols(c2)
    total = len(s1)
    cut = int(rng.integers(1, total))
    n_genes = len(c1.genes)
    pools1 = [(c1 if g * gene_len < cut else c2).genes[g].constants for g in range(n_genes)]
    pools2 = [(c2 if g * gene_len < cut else c1).genes[g].constants for g in range(n_genes)]
    return (
        _rebuild(s1[:cut] + s2[cut:], pools1, (c1, c2), head_len, gene_len),
        _rebuild(s2[:cut] + s1[cut:], pools2, (c1, c2), head_len, gene_len),
    )


def _two_point_recombination(c1, c2, rng):
    """Swap the segment between two cut points."""
    gene_len = c1.genes[0].length
    head_len = c1.head_length
    s1, s2 = _flat_symbols(c1), _flat_symbols(c2)
    total = len(s1)
    a, b = (int(v) for v in np.sort(rng.choice(np.arange(1, total), size=2, replace=False)))
    n_genes = len(c1.genes)

    def pools(mine, other):
        out = []
        for g in range(n_genes):
            start = g * gene_len
            out.append((other if a <= start < b else mine).genes[g].constants)
        return out

    return (
        _rebuild(s1[:a] + s2[a:b] + s1[b:], pools(c1, c2), (c1, c2), head_len, gene_len),
        _rebuild(s2[:a] + s1[a:b] + s2[b:], pools(c2, c1), (c1, c2), head_len, gene_len),
    )


def _uniform_recombination(c1, c2, rng):
    """Independent coin flip per symbol position and per pool slot."""
    gene_len = c1.genes[0].length
    head_len = c1.head_length
    s1, s2 = _flat_symbols(c1), _flat_symbols(c2)
    swap_sym = rng.random(len(s1)) < 0.5
    for i in np.flatnonzero(swap_sym):
        s1[i], s2[i] = s2[i], s1[i]
    n_genes = len(c1.genes)
    p1 = [list(g.constants) for g in c1.genes]
    p2 = [list(g.constants) for g in c2.genes]
    swap_const = rng.random(n_genes * POOL_SIZE) < 0.5
    for slot in np.flatnonzero(swap_const):
        gi, ci = divmod(int(slot), POOL_SIZE)
        p1[gi][ci], p2[gi][ci] = p2[gi][ci], p1[gi][ci]
    return (
        _rebuild(s1, [tuple(p) for p in p1], (c1, c2), head_len, gene_len),
        _rebuild(s2, [tuple(p) for p in p2], (c1, c2), head_len, gene_len),
    )


def _gene_recombination(c1, c2, rng):
    """Swap one whole gene (symbols and pool) between the parents."""
    gi = int(rng.integers(0, len(c1.genes)))
    g1, g2 = list(c1.genes), list(c2.genes)
    g1[gi], g2[gi] = g2[gi], g1[gi]
    return Chromosome(tuple(g1)), Chromosome(tuple(g2))


def apply_operators(population, config: GepConfig, rng: np.random.Generator) -> list[Chromosome]:
    """One generation of variation, stage by stage in fixed order.

    Mutation stages are per-site; the structural stages fire per chromosome,
    recombinations per adjacent pair.  Every output chromosome keeps the
    input geometry and the tail-terminal rule by construction.
    """
    space = SymbolSpace.for_inputs(config.num_inputs)
    rates = config.rates
    pop = list(population)

    pop = [_point_mutation(c, rates.mutation, rng, space) for c in pop]
    pop = [_point_mutation(c, rates.conservative_mutation, rng, space, conservative=True) for c in pop]
    pop = [_constant_mutation(c, rates.biased_mutation, rng) for c in pop]

    for op, rate in (
        (_permutation, rates.permutation),
        (_inversion, rates.inversion),
        (_is_transposition, rates.is_transposition),
        (_ris_transposition, rates.ris_transposition),
        (_gene_transposition, rates.gene_transposition),
    ):
        pop = [op(c, rng) if rng.random() < rate else c for c in pop]

    for op, rate in (
        (_one_point_recombination, rates.one_point_recombination),
        (_two_point_recombination, rates.two_point_recombination),
        (_uniform_recombination, rates.uniform_recombination),
        (_gene_recombination, rates.gene_recombination),
    ):
        for i in range(0, len(pop) - 1, 2):
            if rng.random() < rate:
                pop[i], pop[i + 1] = op(pop[i], pop[i + 1], rng)

    return pop


def _evaluate_population(pop, X, y, prev_cache):
    """Fitness per chromosome, evaluating each distinct coding program once.

    Each gene's coding program, the pair ``(program.nodes,
    program.constants)``, gets an int from a counter that runs for the
    whole run; equal pairs get the same int.  A chromosome's key is the
    tuple of its genes' ints, and the report of a chromosome whose genes
    differ from one already scored only in non-coding symbols or unread
    pool constants is that key's report.  Int tuples hash cheaply, while
    the nested program pairs would be re-hashed on every lookup.

    The cache holds the counter and three maps: ``id(gene) -> (gene,
    program, int, pair)`` (checked with ``is``, so a gene is compiled only
    when its object is new), ``pair -> int`` and ``key -> report``.  Each
    map keeps the previous and the current generation only; a gene carried
    over re-enters ``pair -> int``, so a new gene with an equal program
    finds its int, and ints are never reused, so an int that left the maps
    cannot name another program.
    ``prev_cache`` is the value returned for the previous generation (None
    for the first).  Returns the reports, the new cache and the number of
    chromosomes evaluated.
    """
    if prev_cache is None:
        prev_cache = (itertools.count(), {}, {}, {})
    counter, prev_programs, prev_ints, prev_reports = prev_cache
    programs, ints, reports_by_key = {}, {}, {}
    reports = []
    evaluations = 0
    for chrom in pop:
        keys = []
        for gene in chrom.genes:
            gid = id(gene)
            entry = programs.get(gid)
            if entry is None:
                entry = prev_programs.get(gid)
                if entry is None or entry[0] is not gene:
                    program = compile_gene(gene)
                    pair = (program.nodes, program.constants)
                    number = ints.get(pair)
                    if number is None:
                        number = prev_ints.get(pair)
                        if number is None:
                            number = next(counter)
                    entry = (gene, program, number, pair)
                ints[entry[3]] = entry[2]
                programs[gid] = entry
            keys.append(entry[2])
        key = tuple(keys)
        report = reports_by_key.get(key)
        if report is None:
            report = prev_reports.get(key)
            if report is None:
                compiled = tuple(programs[id(gene)][1] for gene in chrom.genes)
                report = fitness(chrom, X, y, compiled)
                evaluations += 1
            reports_by_key[key] = report
        reports.append(report)
    return reports, (counter, programs, ints, reports_by_key), evaluations


def run(config: GepConfig, X, y, rng: np.random.Generator | None = None) -> RunResult:
    """Evolve until max_generations or stagnation_limit generations without
    best-fitness improvement; returns the best-ever chromosome, its report
    (with the per-generation best-fitness history) and the mean history."""
    X, y = _as_dataset(X, y)
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    pop = initialize(config, rng)
    reports, cache, evaluations = _evaluate_population(pop, X, y, None)
    fits = [r.fitness for r in reports]
    best_i = int(np.argmax(fits))
    best_chrom, best_rep = pop[best_i], reports[best_i]

    best_history: list[float] = []
    mean_history: list[float] = []
    stagnant = 0
    for _ in range(config.max_generations):
        if stagnant >= config.stagnation_limit:
            break
        parents = select(pop, fits, rng)
        pop = [parents[0]] + apply_operators(parents[1:], config, rng)
        reports, cache, count = _evaluate_population(pop, X, y, cache)
        evaluations += count
        fits = [r.fitness for r in reports]
        gen_i = int(np.argmax(fits))
        best_history.append(reports[gen_i].fitness)
        mean_history.append(float(np.mean(fits)))
        if reports[gen_i].fitness > best_rep.fitness:
            best_chrom, best_rep = pop[gen_i], reports[gen_i]
            stagnant = 0
        else:
            stagnant += 1

    report = replace(best_rep, per_generation_best=tuple(best_history))
    return RunResult(best_chrom, report, tuple(mean_history), evaluations)


@dataclass(frozen=True)
class SweepCell:
    num_genes: int
    head_size: int
    fitness: float


def sweep(X, y, base_config: GepConfig, gene_counts, head_sizes) -> list[SweepCell]:
    """Best fitness per (genes, head) grid cell, one fixed-seed run per cell."""
    gene_counts = list(gene_counts)
    head_sizes = list(head_sizes)
    if not gene_counts or not head_sizes:
        raise ValueError("sweep grids must be nonempty")
    cells = []
    for g in gene_counts:
        for h in head_sizes:
            cfg = replace(base_config, num_genes=g, head_size=h)
            rng = np.random.default_rng(np.random.SeedSequence([base_config.rng_seed, g, h]))
            result = run(cfg, X, y, rng)
            cells.append(SweepCell(g, h, result.report.fitness))
    return cells


# ---------------------------------------------------------------------------
# config files: plain "key = value" lines, keys named after the published
# parameter table

_RATE_KEYS = {
    "rate_of_mutation": "mutation",
    "conservative_mutation": "conservative_mutation",
    "permutation": "permutation",
    "biased_mutation": "biased_mutation",
    "is_transposition_rate": "is_transposition",
    "ris_transposition_rate": "ris_transposition",
    "rate_of_inversion": "inversion",
    "uniform_recombination": "uniform_recombination",
    "one_point_recombination": "one_point_recombination",
    "two_point_recombination": "two_point_recombination",
    "rate_of_gene_recombination": "gene_recombination",
    "rate_of_gene_transposition": "gene_transposition",
}

_INT_KEYS = {
    "number_of_chromosomes": "num_chromosomes",
    "head_size": "head_size",
    "number_of_genes": "num_genes",
    "number_of_inputs": "num_inputs",
    "max_generations": "max_generations",
    "stagnation_limit": "stagnation_limit",
    "rng_seed": "rng_seed",
}

FUNCTION_SET_TEXT = "+, -, *, /"


def config_from_text(text: str) -> GepConfig:
    ints: dict[str, int] = {}
    rates: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _INT_KEYS:
            try:
                ints[_INT_KEYS[key]] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs an integer, got {value!r}") from None
        elif key in _RATE_KEYS:
            try:
                rates[_RATE_KEYS[key]] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs a number, got {value!r}") from None
        elif key == "linking_function":
            if value != "+":
                raise ConfigError(f"line {lineno}: only '+' linking is supported")
        elif key == "function_set":
            if value.replace(" ", "") != "+,-,*,/":
                raise ConfigError(f"line {lineno}: function set is fixed to {FUNCTION_SET_TEXT}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return GepConfig(rates=OperatorRates(**rates), **ints)


def read_config_file(path) -> GepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def config_to_text(config: GepConfig) -> str:
    lines = [
        f"number_of_chromosomes = {config.num_chromosomes}",
        f"head_size = {config.head_size}",
        f"number_of_genes = {config.num_genes}",
        f"number_of_inputs = {config.num_inputs}",
        "linking_function = +",
        f"function_set = {FUNCTION_SET_TEXT}",
    ]
    reverse_rates = {v: k for k, v in _RATE_KEYS.items()}
    for field_name, value in config.rates.as_dict().items():
        lines.append(f"{reverse_rates[field_name]} = {value!r}")
    lines += [
        f"max_generations = {config.max_generations}",
        f"stagnation_limit = {config.stagnation_limit}",
        f"rng_seed = {config.rng_seed}",
    ]
    return "\n".join(lines) + "\n"
