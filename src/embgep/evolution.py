"""GEP search loop: initialisation, fitness, roulette selection with elitism,
the full genetic operator suite and the generation loop.

The population is two arrays: ``codes[p, g, i]``, the symbol code (see
``karva.alphabet``) at position ``i`` of gene ``g`` of chromosome ``p``, and
``pools[p, g]``, that gene's constant pool.  Every operator writes those
arrays in place, and the fitness cache keys each chromosome by the canonical
bytes of its coding regions (``canonical_keys``).

Rate conventions: the three mutation variants are per-site probabilities
(symbol positions, or pool slots for constant mutation); permutation,
inversion, the transpositions and all recombinations are per-chromosome
(per-pair for recombinations) probabilities.

Fixed costs per generation: ``select``'s roulette is the cumulative-sum
form of ``Generator.choice`` (the same draws, without its checks of ``p``),
``apply_operators`` reads trigger rates built once per config, and
``_evaluate_population`` enters ``np.errstate`` once per generation for all
the chromosomes it scores with ``kernels._gene_sum`` and ``_report``.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import cached_property
from time import perf_counter

import numpy as np

from . import karva
from .karva import NUM_FUNCTIONS, POOL_SIZE, alphabet, code_dtype, coding_lengths, tail_length
from .kernels import _gene_sum, evaluate_chromosome_batch

# re-exported: perfbench's per-layer tracer binds evolution.compile_chromosome
from .kernels import compile_chromosome  # noqa: F401

# the engine stages ``run`` times, in loop order
STAGES = ("selection", "operators", "canonical_keys", "evaluation")


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

    @cached_property
    def _trigger_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """``apply_operators``' trigger probabilities as two column arrays,
        one row per stage of ``_STRUCTURAL`` and of ``_RECOMBINATIONS``;
        built once per config, so once per run."""
        return tuple(np.array([getattr(self.rates, name) for _, name in stages])[:, None]
                     for stages in (_STRUCTURAL, _RECOMBINATIONS))


@dataclass(frozen=True)
class FitnessReport:
    """Fitness is 1000 / (1 + rmse); 1000 means a perfect fit, 0 a flagged one."""

    fitness: float
    rmse: float
    per_generation_best: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class RunResult:
    """Best-ever chromosome as its ``(G, L)`` code rows and ``(G, 10)`` pools,
    its report, the per-generation mean fitness, and ``evaluations``, the
    number of chromosomes actually evaluated (a chromosome whose canonical
    key was already scored is not).  The per-generation counters hold, for
    each generation after the initial population, the chromosomes evaluated
    and those of fitness 0.  ``timings_s`` maps each of ``STAGES`` to its
    wall seconds over the run; it is the one non-deterministic field."""

    best_codes: np.ndarray
    best_pools: np.ndarray
    report: FitnessReport
    mean_history: tuple[float, ...]
    evaluations: int
    evaluation_history: tuple[int, ...]
    zero_fitness_history: tuple[int, ...]
    timings_s: dict[str, float]


def _as_dataset(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (rows, inputs)")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-D with one target per row")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    return X, y


def _report(total, bad, y) -> FitnessReport:
    """Report of the gene sums ``total`` and flagged rows ``bad`` (or None)
    of ``kernels.gene_sum``; ``total`` is overwritten.  A non-finite value
    in ``total`` makes the RMSE non-finite, so it needs no check of its
    own; ``np.add.reduce`` is the pairwise sum ``np.mean`` takes.  The
    caller enters ``np.errstate``: the subtraction and the square can
    overflow."""
    if bad is not None and bad.any():
        return FitnessReport(0.0, math.inf)
    np.subtract(total, y, out=total)
    np.square(total, out=total)
    rmse = math.sqrt(np.add.reduce(total) / len(y))
    if not math.isfinite(rmse):
        return FitnessReport(0.0, math.inf)
    return FitnessReport(1000.0 / (1.0 + rmse), rmse)


def fitness(chrom: karva.Chromosome, X, y) -> FitnessReport:
    """RMSE-based fitness; any non-finite prediction forces fitness 0."""
    X, y = _as_dataset(X, y)
    preds = evaluate_chromosome_batch(chrom, X)
    with np.errstate(all="ignore"):
        return _report(preds, np.isnan(preds), y)


# gene positions ``initialize`` draws per ``rng.integers`` call
_DRAW_CHUNK = 2**16


def _draw_codes(rng: np.random.Generator, low: int, high: int, shape: tuple, dtype) -> np.ndarray:
    """``rng.integers(low, high, size=shape).astype(dtype)``, drawn
    ``_DRAW_CHUNK`` positions at a time into the ``dtype`` array: the same
    int64 draws, so the same values and the same final ``rng`` state,
    without an int64 array of the whole shape."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, flat.size)
        flat[start:stop] = rng.integers(low, high, size=stop - start)
    return out


def initialize(config: GepConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random population ``(codes, pools)``: heads uniform over the whole
    alphabet, tails uniform over the terminals, pool constants uniform in
    [-10, 10].  Heads, then tails, are drawn in chunks straight into the
    code dtype, so the transient is the two code arrays and no int64 copy
    of the population."""
    shape = (config.num_chromosomes, config.num_genes)
    n_symbols = len(alphabet(config.num_inputs))
    dtype = code_dtype(config.num_inputs)
    heads = _draw_codes(rng, 0, n_symbols, shape + (config.head_size,), dtype)
    tails = _draw_codes(rng, NUM_FUNCTIONS, n_symbols,
                        shape + (tail_length(config.head_size),), dtype)
    codes = np.concatenate((heads, tails), axis=2)
    pools = rng.uniform(-10.0, 10.0, size=shape + (POOL_SIZE,))
    return codes, pools


def select(fitnesses, rng: np.random.Generator) -> np.ndarray:
    """Indices of the next population: the single best chromosome in slot 0
    (elitism), then roulette-wheel draws proportional to fitness.  All-zero
    fitness falls back to uniform draws.

    The roulette is the cumulative-sum sampling of
    ``rng.choice(n, n - 1, p=fits / fits.sum())``, without that call's
    checks of ``p``: it draws the same indices and leaves ``rng`` in the
    same state."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    n = fits.shape[0]
    total = float(fits.sum())
    if total > 0.0:
        cdf = (fits / total).cumsum()
        cdf /= cdf[-1]
        idx = cdf.searchsorted(rng.random(n - 1), side="right")
    else:
        idx = rng.integers(0, n, size=n - 1)
    return np.concatenate(([fits.argmax()], idx))


# ---------------------------------------------------------------------------
# operators: each edits a code array and its pools in place


def _sites(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flat indices of ``n`` sites, each drawn with probability ``rate``."""
    return rng.choice(n, size=rng.binomial(n, rate), replace=False)


def _redraw(rng, in_first, first, second) -> np.ndarray:
    """One uniform code per site: from ``range(*first)`` where ``in_first``
    holds, from ``range(*second)`` elsewhere.  One draw ``v`` below the
    product of the two range sizes serves either, because ``v`` modulo
    either size is uniform."""
    n_first, n_second = first[1] - first[0], second[1] - second[0]
    v = rng.integers(0, n_first * n_second, size=in_first.shape)
    return np.where(in_first, first[0] + v % n_first, second[0] + v % n_second)


def _permutation(codes, pools, rng):
    """Swap two head positions of one gene."""
    gene = codes[rng.integers(0, len(codes))]
    head = len(gene) // 2
    if head >= 2:
        i, j = rng.choice(head, size=2, replace=False)
        gene[[i, j]] = gene[[j, i]]


def _inversion(codes, pools, rng):
    """Reverse a random head segment of one gene."""
    gene = codes[rng.integers(0, len(codes))]
    head = len(gene) // 2
    if head >= 2:
        start = rng.integers(0, head - 1)
        stop = start + rng.integers(2, head - start + 1)
        gene[start:stop] = gene[start:stop][::-1]


_MAX_TRANSPOSON = 3


def _is_transposition(codes, pools, rng):
    """Copy a short segment (from anywhere in a source gene) into a non-root
    head position of a target gene; the head is truncated back to length."""
    source = codes[rng.integers(0, len(codes))]
    gene = codes[rng.integers(0, len(codes))]
    length, head = len(gene), len(gene) // 2
    if head >= 2:
        start = rng.integers(0, length)
        stop = start + rng.integers(1, min(_MAX_TRANSPOSON, length - start) + 1)
        pos = rng.integers(1, head)
        gene[pos:head] = np.concatenate((source[start:stop], gene[pos:head]))[: head - pos]


def _ris_transposition(codes, pools, rng):
    """Copy a function-rooted segment of one gene to that gene's head root."""
    gene = codes[rng.integers(0, len(codes))]
    length, head = len(gene), len(gene) // 2
    scan = rng.integers(0, head)
    roots = np.flatnonzero(gene[scan:head] < NUM_FUNCTIONS)
    if roots.size:
        root = scan + roots[0]
        stop = root + rng.integers(1, min(_MAX_TRANSPOSON, length - root) + 1)
        gene[:head] = np.concatenate((gene[root:stop], gene[:head]))[:head]


def _gene_transposition(codes, pools, rng):
    """Move a whole gene, pool included, to the front of the chromosome."""
    if len(codes) >= 2:
        moved = rng.integers(1, len(codes)) + 1
        codes[:moved] = np.roll(codes[:moved], 1, axis=0)
        pools[:moved] = np.roll(pools[:moved], 1, axis=0)


# Recombinations act on the pairs (first, first + 1): each draws, for all its
# pairs at once, a mask over the flat symbol positions and a mask over the
# pools, then exchanges the masked cells between the two chromosomes.


def _swap_pairs(codes, pools, first, symbol_mask, pool_mask):
    n, genes, length = len(first), codes.shape[1], codes.shape[2]
    second = first + 1
    for arr, mask in ((codes, symbol_mask.reshape(n, genes, length)),
                      (pools, pool_mask.reshape(n, genes, -1))):
        a, b = arr[first], arr[second]
        arr[first], arr[second] = np.where(mask, b, a), np.where(mask, a, b)


def _one_point_recombination(codes, pools, first, rng):
    """Swap everything past a single cut point; a gene's pool follows the
    parent that supplies the gene's first symbol."""
    total, length = codes[0].size, codes.shape[2]
    cut = rng.integers(1, total, size=(len(first), 1))
    starts = np.arange(0, total, length)
    _swap_pairs(codes, pools, first, np.arange(total) >= cut, starts >= cut)


def _two_point_recombination(codes, pools, first, rng):
    """Swap the segment between two distinct cut points."""
    total, length = codes[0].size, codes.shape[2]
    a = rng.integers(1, total, size=(len(first), 1))
    b = rng.integers(1, total - 1, size=(len(first), 1))
    b += b >= a  # uniform over the cuts other than a
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    positions = np.arange(total)
    starts = positions[::length]
    _swap_pairs(codes, pools, first, (positions >= lo) & (positions < hi),
                (starts >= lo) & (starts < hi))


def _uniform_recombination(codes, pools, first, rng):
    """Independent coin flip per symbol position and per pool slot."""
    n = len(first)
    _swap_pairs(codes, pools, first, rng.random((n, codes[0].size)) < 0.5,
                rng.random((n, pools[0].size)) < 0.5)


def _gene_recombination(codes, pools, first, rng):
    """Swap one whole gene (symbols and pool) between the parents."""
    genes, length = codes.shape[1], codes.shape[2]
    gene = rng.integers(0, genes, size=(len(first), 1))
    _swap_pairs(codes, pools, first, np.arange(genes * length) // length == gene,
                np.arange(genes) == gene)


# apply_operators' structural stages and recombinations, in the order it
# runs them, each with the name of its rate in OperatorRates
_STRUCTURAL = (
    (_permutation, "permutation"),
    (_inversion, "inversion"),
    (_is_transposition, "is_transposition"),
    (_ris_transposition, "ris_transposition"),
    (_gene_transposition, "gene_transposition"),
)
_RECOMBINATIONS = (
    (_one_point_recombination, "one_point_recombination"),
    (_two_point_recombination, "two_point_recombination"),
    (_uniform_recombination, "uniform_recombination"),
    (_gene_recombination, "gene_recombination"),
)


def apply_operators(codes: np.ndarray, pools: np.ndarray, config: GepConfig,
                    rng: np.random.Generator) -> None:
    """One generation of variation of the C-contiguous population arrays
    ``codes`` and ``pools``, stage by stage in fixed order.  The arrays are
    varied in place: the caller owns them, and copies first whatever it
    must keep.

    Each mutation stage draws one binomial count of sites over the whole
    population and writes them at once.  The structural stages fire per
    chromosome and the recombinations per adjacent pair; the triggers of
    all structural stages are drawn in one call, those of all recombinations
    in another.  Every output chromosome keeps the input geometry and the
    tail-terminal rule by construction.
    """
    rates = config.rates
    n_symbols = len(alphabet(config.num_inputs))
    length = codes.shape[2]
    symbols = codes.reshape(-1)

    functions, terminals = (0, NUM_FUNCTIONS), (NUM_FUNCTIONS, n_symbols)
    # point mutation: a head position draws from the whole alphabet, a tail
    # position from the terminals
    sites = _sites(symbols.size, rates.mutation, rng)
    symbols[sites] = _redraw(rng, sites % length < length // 2, (0, n_symbols), terminals)
    # conservative mutation: a function stays a function, a terminal a terminal
    sites = _sites(symbols.size, rates.conservative_mutation, rng)
    symbols[sites] = _redraw(rng, symbols[sites] < NUM_FUNCTIONS, functions, terminals)
    slots = _sites(pools.size, rates.biased_mutation, rng)
    pools.reshape(-1)[slots] += rng.normal(0.0, 1.0, size=slots.size)

    structural, recombination = config._trigger_rates
    triggers = rng.random((len(_STRUCTURAL), len(codes))) < structural
    for stage, p in zip(*np.nonzero(triggers)):  # stage by stage, rows in order
        _STRUCTURAL[stage][0](codes[p], pools[p], rng)

    first = np.arange(0, len(codes) - 1, 2)
    triggers = rng.random((len(_RECOMBINATIONS), len(first))) < recombination
    for stage in np.flatnonzero(triggers.any(axis=1)):
        _RECOMBINATIONS[stage][0](codes, pools, first[triggers[stage]], rng)


def canonical_keys(codes, pools, lengths, num_inputs: int) -> np.ndarray:
    """Canonical bytes of every gene, as a ``(P, G, width)`` uint8 array;
    ``lengths`` is the population's ``coding_lengths``.

    Two genes get equal rows exactly when they read the same symbols and
    pool values in their coding regions: a row is the gene's codes with
    every non-coding position set to the alphabet size, followed by the
    bytes of its pool with every slot no coding position reads set to 0.
    A chromosome's key is the bytes of its ``(G, width)`` block.
    """
    first_constant = NUM_FUNCTIONS + num_inputs
    noncoding = np.arange(codes.shape[2]) >= lengths[..., None]
    masked = np.where(noncoding, first_constant + POOL_SIZE, codes).astype(codes.dtype)
    p, g, i = np.nonzero(~noncoding & (codes >= first_constant))
    read = np.zeros(pools.shape, dtype=bool)
    read[p, g, codes[p, g, i] - first_constant] = True
    kept = np.where(read, pools, 0.0)
    return np.concatenate((masked.view(np.uint8), kept.view(np.uint8)), axis=2)


def _evaluate_population(codes, pools, num_inputs, columns, y, prev_cache, timings):
    """Fitness per chromosome of the population arrays ``(codes, pools)``,
    evaluating each canonical key once.

    The cache maps chromosome key (see ``canonical_keys``) -> report for
    the previous and the current generation only; ``prev_cache`` is the
    map returned for the previous generation (None for the first).  A
    missed chromosome is scored by ``kernels.gene_sum`` over ``columns``,
    the inputs as a C-contiguous ``(inputs, rows)`` array; the keys and
    the scores share one ``coding_lengths`` of the population.  Adds the
    seconds spent on keys and on scoring to ``timings``.  Returns the
    reports, the new map and the number of chromosomes evaluated.
    """
    prev_reports = prev_cache or {}
    reports_by_key = {}
    reports = []
    evaluations = 0
    start = perf_counter()
    lengths = coding_lengths(codes)
    blocks = canonical_keys(codes, pools, lengths, num_inputs)
    gene_lengths = lengths.tolist()
    keyed = perf_counter()
    size = blocks[0].size
    raw = blocks.tobytes()
    with np.errstate(all="ignore"):  # once for every chromosome scored below
        for p in range(len(codes)):
            key = raw[p * size : (p + 1) * size]
            report = reports_by_key.get(key) or prev_reports.get(key)
            if report is None:
                total, bad = _gene_sum(codes[p], pools[p], gene_lengths[p], columns, num_inputs)
                report = _report(total, bad, y)
                evaluations += 1
            reports_by_key[key] = report
            reports.append(report)
    timings["canonical_keys"] += keyed - start
    timings["evaluation"] += perf_counter() - keyed
    return reports, reports_by_key, evaluations


def run(config: GepConfig, X, y, rng: np.random.Generator | None = None) -> RunResult:
    """Evolve until max_generations or stagnation_limit generations without
    best-fitness improvement; returns the best-ever chromosome, its report
    (with the per-generation best-fitness history) and the histories."""
    X, y = _as_dataset(X, y)
    columns = np.ascontiguousarray(X.T)
    timings = dict.fromkeys(STAGES, 0.0)
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    num_inputs = config.num_inputs
    codes, pools = initialize(config, rng)
    reports, cache, evaluations = _evaluate_population(codes, pools, num_inputs, columns, y,
                                                       None, timings)
    fits = np.array([r.fitness for r in reports])
    best_i = int(np.argmax(fits))
    best_codes, best_pools = codes[best_i], pools[best_i]
    best_rep = reports[best_i]

    best_history: list[float] = []
    mean_history: list[float] = []
    evaluation_history: list[int] = []
    zero_history: list[int] = []
    stagnant = 0
    for _ in range(config.max_generations):
        if stagnant >= config.stagnation_limit:
            break
        start = perf_counter()
        idx = select(fits, rng)
        selected = perf_counter()
        # one gather makes this generation's own arrays, so an earlier
        # generation's rows (best_codes among them) stay as they were scored;
        # the elite in slot 0 is never varied
        codes, pools = codes[idx], pools[idx]
        apply_operators(codes[1:], pools[1:], config, rng)
        timings["selection"] += selected - start
        timings["operators"] += perf_counter() - selected
        reports, cache, count = _evaluate_population(codes, pools, num_inputs, columns, y, cache,
                                                     timings)
        evaluations += count
        fits = np.array([r.fitness for r in reports])
        gen_i = int(np.argmax(fits))
        best_history.append(reports[gen_i].fitness)
        mean_history.append(float(np.add.reduce(fits) / len(fits)))  # np.mean's bits
        evaluation_history.append(count)
        zero_history.append(int(np.count_nonzero(fits == 0.0)))
        if reports[gen_i].fitness > best_rep.fitness:
            best_codes, best_pools = codes[gen_i], pools[gen_i]
            best_rep = reports[gen_i]
            stagnant = 0
        else:
            stagnant += 1

    report = replace(best_rep, per_generation_best=tuple(best_history))
    return RunResult(best_codes, best_pools, report, tuple(mean_history), evaluations,
                     tuple(evaluation_history), tuple(zero_history), timings)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell's best fitness; ``timings_s`` is its run's, and takes
    no part in comparisons."""

    num_genes: int
    head_size: int
    fitness: float
    timings_s: dict[str, float] = field(compare=False)


def sweep_configs(base_config: GepConfig, gene_counts, head_sizes) -> list[GepConfig]:
    """The config of every (genes, head) grid cell, in grid order: gene
    count major, head size minor.  Building them checks every cell."""
    gene_counts = list(gene_counts)
    head_sizes = list(head_sizes)
    if not gene_counts or not head_sizes:
        raise ValueError("sweep grids must be nonempty")
    return [replace(base_config, num_genes=g, head_size=h) for g in gene_counts for h in head_sizes]


def sweep_workers(cells: int) -> int:
    """Processes ``sweep`` runs ``cells`` grid cells on: one per CPU this
    process may run on, and no more than there are cells."""
    return min(cells, len(os.sched_getaffinity(0)))


def _run_cells(X, y, configs) -> list[SweepCell]:
    cells = []
    for cfg in configs:
        g, h = cfg.num_genes, cfg.head_size
        rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, g, h]))
        result = run(cfg, X, y, rng)
        cells.append(SweepCell(g, h, result.report.fitness, result.timings_s))
    return cells


def _fork_share(X, y, configs):
    """Fork a child that runs ``configs`` and writes the pickled cells, or
    the exception the run raised, to a pipe; returns its pid and the
    pipe's read end.  The child leaves with ``os._exit``: it runs no exit
    handlers and flushes no stdio buffer it shares with the parent, and
    it exits 0 only once the whole result is written."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps(_run_cells(X, y, configs))
            except BaseException as exc:  # sent to the parent, which raises it
                payload = pickle.dumps(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _share_cells(share: int, status: int, payload: bytes) -> list[SweepCell]:
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"sweep worker for share {share} ended without a result ({how})")
    result = pickle.loads(payload)  # written by this program's own child
    if isinstance(result, BaseException):
        raise result
    return result


def sweep(X, y, base_config: GepConfig, gene_counts, head_sizes) -> list[SweepCell]:
    """Best fitness per (genes, head) grid cell, one fixed-seed run per cell,
    in grid order.

    Every cell's config is built, and so checked, before the first run.
    The cells are dealt into ``sweep_workers`` interleaved shares (cell i
    to share i mod N): this process runs share 0 and one forked child runs
    each other share.  A cell's RNG depends only on the seed and the cell,
    so the result does not depend on N.  An exception a child's run raises
    is raised here; a child that ends without a result raises
    ``RuntimeError``.  On any error every child still running is killed
    and reaped before the exception propagates.
    """
    configs = sweep_configs(base_config, gene_counts, head_sizes)
    n = sweep_workers(len(configs))
    # a run reads X by column, and in Fortran order X.T is already that
    # layout, so no cell copies it
    X = np.asfortranarray(X, dtype=np.float64)
    # fork, not a spawned pool: a child starts with X, y and the imported
    # engine already in memory, and the parent's share keeps its CPU busy.
    # The engine starts no thread of its own.  numpy's OpenBLAS worker thread
    # may be alive at the fork (the CLI asks for none, a library caller may
    # not), but the engine calls no BLAS routine, so the child never waits on
    # a lock that thread might have held
    children = []  # (share, pid, pipe) of every child not yet reaped
    try:
        for share in range(1, n):
            children.append((share, *_fork_share(X, y, configs[share::n])))
        shares = [_run_cells(X, y, configs[::n])]
        while children:
            share, pid, pipe = children[0]
            payload = pipe.read()  # to EOF before waiting, so a full pipe cannot block the child
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            shares.append(_share_cells(share, status, payload))
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # an unreaped child, even one that exited, has its pid
            os.waitpid(pid, 0)
    return [shares[i % n][i // n] for i in range(len(configs))]


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
