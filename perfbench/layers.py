"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of each embgep module at every name
their callers look up (``evolution`` imports ``evaluate_chromosome_batch``
from ``kernels`` by name, so both bindings are replaced), records one span
per call and restores the originals afterwards.  Nothing under ``src/`` is
edited.

A span's self time is its duration minus the time covered by the wrapped
calls made inside it; its total time is its duration less the tracer's own
bookkeeping inside it.  Bookkeeping done after a wrapped call returns (gene
hashing, tracemalloc) is charged to neither the callee nor its callers.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

# span name -> the (module, attribute) bindings its callers look up
SPANS = {
    "cli.main": [("cli", "main")],
    "data.load": [("data", "load")],
    "data.save": [("data", "save")],
    "data.summarize": [("data", "summarize")],
    "data.split_matched": [("data", "split_matched")],
    "data.synthesize": [("data", "synthesize")],
    "displacement.gep_ln_displacement": [("displacement", "gep_ln_displacement"),
                                         ("data", "gep_ln_displacement")],
    "displacement.predict": [("displacement", "predict")],
    "displacement.check_applicability": [("displacement", "check_applicability")],
    "metrics.correlation_matrix": [("metrics", "correlation_matrix")],
    "metrics.relative_error": [("metrics", "relative_error")],
    "metrics.cumulative_frequency": [("metrics", "cumulative_frequency")],
    "kernels.compile_chromosome": [("kernels", "compile_chromosome"),
                                   ("evolution", "compile_chromosome")],
    "kernels.evaluate_chromosome_batch": [("kernels", "evaluate_chromosome_batch"),
                                          ("evolution", "evaluate_chromosome_batch")],
    "evolution.initialize": [("evolution", "initialize")],
    "evolution.select": [("evolution", "select")],
    "evolution.apply_operators": [("evolution", "apply_operators")],
    "evolution.fitness": [("evolution", "fitness")],
    "evolution.run": [("evolution", "run")],
}

# per-layer metric -> (unit, better); the order is the order of the output
LAYER_METRICS = {
    "kernels.compile_chromosome.calls": ("count", "lower"),
    "kernels.compile_chromosome.self_s": ("s", "lower"),
    "kernels.evaluate_chromosome_batch.calls": ("count", "lower"),
    "kernels.evaluate_chromosome_batch.self_s": ("s", "lower"),
    "kernels.us_per_gene_eval": ("us", "lower"),
    "kernels.gene_evals": ("count", "lower"),
    "kernels.distinct_genes": ("count", "lower"),
    "kernels.distinct_gene_ratio": ("ratio", "higher"),
    "kernels.node_row_ops": ("count", "lower"),
    "kernels.ns_per_node_row": ("ns", "lower"),
    "evolution.initialize.self_s": ("s", "lower"),
    "evolution.select.self_s": ("s", "lower"),
    "evolution.apply_operators.self_s": ("s", "lower"),
    "evolution.fitness.calls": ("count", "lower"),
    "evolution.fitness.self_s": ("s", "lower"),
    "evolution.run.self_s": ("s", "lower"),
    "evolution.us_per_generation": ("us", "lower"),
    "evolution.generations": ("count", "higher"),
    "evolution.zero_fitness": ("count", "lower"),
    "evolution.fitness_requests": ("count", "lower"),
    "evolution.identity_cache_hit_ratio": ("ratio", "higher"),
    "karva.gene_constructions": ("count", "lower"),
    "karva.chromosome_constructions": ("count", "lower"),
    "data.load.self_s": ("s", "lower"),
    "data.save.self_s": ("s", "lower"),
    "data.summarize.self_s": ("s", "lower"),
    "data.split_matched.self_s": ("s", "lower"),
    "data.split_matched.peak_mb": ("MB", "lower"),
    "data.synthesize.self_s": ("s", "lower"),
    "metrics.correlation_matrix.self_s": ("s", "lower"),
    "metrics.relative_error.calls": ("count", "lower"),
    "metrics.relative_error.self_s": ("s", "lower"),
    "metrics.cumulative_frequency.self_s": ("s", "lower"),
    "displacement.predict.calls": ("count", "lower"),
    "displacement.predict.self_s": ("s", "lower"),
    "displacement.check_applicability.calls": ("count", "lower"),
    "displacement.check_applicability.self_s": ("s", "lower"),
    "displacement.gep_ln_displacement.calls": ("count", "lower"),
    "displacement.gep_ln_displacement.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self, modules):
        self.modules = modules  # short module name -> imported embgep module
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak_bytes = 0
        self.coding_length = {}  # distinct Gene -> coding length (nodes)
        self._open = []  # per open span: [wrapped child time, their bookkeeping]
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        after = {
            "kernels.evaluate_chromosome_batch": self._after_evaluate,
            "evolution.fitness": self._after_fitness,
            "evolution.run": self._after_run,
        }.get(name)
        memory = name == "data.split_matched"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._open.append([0.0, 0.0])  # wrapped children: time, bookkeeping
            if memory:
                tracemalloc.start()
            t0 = clock()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if after is not None:
                    after(args, result)
                return result
            finally:
                if t1 is None:
                    t1 = clock()
                child_s, child_overhead_s = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - child_s
                self.total_s[name] += (t1 - t0) - child_overhead_s
                if memory:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if self._open:
                    t2 = clock()
                    self._open[-1][0] += t2 - t0
                    self._open[-1][1] += child_overhead_s + (t2 - t1)

        return traced

    def install(self):
        for name, sites in SPANS.items():
            module, attr = sites[0]
            wrapper = self._wrap(name, getattr(self.modules[module], attr))
            for module, attr in sites:
                target = self.modules[module]
                self._restore.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)
        karva = self.modules["karva"]
        for cls, counter in ((karva.Gene, "karva.gene_constructions"),
                             (karva.Chromosome, "karva.chromosome_constructions")):
            self._restore.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._counting(cls.__post_init__, counter)

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _counting(self, post_init, counter):
        counts = self.counts

        def counted(obj):
            counts[counter] += 1
            post_init(obj)

        return counted

    # -- counters gathered where the work happens ------------------------

    def _after_evaluate(self, args, result):
        chrom, X = args[0], args[1]
        consumed_length = self.modules["karva"].consumed_length
        nodes = 0
        for gene in chrom.genes:
            length = self.coding_length.get(gene)
            if length is None:
                length = self.coding_length[gene] = consumed_length(gene)
            nodes += length
        self.counts["kernels.gene_evals"] += len(chrom.genes)
        self.counts["kernels.node_row_ops"] += nodes * len(X)

    def _after_fitness(self, args, report):
        if report.fitness == 0.0:
            self.counts["evolution.zero_fitness"] += 1

    def _after_run(self, args, result):
        config = args[0]
        generations = len(result.report.per_generation_best)
        self.counts["evolution.generations"] += generations
        self.counts["evolution.fitness_requests"] += config.num_chromosomes * (generations + 1)

    # -- per-layer metrics of the round ----------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        gene_evals = self.counts["kernels.gene_evals"]
        node_rows = self.counts["kernels.node_row_ops"]
        generations = self.counts["evolution.generations"]
        requests = self.counts["evolution.fitness_requests"]
        evaluate_s = self.self_s["kernels.evaluate_chromosome_batch"]
        out["kernels.distinct_genes"] = len(self.coding_length)
        out["kernels.distinct_gene_ratio"] = _ratio(len(self.coding_length), gene_evals)
        out["kernels.us_per_gene_eval"] = _ratio(evaluate_s * 1e6, gene_evals)
        out["kernels.ns_per_node_row"] = _ratio(evaluate_s * 1e9, node_rows)
        run_s = self.total_s["evolution.run"]
        out["evolution.us_per_generation"] = _ratio(run_s * 1e6, generations)
        out["evolution.identity_cache_hit_ratio"] = (
            1.0 - self.calls["evolution.fitness"] / requests if requests else 0.0
        )
        out["data.split_matched.peak_mb"] = self.peak_bytes / 2**20
        out["trace.overhead_s"] = traced_s - untraced_s
        out["trace.overhead_ratio"] = _ratio(traced_s - untraced_s, untraced_s)
        return {name: out.get(name, 0) for name in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
