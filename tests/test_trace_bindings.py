"""The per-layer tracer of ``perfbench/run.py --trace 1`` wraps program
functions at fixed (module, attribute) bindings; each must still resolve,
and installing and removing the tracer must leave every binding as it was."""

import importlib.util
from pathlib import Path

import numpy as np

from embgep import cli, data, displacement, evolution, karva, kernels, metrics

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
MODULES = {"cli": cli, "data": data, "displacement": displacement, "evolution": evolution,
           "karva": karva, "kernels": kernels, "metrics": metrics}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_binding_resolves():
    layers = load_layers()
    missing = [f"{module}.{attr}" for sites in layers.SPANS.values()
               for module, attr in sites if not callable(getattr(MODULES[module], attr, None))]
    assert not missing, f"bindings the tracer can no longer wrap: {missing}"


def test_install_then_uninstall_restores_every_binding():
    layers = load_layers()
    sites = [(MODULES[module], attr) for bindings in layers.SPANS.values()
             for module, attr in bindings]
    sites += [(karva.Gene, "__post_init__"), (karva.Chromosome, "__post_init__")]
    before = [getattr(target, attr) for target, attr in sites]
    tracer = layers.Tracer(MODULES)
    tracer.install()
    try:
        assert all(getattr(target, attr) is not b for (target, attr), b in zip(sites, before))
        # one call through each kind of binding: a span, a counted
        # constructor and the gene counters, which read karva.consumed_length
        symbols = "+ d0 d1".split()
        chrom = karva.Chromosome((karva.Gene(symbols[:1], symbols[1:], (0.0,) * 10),))
        kernels.evaluate_chromosome_batch(chrom, np.ones((4, 3)))
        data.gep_ln_displacement(7.0, 0.5, 2.0)
    finally:
        tracer.uninstall()
    assert all(getattr(target, attr) is b for (target, attr), b in zip(sites, before))
    assert tracer.calls["kernels.evaluate_chromosome_batch"] == 1
    assert tracer.calls["displacement.gep_ln_displacement"] == 1
    assert (tracer.counts["karva.gene_constructions"],
            tracer.counts["karva.chromosome_constructions"]) == (1, 1)
    assert (tracer.counts["kernels.gene_evals"], tracer.counts["kernels.node_row_ops"]) == (1, 12)
