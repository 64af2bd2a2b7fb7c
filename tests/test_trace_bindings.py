"""The per-layer tracer of ``perfbench/run.py --trace 1`` wraps program
functions at fixed (module, attribute) bindings; each must still resolve."""

import importlib.util
from pathlib import Path

from embgep import cli, data, displacement, evolution, karva, kernels, metrics

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
MODULES = {"cli": cli, "data": data, "displacement": displacement, "evolution": evolution,
           "karva": karva, "kernels": kernels, "metrics": metrics}


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{module}.{attr}" for sites in layers.SPANS.values()
               for module, attr in sites if not callable(getattr(MODULES[module], attr, None))]
    assert not missing, f"bindings the tracer can no longer wrap: {missing}"
