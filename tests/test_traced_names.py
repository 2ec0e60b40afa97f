"""The benchmark's traced names still name the package's code: every span a
workload expects and every span the tracer summarizes is a public function
of the emorefinery module it names, or a traced method of a network layer
class. A rename that misses perfbench/ fails here, not only in a traced run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    """perfbench/<stem>.py as a module of its own name, leaving sys.path alone."""
    name = f"_perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")

NAMES = sorted({name for w in workloads.WORKLOADS.values() for name in w.expected_spans}
               | set(tracer.SUMMARIES))


def test_every_name_is_collected():
    assert {"pipeline.run_experiment", "network.Conv3x3.forward"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    layer, *rest = name.split(".")
    assert layer in tracer.LAYERS, f"{layer} is not a traced module"
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    if len(rest) == 2:
        cls, method = rest
        assert layer == "network" and cls in tracer.NETWORK_LAYERS, f"{name} is no layer class"
        assert method in ("forward", "backward"), f"{name} is not a traced method"
        assert inspect.isfunction(getattr(getattr(module, cls), method, None)), name
    else:
        (attr,) = rest
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), f"{name} is no public function"
        assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"
