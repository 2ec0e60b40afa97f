"""The benchmark's traced names still name the package's code: every span a
workload expects and every span the tracer summarizes is a public function
of the emorefinery module it names, or a traced method of a network layer
class, and each summary still reads that function's arguments and result.
A rename or a changed return type that misses perfbench/ fails here, not
only in a traced run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from emorefinery import classifier, decision, features, manifest, network

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


def _conv_backward_call():
    conv = network.Conv3x3(1, 2, np.random.default_rng(1), np.float64)
    conv.forward(np.random.default_rng(2).standard_normal((2, 1, 4, 4)), True)
    return network.Conv3x3.backward, (conv, np.ones((2, 2, 4, 4)))


def _spectrogram():
    return features.LogMelSpectrogram(np.random.default_rng(3).standard_normal((8, 12)),
                                      np.arange(12) * 10.0)


def _read_spectrogram_call(tmp_path):
    s = _spectrogram()
    np.save(tmp_path / "s.npy", np.vstack((s.frame_times, s.values)))
    return manifest.read_spectrogram_csv, (tmp_path / "s.npy",)


SEGMENTS = np.random.default_rng(0).standard_normal((4, 8, 4))
TRAIN_ARGS = (SEGMENTS, np.eye(2)[[0, 1, 0, 1]], ["a", "a", "b", "b"], ("neg", "pos"),
              classifier.TrainConfig(max_epochs=2, architecture="tiny"), 3)
# Each summarized name's function and the arguments of one tiny call of it.
CALLS = {
    "classifier.train_segment_classifier": lambda tmp_path: (
        classifier.train_segment_classifier, TRAIN_ARGS),
    "classifier.predict_batch": lambda tmp_path: (
        classifier.predict_batch, (classifier.train_segment_classifier(*TRAIN_ARGS), SEGMENTS)),
    "decision.train_forest": lambda tmp_path: (
        decision.train_forest, (np.random.default_rng(4).standard_normal((6, 3)),
                                np.array([0, 1, 0, 1, 0, 1]), decision.ForestConfig(n_trees=2),
                                ("neg", "pos"), 5)),
    "manifest.read_spectrogram_csv": _read_spectrogram_call,
    "features.segment_spectrogram": lambda tmp_path: (
        features.segment_spectrogram, (_spectrogram(), features.SegmentSpec(4, 20.0))),
    "network.Conv3x3.forward": lambda tmp_path: (
        network.Conv3x3.forward, (network.Conv3x3(1, 2, np.random.default_rng(1), np.float64),
                                  np.ones((2, 1, 4, 4)), False)),
    "network.Conv3x3.backward": lambda tmp_path: _conv_backward_call(),
}


def test_every_summary_has_a_call():
    assert set(CALLS) == set(tracer.SUMMARIES)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_summary_reads_a_real_call(name, tmp_path):
    fn, args = CALLS[name](tmp_path)
    summary = tracer.SUMMARIES[name](args, {}, fn(*args))
    assert summary, name
    for key, value in summary.items():
        assert isinstance(value, (int, np.integer)) and not isinstance(value, bool), (key, value)
        assert value >= 0, (key, value)
