"""In-memory span tracing of the emorefinery package, installed from outside.

The tracer wraps the public functions of each package module, plus the
forward and backward methods of the network layer classes, so the program
itself carries no tracing code. A span is (name, start, end, parent index);
spans stay in memory until the run ends and are then written out.

`pipeline` imports its callees by name (`from .refinery import
generate_eps_foldout`), so wrapping a function only on its defining module
would record nothing for calls made through `pipeline`. `install` therefore
rebinds every module attribute that is the original function object.
"""

import functools
import inspect
import json
import sys
import time

PACKAGE = "emorefinery"
LAYERS = ("manifest", "features", "network", "classifier", "refinery",
          "representation", "decision", "evaluation", "pipeline")

# Layer classes whose forward and backward are traced, with the metric stem
# each is reported under.
NETWORK_LAYERS = {"Conv3x3": "conv3x3", "MaxPool2x2": "maxpool2x2",
                  "ReLU": "relu", "Dense": "dense"}

# Spans whose process CPU time is recorded as well as their wall time.
CPU_SPANS = ("classifier.train_segment_classifier",)


class Tracer:
    """Records one span per traced call, parented by the enclosing traced call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]; parent -1 is the root
        self.cpu = {}  # span index -> process CPU seconds, for CPU_SPANS only
        self.summaries = []  # (span index, counts read from the call's args and result)
        self._stack = []

    def wrap(self, name, fn, summarize=None):
        spans, stack, cpu = self.spans, self._stack, self.cpu
        track_cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            c0 = time.process_time() if track_cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if track_cpu:
                cpu[index] = time.process_time() - c0
            if summarize is not None:
                self.summaries.append((index, summarize(args, kwargs, result)))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its direct children.

    Children are clipped to the parent's interval and merged before their
    cover is subtracted, so overlapping or back-to-back children are counted
    once. Grandchildren are already inside a child and are not subtracted
    again.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result


def aggregate(spans) -> dict:
    """name -> {"calls", "busy_s", "self_s"} over a span list.

    busy_s sums only outermost spans of a name, so a function that reaches
    itself again through traced calls is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["busy_s"] += end - start
    return out


def _batch(args, kwargs, result):
    x = args[1]
    return {"samples": int(x.shape[0])}


def _conv_forward(args, kwargs, result):
    layer, x = args[0], args[1]
    b, _, h, w = x.shape
    c_out, c_in = layer.w.shape[:2]
    return {"samples": int(b), "flop": 2 * b * c_out * c_in * 9 * h * w}


def _conv_backward(args, kwargs, result):
    layer, g = args[0], args[1]
    b, c_out, h, w = g.shape
    c_in = layer.w.shape[1]
    # dW and dX are each one GEMM the size of the forward one.
    return {"samples": int(b), "flop": 2 * 2 * b * c_out * c_in * 9 * h * w}


def _train(args, kwargs, result):
    h = result.history
    monitor = h["monitor"]
    best = monitor.index(min(monitor)) if monitor else 0
    return {"segment_epochs": h["n_train_segments"] * h["epochs_run"],
            "epochs_run": h["epochs_run"],
            "epochs_after_best": h["epochs_run"] - (best + 1)}


def _predict_batch(args, kwargs, result):
    return {"segments": len(args[1])}


def _count_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _train_forest(args, kwargs, result):
    return {"trees": len(result.trees),
            "nodes": sum(_count_nodes(t) for t in result.trees)}


def _read_spectrogram(args, kwargs, result):
    return {"rows": int(result.values.shape[1])}


def _segment_spectrogram(args, kwargs, result):
    return {"segments": len(result)}


SUMMARIES = {
    "classifier.train_segment_classifier": _train,
    "classifier.predict_batch": _predict_batch,
    "decision.train_forest": _train_forest,
    "manifest.read_spectrogram_csv": _read_spectrogram,
    "features.segment_spectrogram": _segment_spectrogram,
    "network.Conv3x3.forward": _conv_forward,
    "network.Conv3x3.backward": _conv_backward,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the package, recording into `tracer`."""
    modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
    # Every loaded module of the package, so that by-name imports elsewhere
    # (pipeline, config, cli, datagen) are rebound as well.
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn, SUMMARIES.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
    network = modules["network"]
    for cls_name in NETWORK_LAYERS:
        cls = getattr(network, cls_name)
        for method in ("forward", "backward"):
            name = f"network.{cls_name}.{method}"
            summarize = SUMMARIES.get(name, _batch)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), summarize))


def _is_artifact_writer(name: str) -> bool:
    fn = name.rsplit(".", 1)[-1]
    return fn.startswith("write_") or fn.startswith("save_")


def layer_metrics(tracer: Tracer, agg: dict) -> dict:
    """Per-layer metrics of one traced run from its spans and their aggregate."""
    counts = {}
    for index, summary in tracer.summaries:
        bucket = counts.setdefault(tracer.spans[index][0], {})
        for key, value in summary.items():
            bucket[key] = bucket.get(key, 0) + value

    def stat(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for cls, stem in NETWORK_LAYERS.items():
        for method, short in (("forward", "fwd"), ("backward", "bwd")):
            name = f"network.{cls}.{method}"
            m[f"network.{stem}.{short}_ms_per_128"] = ratio(
                stat(name, "self_s") * 1e3 * 128, count(name, "samples"))
    m["network.conv3x3.gflop"] = (count("network.Conv3x3.forward", "flop")
                                  + count("network.Conv3x3.backward", "flop")) / 1e9

    train = "classifier.train_segment_classifier"
    train_wall = sum(s[2] - s[1] for i, s in enumerate(tracer.spans) if i in tracer.cpu)
    m[f"{train}.busy_s"] = stat(train, "busy_s")
    m[f"{train}.calls"] = stat(train, "calls")
    m[f"{train}.segment_epochs"] = count(train, "segment_epochs")
    m[f"{train}.cpu_per_wall"] = ratio(sum(tracer.cpu.values()), train_wall)
    m["classifier.epochs_after_best_ratio"] = ratio(count(train, "epochs_after_best"),
                                                    count(train, "epochs_run"))
    m["classifier.predict_batch.busy_s"] = stat("classifier.predict_batch", "busy_s")
    m["classifier.predict_batch.segments"] = count("classifier.predict_batch", "segments")

    forest = "decision.train_forest"
    m[f"{forest}.busy_s"] = stat(forest, "busy_s")
    m[f"{forest}.calls"] = stat(forest, "calls")
    m[f"{forest}.trees"] = count(forest, "trees")
    m[f"{forest}.nodes"] = count(forest, "nodes")
    m["decision.predict_forest.busy_s"] = stat("decision.predict_forest", "busy_s")

    m["refinery.generate_eps_foldout.self_s"] = stat("refinery.generate_eps_foldout", "self_s")
    m["refinery.next_targets.busy_s"] = stat("refinery.next_targets", "busy_s")
    m["representation.representations_for.busy_s"] = stat(
        "representation.representations_for", "busy_s")

    csv_read = "manifest.read_spectrogram_csv"
    m[f"{csv_read}.busy_s"] = stat(csv_read, "busy_s")
    m[f"{csv_read}.rows"] = count(csv_read, "rows")
    m[f"{csv_read}.us_per_row"] = ratio(stat(csv_read, "busy_s") * 1e6, count(csv_read, "rows"))
    m["features.segment_spectrogram.busy_s"] = stat("features.segment_spectrogram", "busy_s")
    m["features.segment_spectrogram.segments"] = count("features.segment_spectrogram",
                                                       "segments")

    m["refinery.read_ep_csv.busy_s"] = stat("refinery.read_ep_csv", "busy_s")
    m["pipeline.run_experiment.self_s"] = stat("pipeline.run_experiment", "self_s")
    m["pipeline.artifacts.write_s"] = sum(v["busy_s"] for name, v in agg.items()
                                          if _is_artifact_writer(name))
    m["pipeline.cross_validated_predictions.self_s"] = stat(
        "pipeline.cross_validated_predictions", "self_s")
    m["evaluation.kfold_split.busy_s"] = stat("evaluation.kfold_split", "busy_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for name, v in agg.items()
                                   if name.split(".", 1)[0] == layer)
    return m
