"""One benchmark step, run by run.py in a fresh process with the checkout's src/ on PYTHONPATH.

    python3 perfbench/worker.py build WORK --workload NAME --seed N [--smoke]
    python3 perfbench/worker.py sample WORK --run-dir DIR --out FILE [--spans FILE]

`build` writes WORK/corpus and WORK/config.json from the workload seed, and
for a resume workload also completes WORK/fixture, a finished run directory,
untimed. It records the library and BLAS facts in WORK/context.json.

`sample` times one `pipeline.run_experiment` call on those inputs, and the
calibration unit just before and after it, and writes the timings as JSON. With --spans it first installs the tracer and also
writes the per-layer metrics, the span counts and the raw spans.
"""

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from emorefinery.config import config_from_dict, load_config, save_config
from emorefinery.datagen import SyntheticCorpusSpec, generate_synthetic_corpus
from emorefinery.manifest import load_manifest, write_synthetic_corpus
from emorefinery import pipeline

import tracer
from workloads import WORKLOADS, inputs


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded, read via ctypes."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": deps.get("name"), "version": deps.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def calibrate() -> float:
    """Seconds for a fixed unit of work that mixes the program's kinds of work.

    Float parsing and dict updates stand for CSV ingest and forest code; the
    elementwise passes and float32 matrix products stand for the network.
    run.py scales every end-to-end timing by it to cancel the host's speed
    drift, so it must never change once baselines exist.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 288)).astype(np.float32)
    b = rng.standard_normal((288, 1024)).astype(np.float32)
    t0 = time.perf_counter()
    text = ",".join(f"{i * 0.37:.17g}" for i in range(40000))
    values = np.array([float(v) for v in text.split(",")])
    table = {}
    for i, v in enumerate(values.tolist()):
        table[i % 977] = table.get(i % 977, 0.0) + v * v
    for _ in range(50):
        values = np.sqrt(values * values + 1.0)
    for _ in range(40):
        a @ b
    return time.perf_counter() - t0


def build(work: Path, workload: str, seed: int, smoke: bool) -> None:
    import scipy

    spec, config = inputs(WORKLOADS[workload], seed, smoke)
    spec = SyntheticCorpusSpec(**spec)
    write_synthetic_corpus(work / "corpus", generate_synthetic_corpus(spec), spec.class_names)
    cfg = config_from_dict(config)
    save_config(work / "config.json", cfg)
    if WORKLOADS[workload].resume:
        pipeline.run_experiment(work / "corpus", cfg, run_dir=work / "fixture")
    context = {"python": sys.version.split()[0], "numpy": np.__version__,
               "scipy": scipy.__version__, "blas": _blas()}
    (work / "context.json").write_text(json.dumps(context))


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def sample(work: Path, run_dir: Path, out: Path, spans_path) -> None:
    calib_before = calibrate()
    cfg = load_config(work / "config.json")
    corpus = work / "corpus"

    t0 = time.perf_counter()
    manifest = load_manifest(corpus)
    dataset, errors = pipeline.utterances_from_manifest(manifest, cfg.frame, cfg.segment)
    setup_s = time.perf_counter() - t0
    if errors:
        raise SystemExit(f"set-up failed: {errors}")
    del manifest, dataset  # run_experiment loads its own copy

    trace = None
    if spans_path is not None:
        trace = tracer.Tracer()
        tracer.install(trace)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    # Called through the module, so that the tracer's wrapper is the one run.
    pipeline.run_experiment(corpus, cfg, run_dir=run_dir)
    run_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    def cpu(a, b):
        return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu(self0, self1) + cpu(kids0, kids1),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN adds the largest child's
        # peak, should the program start pool workers.
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "nivcsw": self1.ru_nivcsw,
        "calib_s": (calib_before + calibrate()) / 2,
    }
    if trace is not None:
        agg = tracer.aggregate(trace.spans)
        layers = tracer.layer_metrics(trace, agg)
        layers["pipeline.artifacts.bytes"] = _dir_bytes(run_dir)
        result["layers"] = layers
        result["span_calls"] = {name: v["calls"] for name, v in agg.items()}
        trace.write(spans_path)
    out.write_text(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="step", required=True)
    b = sub.add_parser("build")
    b.add_argument("work", type=Path)
    b.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--smoke", action="store_true")
    s = sub.add_parser("sample")
    s.add_argument("work", type=Path)
    s.add_argument("--run-dir", type=Path, required=True)
    s.add_argument("--out", type=Path, required=True)
    s.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.step == "build":
        build(args.work, args.workload, args.seed, args.smoke)
    else:
        sample(args.work, args.run_dir, args.out, args.spans)


if __name__ == "__main__":
    main()
