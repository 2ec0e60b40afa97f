"""emorefinery benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout. It builds the workload's corpus and
config from the seed in a fresh process, then runs `pipeline.run_experiment`
in a fresh process per sample, one at a time, until the measuring time is
used. Every sample's run directory is checked and hashed, and every
sample's timings are scaled by a calibration measured beside them. The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. A traced run alternates untraced and traced samples, so the
tracing overhead is measured on the same machine state. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# The end-to-end timings are scaled to a host of fixed speed: a sample's
# seconds times REFERENCE_CALIBRATION_S over the time of worker.calibrate(),
# measured in the same process just before and after. A shared host's speed
# drifts by tens of percent over minutes; the calibration drifts with it, so
# scaled medians stay comparable between runs. Raw seconds are printed too.
REFERENCE_CALIBRATION_S = 0.1
SCALED = ("run_s", "setup_s", "cpu_s")
MIN_SAMPLES = 3  # untraced samples with --trace 0, sample pairs with --trace 1
RUN_LIMIT_S = 170  # no sample may end later than this after the start


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_ms_per_128", "ms"), (".gflop", "GFLOP"), ("_s", "s"),
                         ("us_per_row", "us"), (".bytes", "bytes"),
                         ("cpu_per_wall", "ratio"), ("_ratio", "ratio"), ("_last", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_dir(run_dir: Path, generations: int):
    """(problems, hashes, final-generation report) of a finished run directory."""
    problems, hashes = [], {}
    try:
        doc = json.loads((run_dir / "metrics.json").read_text())
        reports = doc["generations"]
        if [g["generation"] for g in reports] != list(range(1, generations + 1)):
            problems.append(f"metrics.json covers generations "
                            f"{[g['generation'] for g in reports]}, expected 1..{generations}")
        for t in range(1, generations + 1):
            gen_dir = run_dir / "generations" / f"gen{t:02d}"
            violations = json.loads((gen_dir / "foldout.json").read_text())["violations"]
            if violations:
                problems.append(f"gen{t:02d} foldout.json lists violations {violations}")
            hashes[f"gen{t:02d}/eps.csv"] = _sha256(gen_dir / "eps.csv")
        hashes["metrics.json"] = _sha256(run_dir / "metrics.json")
        return problems, hashes, reports[-1]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable run directory: {exc!r}")
        return problems, hashes, None


def _steal_s() -> float:
    """Machine-wide steal time so far, from /proc/stat; 0 where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_context() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model}


def summarize(values) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
            break
    else:
        text += ", too few samples for a percentile with ten beyond it"
    return text + f", min {min(values):.6g}, max {max(values):.6g})"


class Bench:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.log = self.work / "worker.log"
        self.samples = []
        self.reference = None  # hashes every sample must reproduce

    def worker(self, *argv, timeout: float) -> bool:
        cmd = [sys.executable, str(HERE / "worker.py"), *map(str, argv)]
        with open(self.log, "a") as fh:
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=max(timeout, 1.0), check=False)
            except subprocess.TimeoutExpired:
                fh.write(f"timed out after {timeout:.0f} s: {cmd}\n")
                return False
        return proc.returncode == 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def build(self) -> dict:
        self.work.mkdir(parents=True)
        argv = ["build", self.work, "--workload", self.args.workload, "--seed", self.args.seed]
        if self.args.smoke:
            argv.append("--smoke")
        if not self.worker(*argv, timeout=self.remaining()):
            raise RuntimeError("building the workload's inputs failed")
        if self.workload.resume:
            problems, self.reference, _ = check_run_dir(self.work / "fixture", self.generations)
            if problems:
                raise RuntimeError(f"resume fixture is invalid: {problems}")
        return json.loads((self.work / "context.json").read_text())

    @property
    def generations(self) -> int:
        return self.workload.config["generations"]

    def sample(self, traced: bool) -> dict:
        i = len(self.samples)
        run_dir = self.work / f"run{i:03d}"
        if self.workload.resume:
            shutil.copytree(self.work / "fixture", run_dir)
        out = self.work / f"sample{i:03d}.json"
        spans = self.work / f"spans{i:03d}.json"
        argv = ["sample", self.work, "--run-dir", run_dir, "--out", out]
        if traced:
            argv += ["--spans", spans]
        steal0, load1 = _steal_s(), os.getloadavg()[0]
        ok = self.worker(*argv, timeout=self.remaining())
        rec = {"index": i, "traced": traced, "steal_s": _steal_s() - steal0, "load1": load1,
               "problems": []}
        if not ok or not out.exists():
            rec["problems"].append("worker failed; see its log")
        else:
            rec.update(json.loads(out.read_text()))
            scale = REFERENCE_CALIBRATION_S / rec["calib_s"]
            rec["scaled"] = {name: rec[name] * scale for name in SCALED}
            problems, hashes, final = check_run_dir(run_dir, self.generations)
            rec["problems"] += problems
            rec["hashes"] = hashes
            if final is not None:
                rec["wa_last"], rec["ua_last"] = final["wa"], final["ua"]
            if not problems:
                if self.reference is None:
                    self.reference = hashes
                elif hashes != self.reference:
                    rec["problems"].append("artifact hashes differ from the reference")
            if traced:
                missing = [n for n in self.workload.expected_spans
                           if rec["span_calls"].get(n, 0) == 0]
                if missing:
                    raise RuntimeError(f"wrapper coverage guard: no spans for {missing}")
                shutil.move(spans, self.root / OUT_DIR / f"{self.args.workload}-spans.json")
        shutil.rmtree(run_dir, ignore_errors=True)
        self.samples.append(rec)
        status = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"])
        print(f"sample {i} {'traced' if traced else 'untraced'} "
              + " ".join(f"{k}={rec[k]:.6g}" for k in ("run_s", "setup_s", "cpu_s", "calib_s",
                                                      "peak_rss_mb", "steal_s", "load1")
                         if k in rec)
              + f" nivcsw={rec.get('nivcsw')} {status}", flush=True)
        return rec

    def measure(self) -> None:
        deadline = time.monotonic() + self.args.seconds
        while True:
            done = sum(1 for s in self.samples if not s["traced"])
            if done >= MIN_SAMPLES and time.monotonic() >= deadline:
                break
            if self.remaining() <= 0:
                break
            self.sample(traced=False)
            if self.args.trace:
                self.sample(traced=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a few seconds, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "emorefinery" / "__init__.py").is_file():
        print(f"error: {root} holds no src/emorefinery; run from the root of a checkout",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    bench = Bench(root, args)
    try:
        context = dict(machine_context(), **bench.build(), workload=args.workload,
                       seed=args.seed, seconds=args.seconds, trace=args.trace)
        print("context " + json.dumps(context, sort_keys=True), flush=True)
        loads0 = os.getloadavg()
        bench.measure()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if bench.log.exists():
            print(bench.log.read_text()[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    samples = bench.samples
    good = [s for s in samples if not s["problems"]]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    failed = len(samples) - len(good)
    if not untraced or (args.trace and not traced):
        print("error: no sample completed", file=sys.stderr)
        return 1

    print(f"run context: steal_s {sum(s['steal_s'] for s in samples):.3f}, "
          f"load average {loads0} -> {os.getloadavg()}, "
          f"involuntary context switches {sum(s.get('nivcsw', 0) for s in samples)}")
    print("hashes " + json.dumps(bench.reference, sort_keys=True))
    print(f"runs_failed {failed} of {len(samples)} attempted")
    def value(sample, name):
        return sample["scaled"][name] if name in SCALED else sample[name]

    for name, unit in END_TO_END.items():
        if name in SCALED:
            print(f"{name} raw [{unit}] {summarize([s[name] for s in untraced])}")
        print(f"{name} [{unit}] {summarize([value(s, name) for s in untraced])}")
    metrics = {name: statistics.median(value(s, name) for s in untraced)
               for name in END_TO_END}
    units = dict(END_TO_END)
    if args.trace:
        print(f"traced run_s [s] {summarize([s['run_s'] for s in traced])}")
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(s["run_s"] for s in traced)
                                       - statistics.median(s["run_s"] for s in untraced))
        metrics["wa_last"] = good[0]["wa_last"]
        metrics["ua_last"] = good[0]["ua_last"]
        units = {name: unit_of(name) for name in metrics}
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")

    summary = {"context": context, "samples": samples, "hashes": bench.reference,
               "metrics": metrics}
    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
