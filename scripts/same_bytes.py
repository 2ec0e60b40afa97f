#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as another revision.

    python3 scripts/same_bytes.py REV

REV's files are exported with `git archive` into a temporary directory,
which is removed afterwards, so the checkout and its .git are left as they
were. Each side then builds the set below in its own subprocess, with its
own src/ first on PYTHONPATH, through the package's command line:

  runs/demo-S, runs/wide-S  perfbench's demo and wide workloads at seeds 5
                            and 11: corpora/, then run directories with
                            their fold models
  runs/noise-13             wide's corpus at seed 13 with label_noise 0.3
  runs/wide-5-M             wide at seed 5 in refinery mode M = sEPR,
                            hard-dynamic, soft-static and none (one
                            generation)
  runs/wide-5-speaker       wide at seed 5 with group_by_speaker
  runs/demo-5-val           demo at seed 5 with validation_fraction 0.5, so
                            that the compact float32 net trains with a
                            validation split: at the default 0.1, demo's 8
                            training utterances per fold hold out none
  featurize/wav-R           WAVs written with the wave module at R = 8000,
                            16000, 22050 and 44100 Hz, featurized
  featurize/csv             corpora/demo-5 stored as spectrogram CSVs,
                            featurized
  stdout/                   what each command printed, and its exit code

and finally resumed/<run>: the other side's runs/<run>, copied and resumed.
resumed/wide-5 is perfbench's resume fixture, wide's config run again on a
completed run.
Corpus specs and configs come from perfbench/workloads.py, which is only
read. The trees are compared file by file, with the output_dir of each
run_manifest.json masked, as it names where a run directory is. Each
differing file is printed; the exit status is 1 if any differs, else 0.
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (5, 11)
WAV_RATES = (8000, 16000, 22050, 44100)
# The smallest FFT that holds the default 25 ms window at each rate.
WAV_FFT_LEN = {8000: 512, 16000: 512, 22050: 1024, 44100: 2048}
_OUTPUT_DIR = re.compile(rb'("output_dir": )"(?:[^"\\]|\\.)*"')


def plan() -> dict:
    """Each run's name and its (corpus spec, experiment config) dicts."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, inputs

    runs = {f"{name}-{seed}": inputs(WORKLOADS[name], seed)
            for name in ("demo", "wide") for seed in SEEDS}
    spec, config = inputs(WORKLOADS["wide"], 13)
    runs["noise-13"] = (dict(spec, label_noise=0.3), config)
    demo_train = WORKLOADS["demo"].config["train"]
    variants = {
        "wide-5-sEPR": ("wide", {"mode": "sEPR"}),
        "wide-5-hard-dynamic": ("wide", {"mode": "hard-dynamic"}),
        "wide-5-soft-static": ("wide", {"mode": "soft-static"}),
        "wide-5-none": ("wide", {"mode": "none", "generations": 1}),
        "wide-5-speaker": ("wide", {"group_by_speaker": True}),
        "demo-5-val": ("demo", {"train": dict(demo_train, validation_fraction=0.5)}),
    }
    for run, (name, change) in variants.items():
        spec, config = inputs(WORKLOADS[name], 5)
        runs[run] = (spec, dict(config, **change))
    return runs


# --- Building one side's set; runs in a subprocess with that side's src/. ---
# emorefinery is imported inside these functions only, so that the comparing
# process imports neither side's package.

def _command(step: str, *args) -> None:
    """Run one emorefinery command, keeping its stdout and exit code in stdout/."""
    from emorefinery.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(args))
    step_file = Path("stdout") / f"{step}.txt"
    step_file.parent.mkdir(parents=True, exist_ok=True)
    step_file.write_text(f"{printed.getvalue()}exit {code}\n")


def _write_wavs(root: Path, rate: int) -> None:
    """Two 0.25 s tones per class as 16-bit mono WAVs, named label_speaker_index."""
    root.mkdir(parents=True)
    t = np.arange(rate // 4) / rate
    for c, label in enumerate(["ang", "hap"]):
        for i in range(2):
            x = 0.3 * np.sin(2 * np.pi * 300 * (c + 1) * (i + 1) * t)
            with wave.open(str(root / f"{label}_s{i}_{c}{i}.wav"), "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(rate)
                w.writeframes((x * 32767).astype("<i2").tobytes())


def _as_csv_corpus(src: Path, dst: Path) -> None:
    """A copy of the .npy corpus `src` whose spectrograms are frame-per-row CSVs."""
    manifest = json.loads((src / "manifest.json").read_text())
    (dst / "features").mkdir(parents=True)
    for row in manifest["rows"]:
        table = np.load(src / row["path"])
        row["path"] = row["path"][:-len(".npy")] + ".csv"
        lines = ["frame_time_ms," + ",".join(f"m_{i}" for i in range(1, len(table)))]
        lines += [",".join(f"{v:.17g}" for v in frame) for frame in table.T.tolist()]
        (dst / row["path"]).write_text("\n".join(lines) + "\n")
    (dst / "manifest.json").write_text(json.dumps(manifest))


def build(out: Path, runs: dict) -> None:
    os.chdir(out)
    for name, (spec, config) in runs.items():
        inputs = Path("inputs") / name
        inputs.mkdir(parents=True)
        (inputs / "spec.json").write_text(json.dumps(spec))
        (inputs / "config.json").write_text(json.dumps(config))
        _command(f"gen-data-{name}", "gen-data", "--spec", str(inputs / "spec.json"),
                 "--out", f"corpora/{name}")
        _command(f"run-{name}", "run", "--config", str(inputs / "config.json"),
                 "--corpus", f"corpora/{name}", "--out", f"runs/{name}")

    from emorefinery.manifest import manifest_from_wav_tree

    for rate in WAV_RATES:
        _write_wavs(Path(f"wav/{rate}"), rate)
        manifest_from_wav_tree(f"wav/{rate}", "label_speaker_index")
        config = Path(f"inputs/wav-{rate}.json")
        config.write_text(json.dumps({"frame": {"n_mels": 32, "fft_len": WAV_FFT_LEN[rate]}}))
        _command(f"featurize-wav-{rate}", "featurize", "--corpus", f"wav/{rate}",
                 "--out", f"featurize/wav-{rate}", "--config", str(config))
    _as_csv_corpus(Path("corpora/demo-5"), Path("corpora/csv"))
    _command("featurize-csv", "featurize", "--corpus", "corpora/csv",
             "--out", "featurize/csv")


def resume(out: Path, other: Path, runs: dict) -> None:
    """Resume a copy of each of `other`'s runs with this side's code."""
    os.chdir(out)
    for name in runs:
        shutil.copytree(other / "runs" / name, f"resumed/{name}")
        _command(f"resumed-{name}", "run", "--config", f"inputs/{name}/config.json",
                 "--corpus", f"corpora/{name}", "--out", f"resumed/{name}")


# --- Comparing two trees. ---

def masked(rel: str, data: bytes) -> bytes:
    """`data` with the output_dir of a run_manifest.json masked."""
    if rel.rsplit("/", 1)[-1] == "run_manifest.json":
        return _OUTPUT_DIR.sub(rb'\1"*"', data)
    return data


def differences(a: Path, b: Path, names=("a", "b")) -> list:
    """One line for each file that is only under `a` or `b`, or differs
    between them once masked, by its path relative to both; `names` name
    the two trees."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    lines = [f"{rel}: only in {names[0]}" for rel in files[0] - files[1]]
    lines += [f"{rel}: only in {names[1]}" for rel in files[1] - files[0]]
    lines += [f"{rel}: differs" for rel in files[0] & files[1]
              if masked(rel, (a / rel).read_bytes()) != masked(rel, (b / rel).read_bytes())]
    return sorted(lines)


def _side(step: str, src: Path, out: Path, *args) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = subprocess.run([sys.executable, __file__, str(out), step, *args], env=env).returncode
    if code:
        sys.exit(f"error: {__file__} {out} {step} failed with {src} (exit {code})")


def compare(rev: str) -> int:
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True)
    if commit.returncode:
        sys.exit(f"error: {rev} names no commit")
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit.stdout.strip()],
                                   stdout=subprocess.PIPE)
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            sys.exit(f"error: git archive {rev} failed")
        (a_src, a), (b_src, b) = sides = ((tmp / "rev" / "src", tmp / "out-rev"),
                                          (ROOT / "src", tmp / "out-this"))
        for src, out in sides:
            out.mkdir()
            _side("--build", src, out)
        _side("--resume", a_src, a, str(b))
        _side("--resume", b_src, b, str(a))
        lines = differences(a, b, (rev, "this checkout"))
        for resumed, runs, label in ((a, b, f"this checkout's runs resumed by {rev}"),
                                     (b, a, f"{rev}'s runs resumed by this checkout")):
            lines += [f"{label}: {line}" for line in differences(
                resumed / "resumed", runs / "runs", ("the resumed copy", "the run"))]
        for line in lines:
            print(line)
        count = sum(1 for p in a.rglob("*") if p.is_file())
        print(f"{count} files built by {rev} and by this checkout: "
              + (f"{len(lines)} differences" if lines else
                 "the same bytes, output_dir masked in run_manifest.json"))
        return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare this checkout with")
    parser.add_argument("--build", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--resume", metavar="OTHER", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        build(Path(args.rev), plan())
    elif args.resume:
        resume(Path(args.rev), Path(args.resume), plan())
    else:
        return compare(args.rev)
    return 0


if __name__ == "__main__":
    sys.exit(main())
