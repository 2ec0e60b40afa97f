"""Command line entry point.

Subcommands cover the full workflow: gen-data builds a synthetic corpus,
featurize converts audio corpora to stored spectrograms, run executes the
refinement pipeline, eval prints a run's metrics, and export-ep dumps one
utterance's profile trajectory. Exit codes: 0 success, 2 configuration
error, 3 data error or a file that cannot be written, 4 diverged training.
"""

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import config_to_dict, dataclass_from_dict, load_config, load_json_file
from .datagen import SyntheticCorpusSpec, generate_synthetic_corpus, segmentation_for
from .errors import ConfigError, DataError, EmoRefineryError, TrainingDivergedError
from .evaluation import read_metrics_report
from .features import FrameSpec
from .fileio import json_document
from .manifest import load_manifest, write_synthetic_corpus
from .pipeline import METRICS_NAME, export_ep_evolution, featurize_corpus, run_experiment

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_CODES = {ConfigError: 2, DataError: EXIT_DATA, TrainingDivergedError: 4}


def cmd_gen_data(args) -> int:
    spec = load_json_file(args.spec, lambda doc: dataclass_from_dict(
        SyntheticCorpusSpec, doc, "corpus spec"), "corpus spec")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    try:
        utterances = generate_synthetic_corpus(spec)
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for an array of more than 2**63 bytes.
        raise ConfigError(f"{args.spec}: its corpus cannot be allocated ({exc})") from exc
    manifest = write_synthetic_corpus(args.out, utterances, spec.class_names)
    seg = segmentation_for(spec)
    flipped = sum(1 for u in utterances if u.observed_label != u.label)
    print(f"wrote {len(manifest.rows)} utterances, {len(manifest.class_names)} classes "
          f"to {manifest.root}")
    print(f"segmentation: seg_frames={seg.seg_frames} seg_hop_ms={seg.seg_hop_ms:g}")
    if flipped:
        print(f"label noise: {flipped} observed labels differ from clean labels")
    return EXIT_OK


def cmd_featurize(args) -> int:
    frame = load_config(args.config).frame if args.config else FrameSpec()
    manifest = load_manifest(args.corpus)
    out, errors = featurize_corpus(manifest, frame, args.out)
    print(f"featurized {len(out.rows)} utterances to {out.root}")
    if errors:
        for uid, msg in sorted(errors.items()):
            print(f"failed {uid}: {msg}", file=sys.stderr)
        print(f"error: {len(errors)} utterance(s) failed", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _apply_run_overrides(cfg, args):
    overrides = {"master_seed": args.seed, "generations": args.generations,
                 "folds": args.folds, "mode": args.mode, "output_dir": args.out}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _print_generations(reports) -> None:
    for gen in reports:
        line = (f"gen {gen['generation']}: WA {gen['wa']:.4f} UA {gen['ua']:.4f} "
                f"mean EP entropy {gen['mean_ep_entropy']:.4f}")
        if "wa_clean" in gen:
            line += f" (clean-label WA {gen['wa_clean']:.4f} UA {gen['ua_clean']:.4f})"
        print(line)


def cmd_run(args) -> int:
    cfg = _apply_run_overrides(load_config(args.config), args)
    if args.describe:
        doc = config_to_dict(cfg)
        doc["derived_seeds"] = cfg.derived_seeds()
        print(json_document(doc), end="")
        return EXIT_OK
    metrics = run_experiment(args.corpus, cfg, resume=not args.no_resume)
    _print_generations(metrics["generations"])
    print(f"run artifacts in {cfg.output_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    path = Path(args.run) / METRICS_NAME
    if not path.exists():
        raise DataError(f"no metrics report at {path}; has the run finished?")
    metrics = read_metrics_report(path)
    generations = metrics["generations"]
    if args.generation is not None:
        generations = [g for g in generations if g["generation"] == args.generation]
        if not generations:
            raise DataError(f"run has no generation {args.generation}")
    print(f"mode {metrics['mode']}, classes: {', '.join(metrics['class_names'])}")
    _print_generations(generations)
    return EXIT_OK


def cmd_export_ep(args) -> int:
    n = export_ep_evolution(args.run, args.utterance, args.out)
    print(f"wrote {n} EP rows for {args.utterance} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emorefinery",
        description="Segment-level emotion profiles with iterative label refinement.")
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="corpus spec JSON")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("featurize", help="convert a corpus to stored spectrograms")
    p.add_argument("--corpus", required=True, help="corpus directory or manifest path")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--config", default=None, help="experiment config supplying the frame spec")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("run", help="run the refinement pipeline")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--corpus", required=True, help="corpus directory or manifest path")
    p.add_argument("--out", default=None, help="override the config output_dir")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--generations", type=int, default=None, help="override generation count")
    p.add_argument("--folds", type=int, default=None, help="override refinement fold count")
    p.add_argument("--mode", default=None, help="override the refinement mode")
    p.add_argument("--no-resume", action="store_true",
                   help="start the run directory over, recomputing every generation")
    p.add_argument("--describe", action="store_true",
                   help="print the resolved config and derived seeds, then exit")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="print metrics of a finished run")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--generation", type=int, default=None, help="single generation to show")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-ep", help="export one utterance's EPs across generations")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--utterance", required=True, help="utterance id")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_export_ep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (EmoRefineryError, OSError) as exc:
        # Every reader turns an OSError into a DataError or ConfigError naming
        # its file, so an OSError that reaches here comes from a write.
        message = exc
        if isinstance(exc, OSError) and exc.filename:
            message = f"{exc.filename} cannot be written ({exc.strerror})"
        print(f"error: {message}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)),
                    EXIT_DATA)


if __name__ == "__main__":
    raise SystemExit(main())
