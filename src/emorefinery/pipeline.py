"""End-to-end run orchestration with per-generation persistence.

A run directory accumulates one subdirectory per refinement generation,
each holding the fold-out emotion profiles, the fold models, the derived
utterance representations, cross-validated forest predictions, and a
metrics report. Generations are written atomically (tmp dir then rename)
so an interrupted run resumes at the first missing generation; the run
manifest and the run's metrics report are replaced atomically as well.
"""

import hashlib
import itertools
import json
import logging
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

from .classifier import save_model
from .config import ExperimentConfig, config_to_dict
from .decision import predict_forest, train_forest
from .errors import ConfigError, DataError, EmoRefineryError
from .evaluation import (confusion_from_predictions, kfold_split, read_metrics_report,
                         unweighted_accuracy, weighted_accuracy, write_confusion_csv,
                         write_metrics_report)
from .features import log_mel_spectrogram, load_wav, segment_spectrogram
from .fileio import read_csv, read_json, write_csv, write_json
from .manifest import (CorpusManifest, _refuse_existing_corpus, load_manifest,
                       read_spectrogram_csv, write_features_corpus)
from .refinery import StackedDataset, derive_seed, read_ep_csv, run_refinery, write_ep_csv
from .representation import representations_for, write_representation_csv

logger = logging.getLogger(__name__)

RUN_FORMAT = "emorefinery-run"
RUN_VERSION = 1
RUN_MANIFEST_NAME = "run_manifest.json"
METRICS_NAME = "metrics.json"
GENERATIONS_DIR = "generations"


def _record_failure(errors: dict, manifest: CorpusManifest, row, exc) -> None:
    """errors[id] = the message of exc, naming the row's file once."""
    src = manifest.root / row.path
    errors[row.utterance_id] = str(exc) if str(src) in str(exc) else f"{src}: {exc}"


def _read_corpus(manifest: CorpusManifest, frame):
    """Read every corpus row once; returns the kept (row, spectrogram)
    pairs and errors[id], the message of each row not kept.

    The corpus's mel count is the most common one among the readable rows,
    ties going to the count read first; a row with another count is not kept.
    """
    errors, readable = {}, []
    for row in manifest.rows:
        src = manifest.root / row.path
        try:
            if row.kind == "audio":
                readable.append((row, log_mel_spectrogram(*load_wav(src), frame)))
            else:
                readable.append((row, read_spectrogram_csv(src)))
        except (EmoRefineryError, OSError, ValueError) as exc:
            _record_failure(errors, manifest, row, exc)
    counts = Counter(len(s.values) for _, s in readable)
    # A Counter keeps its keys in the order first read; max keeps the first of equals.
    n_mels = max(counts, key=counts.__getitem__, default=None)
    kept = [(row, s) for row, s in readable if len(s.values) == n_mels]
    for row, s in readable:
        if len(s.values) != n_mels:
            _record_failure(errors, manifest, row, DataError(
                f"{len(s.values)} mel bands, where {kept[0][0].utterance_id!r} has {n_mels}"))
    return kept, errors


def utterances_from_manifest(manifest: CorpusManifest, frame, segment):
    """Segment every corpus row; returns (dataset, per-utterance errors).

    The dataset holds the rows _read_corpus keeps that could be segmented,
    labelled with their training labels; it is None when no row could.
    """
    kept, errors = _read_corpus(manifest, frame)
    rows, segments = [], []
    for row, s in kept:
        try:
            segments.append(segment_spectrogram(s, segment, frame))
            rows.append(row)
        except (EmoRefineryError, ValueError) as exc:
            _record_failure(errors, manifest, row, exc)
    if not rows:
        return None, errors
    data = StackedDataset([r.utterance_id for r in rows],
                          [manifest.label_index(r.training_label) for r in rows],
                          [r.speaker for r in rows], manifest.class_names, segments)
    return data, errors


def _featurize_failure(errors: dict) -> DataError:
    """One error naming each failed row as `<id>: <file>: <reason>`."""
    listing = "; ".join(f"{u}: {msg}" for u, msg in sorted(errors.items()))
    return DataError(f"{len(errors)} utterance(s) failed to featurize: {listing}")


def featurize_corpus(manifest: CorpusManifest, frame, out_root):
    """Write a features-kind copy of the rows _read_corpus keeps into an
    `out_root` holding no corpus, checked first; returns (manifest, errors).
    With no row kept it writes nothing and raises _featurize_failure."""
    _refuse_existing_corpus(Path(out_root))
    kept, errors = _read_corpus(manifest, frame)
    if not kept:
        raise _featurize_failure(errors)
    return write_features_corpus(out_root, manifest.class_names, kept), errors


def cross_validated_predictions(data: StackedDataset, reps, forest_cfg, folds: int,
                                seed: int, forest_seed: int, groups=None) -> np.ndarray:
    """Out-of-fold forest predictions of every utterance, in dataset order.

    `reps` holds the (n_utterances, 5K) representations in dataset order.
    The fold plan depends only on the ids, labels, folds and seed, so
    refinement generations evaluated with the same seed share test folds
    and their accuracies are directly comparable. Fold f's forest is seeded
    derive_seed(forest_seed, f) and trains on its rows in sorted-id order,
    which fixes its bootstrap draws.
    """
    ids = data.utterance_ids
    fold_of = kfold_split(ids, data.labels, folds, seed, groups=groups)
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__))
    predictions = np.empty(len(ids), dtype=np.int64)
    for fold in range(folds):
        train = by_id[fold_of[by_id] != fold]
        forest = train_forest(reps[train], data.labels[train], forest_cfg, data.class_names,
                              derive_seed(forest_seed, fold))
        test = fold_of == fold
        predictions[test] = predict_forest(forest, reps[test])
    return predictions


def _write_generation(gen_dir: Path, foldout, data: StackedDataset, clean,
                      cfg: ExperimentConfig, seeds: dict) -> dict:
    """Score a trained generation and write its directory, through a temporary
    directory beside it that is then moved into place; returns its report."""
    ids, names = data.utterance_ids, data.class_names
    reps = representations_for(foldout.eps, data.offsets)
    predictions = cross_validated_predictions(
        data, reps, cfg.forest, cfg.eval_folds, seeds["eval"], seeds["forest"],
        groups=data.speakers if cfg.group_by_speaker else None)
    cm = confusion_from_predictions(data.labels, predictions, names)
    report = {
        "generation": foldout.generation,
        "mode": cfg.mode,
        "wa": weighted_accuracy(cm),
        "ua": unweighted_accuracy(cm, names),
        "mean_ep_entropy": foldout.mean_entropy,
        "n_utterances": len(ids),
        "confusion_matrix": cm.tolist(),
    }
    if clean is not None:
        cm_clean = confusion_from_predictions(clean, predictions, names)
        report["wa_clean"] = weighted_accuracy(cm_clean)
        report["ua_clean"] = unweighted_accuracy(cm_clean, names)

    tmp = gen_dir.with_name(f".{gen_dir.name}.tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    (tmp / "models").mkdir(parents=True)
    eps_path, reps_path, predictions_path, confusion_path, metrics_path, audit_path, *models = (
        tmp / name for name in _generation_files(len(foldout.models)))
    write_ep_csv(eps_path, foldout.eps, ids, data.offsets, foldout.generation)
    write_representation_csv(reps_path, ids, reps)
    records = [(u, names[t], names[p])
               for u, t, p in sorted(zip(ids, data.labels.tolist(), predictions.tolist()))]
    write_csv(predictions_path, ["utterance_id", "true", "pred"], records)
    write_confusion_csv(confusion_path, cm, names)
    write_metrics_report(metrics_path, report)
    for model, path in zip(foldout.models, models, strict=True):
        save_model(model, path)
    audit = {
        "generation": foldout.generation,
        "folds": len(foldout.models),
        "fold_of": dict(zip(ids, foldout.fold_of.tolist())),
        "training_segments_per_fold": [len(rows) for rows in foldout.training_rows],
        "violations": [],
    }
    write_json(audit_path, audit)
    os.replace(tmp, gen_dir)
    return report


def _generation_files(folds: int) -> list:
    """The files of a generation directory, as _write_generation writes them."""
    return (["eps.csv", "representations.csv", "predictions.csv", "confusion.csv",
             METRICS_NAME, "foldout.json"] + [f"models/fold{f:02d}.npz" for f in range(folds)])


def _check_generation_files(gen_dir: Path, t: int, folds: int) -> None:
    """Raise a DataError naming the first file of generation t that is missing,
    or its foldout.json unless it is the audit of t over `folds` folds with
    no violations; no other file is read."""
    for name in _generation_files(folds):
        if not (gen_dir / name).is_file():
            raise DataError(f"{gen_dir / name} is missing")
    path = gen_dir / "foldout.json"
    audit = read_json(path)
    if not (isinstance(audit, dict) and type(audit.get("generation")) is int
            and type(audit.get("folds")) is int and audit["generation"] == t
            and audit["folds"] == folds and audit.get("violations") == []):
        raise DataError(f"{path} is not the audit of generation {t} over {folds} folds "
                        "with no violations")


def generation_dir(run_dir, t: int) -> Path:
    return Path(run_dir) / GENERATIONS_DIR / f"gen{t:02d}"


def _corpus_sha256(manifest: CorpusManifest, data: StackedDataset) -> str:
    """sha256 over the manifest's classes and labelled rows, not its root,
    and over the segment tensor's layout and bytes."""
    table = {
        "class_names": list(manifest.class_names),
        "rows": [[r.utterance_id, r.label, r.observed_label, r.speaker]
                 for r in manifest.rows],
        "offsets": data.offsets.tolist(),
        "shape": list(data.x.shape),
    }
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode())
    digest.update(data.x)
    return digest.hexdigest()


def _differences(run: dict, config: dict, prefix: str = ""):
    """'key.path: <value> in the run, <value> in the config' of each key whose
    values differ, in sorted key order; a key that one side lacks reads absent."""
    for key in sorted(run.keys() | config.keys()):
        a, b = run.get(key), config.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _differences(a, b, f"{prefix}{key}.")
        elif a != b or (key in run) != (key in config):
            a, b = (json.dumps(d[key]) if key in d else "absent" for d in (run, config))
            yield f"{prefix}{key}: {a} in the run, {b} in the config"


def _check_resumable(path: Path, doc: dict) -> None:
    """Refuse to resume the generations beside `path` unless it records
    `doc`'s config and corpus. The config's output_dir says where the run
    is, not what it computes, so a moved run directory still resumes."""
    start_over = "pass a fresh output directory or rerun with --no-resume to start it over"
    try:
        previous = read_json(path)
    except DataError as exc:
        raise DataError(f"{exc}; {start_over}") from exc
    if not isinstance(previous, dict):
        raise DataError(f"{path} is not a run manifest; {start_over}")
    for key in ("config", "corpus_sha256"):
        recorded = previous.get(key)
        if key == "config" and isinstance(recorded, dict):
            recorded = {**recorded, "output_dir": doc[key]["output_dir"]}
        if recorded != doc[key]:
            detail = (f" ({next(_differences(recorded, doc[key]))})"
                      if key == "config" and isinstance(recorded, dict) else "")
            raise DataError(f"{path} records {'a different' if key in previous else 'no'} "
                            f"{key}{detail}, so its run cannot be resumed; {start_over}")


def run_experiment(corpus_root, cfg: ExperimentConfig, run_dir=None,
                   resume: bool = True) -> dict:
    """Full pipeline on a corpus directory; returns the metrics report.

    With `resume`, generations already in `run_dir` are checked and reused,
    provided its run manifest records the same config and corpus; without,
    `run_dir` is started over.
    """
    manifest = load_manifest(corpus_root)
    data, errors = utterances_from_manifest(manifest, cfg.frame, cfg.segment)
    if errors:
        raise _featurize_failure(errors)
    # Limits the corpus sets, checked before anything is trained or written.
    unit = "speakers" if cfg.group_by_speaker else "utterances"
    groups = len(set(data.speakers if cfg.group_by_speaker else data.utterance_ids))
    for key, value in (("folds", cfg.folds), ("eval_folds", cfg.eval_folds)):
        if value > groups:
            raise ConfigError(f"{key}={value}, but the corpus at {manifest.root} has only "
                              f"{groups} {unit}")
    width = 5 * len(data.class_names)
    if cfg.forest.max_features > width:
        raise ConfigError(f"forest.max_features={cfg.forest.max_features}, but the corpus at "
                          f"{manifest.root} has {width} representation features (5 per class)")
    cfg.train.resolved_architecture().conv_shapes(data.x.shape[1:])

    names = manifest.class_names
    clean = manifest.clean_labels()
    run_dir = Path(run_dir) if run_dir is not None else Path(cfg.output_dir)
    path = run_dir / RUN_MANIFEST_NAME
    seeds = cfg.derived_seeds()
    doc = {
        "format": RUN_FORMAT,
        "version": RUN_VERSION,
        "config": config_to_dict(cfg),
        "derived_seeds": seeds,
        "class_names": list(names),
        "n_utterances": len(manifest.rows),
        "label_noise_present": clean is not None,
        "corpus_sha256": _corpus_sha256(manifest, data),
    }
    generations = run_dir / GENERATIONS_DIR
    if resume and (path.exists() or generations.exists()):
        _check_resumable(path, doc)
    elif not resume:
        # The run's metrics.json would report the run being replaced.
        (run_dir / METRICS_NAME).unlink(missing_ok=True)
        if generations.exists():
            shutil.rmtree(generations)
    generations.mkdir(parents=True, exist_ok=True)
    write_json(path, doc)

    reports = {}

    def load_generation(t):
        gen_dir = generation_dir(run_dir, t)
        if not (resume and gen_dir.exists()):
            logger.info("generation %d/%d: training %d fold models",
                        t, cfg.generations, cfg.folds)
            return None
        logger.info("generation %d/%d already present, reusing", t, cfg.generations)
        try:
            _check_generation_files(gen_dir, t, cfg.folds)
            eps = read_ep_csv(gen_dir / "eps.csv", names, data.utterance_ids, data.offsets, t)
            reports[t] = read_metrics_report(gen_dir / METRICS_NAME, generation=t)
        except DataError as exc:
            raise DataError(f"{exc}; generation {t} cannot be reused, "
                            "rerun with --no-resume to recompute it") from exc
        return eps

    for t, (_, _, foldout) in enumerate(
            run_refinery(data, cfg, seeds["refinery"], load_generation), 1):
        if foldout is not None:
            reports[t] = _write_generation(generation_dir(run_dir, t), foldout, data, clean,
                                           cfg, seeds)
        logger.info("generation %d: WA %.4f UA %.4f entropy %.4f",
                    t, reports[t]["wa"], reports[t]["ua"], reports[t]["mean_ep_entropy"])
    metrics = {
        "format": "emorefinery-metrics",
        "version": RUN_VERSION,
        "mode": cfg.mode,
        "class_names": list(names),
        "generations": list(reports.values()),
    }
    write_metrics_report(run_dir / METRICS_NAME, metrics)
    return metrics


def export_ep_evolution(run_dir, utterance_id: str, out_path) -> int:
    """Concatenate one utterance's EP rows across generation_dir 1, 2, ...
    up to the first one missing; other entries beside them are not read.

    Rows are read with the CSV parsing of read_ep_csv and written back with
    its quoting and "\\n" line ends, so exported values match the stored
    profiles byte for byte. Returns the number of rows written.
    """
    header = None
    rows = []
    for t in itertools.count(1):
        path = generation_dir(run_dir, t) / "eps.csv"
        if not path.parent.exists():
            break
        records = read_csv(path)
        top = next(records, (1, None))[1]
        if top is None:
            raise DataError(f"{path} is empty")
        if header is None:
            header, first = top, path
        elif top != header:
            raise DataError(f"{path} has another EP header than {first}")
        rows.extend(row for _, row in records if row[:1] == [utterance_id])
    if header is None:
        raise DataError(f"{run_dir} holds no completed generations")
    if not rows:
        raise DataError(f"utterance {utterance_id!r} not found in {run_dir}")
    write_csv(out_path, header, rows, line_end="\n")
    return len(rows)
