"""Iterative refinement of segment-level emotion targets.

Each generation trains fold-out segment classifiers on the current targets,
predicts every utterance's emotion profile (EP) with the model that held it
out, and derives the next generation's targets from those profiles. Targets
and EPs are (n_segments, K) float64 arrays in dataset order; utterance i
owns rows offsets[i]:offsets[i + 1]. Four target rules are supported: pass
the fold-out prediction through unchanged (sEPR), average it with the
utterance's one-hot label (pEPR), snap it to a one-hot at its argmax
(hard-dynamic), or share the utterance-mean prediction across all segments
(soft-static).
"""

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import predict_batch, train_segment_classifier
from .errors import ConfigError, DataError
from .evaluation import kfold_split
from .fileio import read_csv, write_csv
from .network import entropy

MODES = ("sEPR", "pEPR", "hard-dynamic", "soft-static", "none")

# Seed stream tags keep fold planning and per-fold model init independent.
_STREAM_FOLD_PLAN = 11
_STREAM_MODEL = 12


def normalize_mode(mode: str) -> str:
    for known in MODES:
        if str(mode).lower() == known.lower():
            return known
    raise ConfigError(f"unknown refinery mode {mode!r}; expected one of {MODES}")


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer coordinates (master, stream, ...)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


class StackedDataset:
    """A checked dataset: utterance ids, labels and speakers, and every
    segment in one (n_segments, n_mels, seg_frames) float64 array `x`.

    `segments[i]` is utterance i's (n_i, n_mels, seg_frames) array, such as
    a `features.segment_spectrogram` view; concatenating them into `x` is
    the only copy of the segment values. Utterance i owns rows
    offsets[i]:offsets[i + 1] of `x` and of every target or EP array, and
    `row_utterance[r]` is the utterance that owns row r.
    """

    def __init__(self, utterance_ids, labels, speakers, class_names, segments):
        self.utterance_ids = tuple(utterance_ids)
        self.labels = np.array(labels, dtype=np.int64)
        self.speakers = tuple(speakers)
        self.class_names = tuple(class_names)
        ids = self.utterance_ids
        if not ids:
            raise DataError("dataset is empty")
        if not len(ids) == len(self.labels) == len(self.speakers) == len(segments):
            raise DataError(f"{len(ids)} utterance ids for {len(self.labels)} labels, "
                            f"{len(self.speakers)} speakers and {len(segments)} segment arrays")
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate utterance id {next(u for u in ids if ids.count(u) > 1)!r}")
        k = len(self.class_names)
        shape = segments[0].shape[1:]
        for uid, label, a in zip(ids, self.labels.tolist(), segments):
            if not 0 <= label < k:
                raise DataError(f"utterance {uid!r} has label {label}, "
                                f"not a class index 0..{k - 1}")
            if a.ndim != 3:
                raise DataError(f"utterance {uid!r} has segments of shape {a.shape}, "
                                "not (n, n_mels, seg_frames)")
            if a.shape[1:] != shape:
                raise DataError(f"segment arrays must share one (n_mels, seg_frames) shape, "
                                f"but utterance {uid!r} has {a.shape[1:]} and {ids[0]!r} {shape}")
            if len(a) == 0:
                raise DataError(f"utterance {uid!r} has no segments")
        self.offsets = np.cumsum([0] + [len(a) for a in segments])
        self.row_utterance = np.repeat(np.arange(len(ids)), np.diff(self.offsets))
        self.x = np.concatenate(segments, out=np.empty((self.offsets[-1],) + shape))
        bad = np.flatnonzero(~np.isfinite(self.x).all(axis=(1, 2)))
        if len(bad):
            i = self.row_utterance[bad[0]]
            raise DataError(f"utterance {ids[i]!r} segment {bad[0] - self.offsets[i]} "
                            "has non-finite values")


@dataclass(frozen=True)
class FoldOutGeneration:
    """EPs for one generation plus the bookkeeping proving fold-out purity.

    `fold_of[i]` is the fold that held out utterance i, `training_rows[f]`
    the segment rows fold f's model trained on, and `mean_entropy` the mean
    entropy of the EPs' rows in the order they were predicted: fold by
    fold, utterances in dataset order within a fold.
    """

    generation: int
    eps: np.ndarray
    fold_of: np.ndarray
    training_rows: tuple
    mean_entropy: float
    models: tuple


def generate_eps_foldout(data: StackedDataset, targets, cfg, seed: int,
                         generation: int = 1) -> FoldOutGeneration:
    """Train one model per fold and predict EPs for that fold's held-out utterances.

    Every utterance's EP comes from a model whose training set excluded all
    of that utterance's segments. `cfg` is the run's `ExperimentConfig`, of
    which folds, train and group_by_speaker are read, and `seed` its
    refinery stream's seed. Folds are planned in order on the calling
    thread, then trained on a pool of `_fold_workers` threads; each fold
    writes only its own EP rows, so the result does not depend on the
    pool's width.
    """
    class_names = data.class_names
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (data.offsets[-1], len(class_names)):
        raise DataError(f"targets have shape {targets.shape}, expected "
                        f"({data.offsets[-1]}, {len(class_names)}): one row per segment")
    fold_of = kfold_split(data.utterance_ids, data.labels, cfg.folds,
                          derive_seed(seed, _STREAM_FOLD_PLAN, generation),
                          groups=data.speakers if cfg.group_by_speaker else None)
    row_fold = fold_of[data.row_utterance]

    training_rows, model_seeds = [], []
    for fold in range(cfg.folds):
        present = set(data.labels[fold_of != fold].tolist())
        missing = [class_names[c] for c in range(len(class_names)) if c not in present]
        if missing:
            warnings.warn(f"generation {generation} fold {fold}: no training utterances "
                          f"of class(es) {missing}", RuntimeWarning)
        training_rows.append(np.flatnonzero(row_fold != fold))
        model_seeds.append(derive_seed(seed, _STREAM_MODEL, generation, fold))

    eps = np.empty(targets.shape)

    def train_and_predict(fold):
        rows = training_rows[fold]
        model = train_segment_classifier(data.x[rows], targets[rows], data.row_utterance[rows],
                                         class_names, cfg.train, model_seeds[fold],
                                         generation=generation)
        # One call per utterance, not one over the fold's rows: a longer
        # batch changes how BLAS rounds the float64 dense layer's matrix
        # product, which moved `wide`'s EPs and so every later generation.
        for i in np.flatnonzero(fold_of == fold):
            a, b = data.offsets[i], data.offsets[i + 1]
            eps[a:b] = predict_batch(model, data.x[a:b])
        return model

    # Imported here, so that runs which train no fold, such as a resume, do
    # not hold the module's memory.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_fold_workers(cfg, data.x.shape[1:])) as pool:
        models = list(pool.map(train_and_predict, range(cfg.folds)))
    # Averaged in prediction order: fold by fold, and by row within a fold.
    mean_entropy = float(entropy(eps[np.argsort(row_fold, kind="stable")]).mean())
    return FoldOutGeneration(generation=generation, eps=eps, fold_of=fold_of,
                             training_rows=tuple(training_rows),
                             mean_entropy=mean_entropy, models=tuple(models))


# Per-segment conv multiply-adds from which folds train two at a time. Below
# it a fold's numpy calls are too short to release the GIL for long, and
# two threads mostly contend for it.
_THREADED_FOLD_MACS = 1_000_000
# The most folds in flight; there are always at least two folds. Wall time,
# CPU time and peak memory have been measured at two. Each fold in flight
# holds its own training copy, net and optimizer state, so a wider pool
# needs its own measurement first.
_MAX_FOLD_THREADS = 2


def _fold_workers(cfg, input_shape) -> int:
    """How many folds train at once: one per usable CPU, up to
    _MAX_FOLD_THREADS, for a large enough net, else one."""
    if cfg.train.resolved_architecture().conv_macs(input_shape) < _THREADED_FOLD_MACS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, _MAX_FOLD_THREADS)


def foldout_purity_violations(foldout: FoldOutGeneration, data: StackedDataset) -> list:
    """Utterance ids whose EP model saw any of their segments in training."""
    row_fold = foldout.fold_of[data.row_utterance]
    leaked = np.zeros(len(row_fold), dtype=bool)
    for fold, rows in enumerate(foldout.training_rows):
        leaked[rows[row_fold[rows] == fold]] = True
    return [data.utterance_ids[i] for i in sorted(set(data.row_utterance[leaked].tolist()))]


def next_targets(eps, labels, offsets, mode: str) -> np.ndarray:
    """Targets for generation t+1 from generation t's (n_segments, K) fold-out EPs.

    `labels[i]` is utterance i's class; it owns rows offsets[i]:offsets[i + 1].
    """
    mode = normalize_mode(mode)
    if mode == "none":
        raise ConfigError("mode 'none' produces no refined targets")
    counts = np.diff(offsets)
    if eps.ndim != 2 or len(labels) != len(counts) or offsets[-1] != len(eps):
        raise DataError(f"EPs of shape {eps.shape} do not match {len(labels)} utterances "
                        f"of {offsets[-1]} segments")
    eye = np.eye(eps.shape[1])
    if mode == "sEPR":
        return eps
    if mode == "pEPR":
        return (eps + eye[np.repeat(labels, counts)]) / 2
    if mode == "hard-dynamic":
        return eye[eps.argmax(axis=1)]
    means = [eps[a:b].mean(axis=0) for a, b in zip(offsets[:-1], offsets[1:])]
    return np.repeat(means, counts, axis=0)


def run_refinery(data: StackedDataset, cfg, seed: int, load_generation=None):
    """Run cfg.generations generations, yielding (targets, eps, foldout) of each in turn.

    Generation 1 trains on the utterance labels as one-hot targets, and
    generation t + 1 on next_targets of generation t's EPs in cfg.mode.
    `load_generation(t)` may return generation t's stored (n_segments, K)
    EPs, which are then used instead of training it, with foldout None;
    None trains it. A trained generation is yielded only after it has passed
    its fold-out purity audit, so callers may persist it as it appears.
    """
    targets = np.eye(len(data.class_names))[np.repeat(data.labels, np.diff(data.offsets))]
    for t in range(1, cfg.generations + 1):
        foldout = None
        eps = load_generation(t) if load_generation is not None else None
        if eps is None:
            foldout = generate_eps_foldout(data, targets, cfg, seed, generation=t)
            violations = foldout_purity_violations(foldout, data)
            if violations:
                raise DataError(f"fold-out purity violated for {violations}")
            eps = foldout.eps
        elif eps.shape != targets.shape:
            raise DataError(f"stored generation {t} EPs have shape {eps.shape}, "
                            f"expected {targets.shape}")
        yield targets, eps, foldout
        if t < cfg.generations:
            targets = next_targets(eps, data.labels, data.offsets, cfg.mode)


_EP_HEADER = ["utterance_id", "segment_index", "generation"]


def _ep_rows(utterance_ids, offsets, generation: int):
    """Each eps.csv row in file order, as its key fields [id, str(index),
    str(generation)] and the dataset row of its EP: utterances sorted by id,
    then segments in order."""
    for i in sorted(range(len(utterance_ids)), key=utterance_ids.__getitem__):
        for index, r in enumerate(range(offsets[i], offsets[i + 1])):
            yield [utterance_ids[i], str(index), str(generation)], r


def write_ep_csv(path, eps, utterance_ids, offsets, generation: int) -> None:
    """EP export: one row per segment in _ep_rows order, probabilities at
    full float precision."""
    rows = eps.tolist()
    write_csv(path, _EP_HEADER + [f"p_{i + 1}" for i in range(eps.shape[1])],
              (key + rows[r] for key, r in _ep_rows(utterance_ids, offsets, generation)))


def read_ep_csv(path, class_names, utterance_ids, offsets, generation: int) -> np.ndarray:
    """The (n_segments, K) EPs written by write_ep_csv, in dataset order.

    The file must hold exactly the rows write_ep_csv writes, in its order,
    and every row a distribution: finite, non-negative and summing to 1
    within 1e-6.
    """
    k = len(class_names)
    eps = np.empty((int(offsets[-1]), k))
    records = read_csv(path)
    header = next(records, (1, []))[1]
    if header[:3] != _EP_HEADER:
        raise DataError(f"{path} is not an emotion profile CSV")
    if len(header) != 3 + k:
        raise DataError(f"{path} carries {len(header) - 3} classes, expected {k}")
    expected = _ep_rows(utterance_ids, offsets, generation)
    for line, row in records:
        key, r = next(expected, (None, None))
        try:
            if key is None:
                raise ValueError("a row after the last segment")
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields where the header names {len(header)}")
            if row[:3] != key:
                raise ValueError(f"expected segment {key[1]} of {key[0]!r} in generation "
                                 f"{key[2]}, found {row[:3]}")
            eps[r] = [float(v) for v in row[3:]]
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from exc
    key, _ = next(expected, (None, None))
    if key:
        raise DataError(f"{path}: no row for segment {key[1]} of {key[0]!r}")
    if not np.all(np.isfinite(eps)) or np.any(eps < 0):
        raise DataError(f"{path}: profile entries must be finite and non-negative")
    if np.any(np.abs(eps.sum(axis=1) - 1.0) > 1e-6):
        raise DataError(f"{path}: every profile row must sum to 1")
    return eps
