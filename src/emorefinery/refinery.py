"""Iterative refinement of segment-level emotion targets.

Each generation trains fold-out segment classifiers on the current targets,
assembles a per-utterance emotion profile (EP) from held-out predictions,
and derives the next generation's targets from those profiles. Four target
rules are supported: pass the fold-out prediction through unchanged (sEPR),
average it with the utterance's one-hot label (pEPR), snap it to a one-hot
at its argmax (hard-dynamic), or share the utterance-mean prediction across
all segments (soft-static).
"""

import csv
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import (
    EmotionDistribution,
    TrainConfig,
    one_hot,
    predict_batch,
    train_segment_classifier,
)
from .errors import ConfigError, DataError
from .evaluation import kfold_split

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


@dataclass(frozen=True)
class LabeledUtterance:
    """One utterance: class label plus its segments in index order."""

    utterance_id: str
    label: int
    segments: tuple
    speaker: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise DataError(f"utterance {self.utterance_id!r} has no segments")
        if self.label < 0:
            raise DataError(f"utterance {self.utterance_id!r} has negative label")
        for i, seg in enumerate(self.segments):
            if seg.utterance_id != self.utterance_id:
                raise DataError(f"segment of {seg.utterance_id!r} filed under {self.utterance_id!r}")
            if seg.index != i:
                raise DataError(f"utterance {self.utterance_id!r} segment indices must run 0..N-1")

    @property
    def n_segments(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class EmotionProfile:
    """K x N matrix; column i is segment i's class distribution."""

    values: np.ndarray
    utterance_id: str
    generation: int
    class_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.values.ndim != 2:
            raise DataError("emotion profile values must be a K x N matrix")
        k, n = self.values.shape
        if k != len(self.class_names) or k < 2:
            raise DataError(f"profile has {k} rows for {len(self.class_names)} classes")
        if n < 1:
            raise DataError("emotion profile needs at least one segment column")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DataError("profile entries must be finite and non-negative")
        sums = self.values.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise DataError("every profile column must sum to 1")
        if self.generation < 1:
            raise DataError("generation index must be >= 1")

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n_segments(self) -> int:
        return self.values.shape[1]

    def column(self, i: int) -> EmotionDistribution:
        return EmotionDistribution(probs=self.values[:, i].copy(), class_names=self.class_names)


@dataclass(frozen=True)
class RefineryGeneration:
    """Targets used to train generation t, keyed by (utterance_id, segment_index)."""

    t: int
    targets: dict
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        if self.t < 1:
            raise DataError("generation index must be >= 1")


@dataclass(frozen=True)
class RefineryConfig:
    generations: int = 1
    mode: str = "pEPR"
    folds: int = 10
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    group_by_speaker: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.mode == "none" and self.generations != 1:
            raise ConfigError("mode 'none' performs no refinement; use generations=1")


def initial_labels(utterance_label: int, n_segments: int, class_names) -> list:
    """Pseudo one-hot targets: the utterance label copied to every segment."""
    if n_segments < 1:
        raise DataError("n_segments must be >= 1")
    return [one_hot(utterance_label, class_names) for _ in range(n_segments)]


def build_ep(predictions, utterance_id: str = "", generation: int = 1) -> EmotionProfile:
    """Stack per-segment distributions (ordered by segment index) into a profile."""
    if not predictions:
        raise DataError("cannot build an emotion profile from no predictions")
    names = predictions[0].class_names
    for p in predictions[1:]:
        if p.class_names != names:
            raise DataError("predictions mix different class sets")
    values = np.stack([p.probs for p in predictions], axis=1)
    return EmotionProfile(values=values, utterance_id=utterance_id, generation=generation, class_names=names)


def refine_standard(pred: EmotionDistribution) -> EmotionDistribution:
    """sEPR target: the fold-out prediction itself."""
    return pred


def combine_with_hard(pred: EmotionDistribution, hard: EmotionDistribution) -> EmotionDistribution:
    """pEPR target: (prediction + one-hot label) / 2."""
    if pred.class_names != hard.class_names:
        raise DataError("prediction and hard label use different class sets")
    if np.count_nonzero(hard.probs) != 1 or hard.probs.max() != 1.0:
        raise DataError("hard label must be one-hot")
    return EmotionDistribution(probs=(pred.probs + hard.probs) / 2, class_names=pred.class_names)


def hard_dynamic_label(pred: EmotionDistribution) -> EmotionDistribution:
    """One-hot at the prediction's argmax; ties break to the lowest class."""
    return one_hot(pred.argmax(), pred.class_names)


def soft_static_label(preds) -> EmotionDistribution:
    """Elementwise mean of all segment predictions of one utterance."""
    if not preds:
        raise DataError("cannot average an empty prediction list")
    names = preds[0].class_names
    for p in preds[1:]:
        if p.class_names != names:
            raise DataError("predictions mix different class sets")
    mean = np.mean(np.stack([p.probs for p in preds]), axis=0)
    return EmotionDistribution(probs=mean, class_names=names)


@dataclass(frozen=True)
class FoldOutGeneration:
    """EPs for one generation plus the bookkeeping proving fold-out purity."""

    generation: int
    eps: dict
    fold_of: dict
    training_keys: tuple
    models: tuple


def _check_dataset(dataset, class_names) -> None:
    if not dataset:
        raise DataError("dataset is empty")
    seen = set()
    for u in dataset:
        if u.utterance_id in seen:
            raise DataError(f"duplicate utterance id {u.utterance_id!r}")
        seen.add(u.utterance_id)
        if u.label >= len(class_names):
            raise DataError(f"utterance {u.utterance_id!r} label {u.label} exceeds class count")


def generate_eps_foldout(dataset, targets, cfg: RefineryConfig, class_names, generation: int = 1) -> FoldOutGeneration:
    """Train one model per fold and predict EPs for that fold's held-out utterances.

    Every utterance's EP comes from a model whose training set excluded all
    of that utterance's segments; `training_keys` records the training
    (utterance_id, segment_index) pairs per fold for auditing.
    """
    _check_dataset(dataset, class_names)
    for u in dataset:
        for seg in u.segments:
            if (u.utterance_id, seg.index) not in targets:
                raise DataError(f"missing target for segment {(u.utterance_id, seg.index)!r}")

    labels = {u.utterance_id: u.label for u in dataset}
    groups = {u.utterance_id: u.speaker for u in dataset} if cfg.group_by_speaker else None
    grouping = "speaker" if cfg.group_by_speaker else "utterance"
    plan = kfold_split(labels, cfg.folds, derive_seed(cfg.seed, _STREAM_FOLD_PLAN, generation),
                       groups=groups, grouping=grouping)

    eps = {}
    training_keys = []
    models = []
    for fold in range(cfg.folds):
        train_utts = [u for u in dataset if plan.assignments[u.utterance_id] != fold]
        held_utts = [u for u in dataset if plan.assignments[u.utterance_id] == fold]
        present = {u.label for u in train_utts}
        missing = [class_names[c] for c in range(len(class_names)) if c not in present]
        if missing:
            warnings.warn(f"generation {generation} fold {fold}: no training utterances "
                          f"of class(es) {missing}", RuntimeWarning)
        segs = [seg for u in train_utts for seg in u.segments]
        segs_targets = [targets[(u.utterance_id, seg.index)] for u in train_utts for seg in u.segments]
        train_cfg = replace(cfg.train, seed=derive_seed(cfg.seed, _STREAM_MODEL, generation, fold))
        model = train_segment_classifier(segs, segs_targets, train_cfg, generation=generation)
        for u in held_utts:
            probs = predict_batch(model, list(u.segments))
            eps[u.utterance_id] = EmotionProfile(values=probs.T, utterance_id=u.utterance_id,
                                                 generation=generation, class_names=tuple(class_names))
        training_keys.append(frozenset((u.utterance_id, seg.index) for u in train_utts for seg in u.segments))
        models.append(model)
    return FoldOutGeneration(generation=generation, eps=eps, fold_of=dict(plan.assignments),
                             training_keys=tuple(training_keys), models=tuple(models))


def foldout_purity_violations(result: FoldOutGeneration, dataset) -> list:
    """Utterance ids whose EP model saw any of their segments in training."""
    violations = []
    for u in dataset:
        keys = {(u.utterance_id, seg.index) for seg in u.segments}
        if keys & result.training_keys[result.fold_of[u.utterance_id]]:
            violations.append(u.utterance_id)
    return violations


def next_targets(eps, dataset, mode: str, class_names) -> dict:
    """Targets for generation t+1 from generation t's fold-out EPs."""
    mode = normalize_mode(mode)
    if mode == "none":
        raise ConfigError("mode 'none' produces no refined targets")
    targets = {}
    for u in dataset:
        ep = eps[u.utterance_id]
        if mode == "soft-static":
            shared = soft_static_label([ep.column(i) for i in range(ep.n_segments)])
            for i in range(ep.n_segments):
                targets[(u.utterance_id, i)] = shared
            continue
        hard = one_hot(u.label, class_names)
        for i in range(ep.n_segments):
            col = ep.column(i)
            if mode == "sEPR":
                targets[(u.utterance_id, i)] = refine_standard(col)
            elif mode == "pEPR":
                targets[(u.utterance_id, i)] = combine_with_hard(col, hard)
            else:
                targets[(u.utterance_id, i)] = hard_dynamic_label(col)
    return targets


@dataclass(frozen=True)
class RefineryResult:
    eps_by_generation: tuple
    generations: tuple
    foldouts: tuple

    @property
    def final_generation(self) -> RefineryGeneration:
        return self.generations[-1]


def run_refinery(dataset, class_names, cfg: RefineryConfig, on_generation=None) -> RefineryResult:
    """Run T generations; generation 1 trains on pseudo one-hot labels.

    `on_generation(t, foldout, generation)` is invoked after each generation,
    letting callers persist EPs and models as they appear.
    """
    _check_dataset(dataset, class_names)
    targets = {}
    for u in dataset:
        for i, dist in enumerate(initial_labels(u.label, u.n_segments, class_names)):
            targets[(u.utterance_id, i)] = dist

    eps_by_generation = []
    generations = []
    foldouts = []
    for t in range(1, cfg.generations + 1):
        gen = RefineryGeneration(t=t, targets=targets, mode=cfg.mode)
        foldout = generate_eps_foldout(dataset, targets, cfg, class_names, generation=t)
        eps_by_generation.append(foldout.eps)
        generations.append(gen)
        foldouts.append(foldout)
        if on_generation is not None:
            on_generation(t, foldout, gen)
        if t < cfg.generations:
            targets = next_targets(foldout.eps, dataset, cfg.mode, class_names)
    return RefineryResult(eps_by_generation=tuple(eps_by_generation),
                          generations=tuple(generations), foldouts=tuple(foldouts))


def mean_ep_entropy(eps) -> float:
    """Mean Shannon entropy (nats) over every column of every profile."""
    if not eps:
        raise DataError("no emotion profiles")
    cols = np.concatenate([ep.values for ep in eps.values()], axis=1)
    plogp = np.zeros_like(cols)
    nz = cols > 0
    plogp[nz] = cols[nz] * np.log(cols[nz])
    return float(-plogp.sum(axis=0).mean())


def write_ep_csv(path, eps) -> None:
    """EP export: one row per segment, probabilities at full float precision."""
    if not eps:
        raise DataError("no emotion profiles to write")
    k = next(iter(eps.values())).k
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utterance_id", "segment_index", "generation"]
                        + [f"p_{i + 1}" for i in range(k)])
        for uid in sorted(eps):
            ep = eps[uid]
            if ep.k != k:
                raise DataError("profiles mix different class counts")
            for i in range(ep.n_segments):
                writer.writerow([uid, i, ep.generation] + [f"{v:.17g}" for v in ep.values[:, i]])


def read_ep_csv(path, class_names) -> dict:
    """Rebuild the utterance_id -> EmotionProfile map written by write_ep_csv."""
    names = tuple(class_names)
    columns = {}
    generations = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["utterance_id", "segment_index", "generation"]:
            raise DataError(f"{path} is not an emotion profile CSV")
        if len(header) != 3 + len(names):
            raise DataError(f"{path} carries {len(header) - 3} classes, expected {len(names)}")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header names {len(header)}")
                uid, idx, gen = row[0], int(row[1]), int(row[2])
                columns.setdefault(uid, {})[idx] = np.array([float(v) for v in row[3:]])
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
            generations.setdefault(uid, set()).add(gen)
    eps = {}
    for uid, cols in columns.items():
        if sorted(cols) != list(range(len(cols))):
            raise DataError(f"utterance {uid!r} segment indices are not contiguous")
        if len(generations[uid]) != 1:
            raise DataError(f"utterance {uid!r} mixes generations in one file")
        values = np.stack([cols[i] for i in range(len(cols))], axis=1)
        eps[uid] = EmotionProfile(values=values, utterance_id=uid,
                                  generation=generations[uid].pop(), class_names=names)
    return eps
