"""Cross-validation fold planning and utterance-level accuracy metrics."""

import csv
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class FoldPlan:
    """Seeded partition of utterances into k folds."""

    k: int
    assignments: dict

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("fold count must be >= 2")
        if not self.assignments:
            raise DataError("fold plan covers no utterances")
        for uid, fold in self.assignments.items():
            if not 0 <= fold < self.k:
                raise DataError(f"utterance {uid!r} assigned to fold {fold} outside 0..{self.k - 1}")

    def members(self, fold: int) -> list:
        return sorted(u for u, f in self.assignments.items() if f == fold)


def _group_label(member_labels: list) -> int:
    """Majority class of a group; ties break to the lowest class index."""
    counts = np.bincount(member_labels)
    return int(np.argmax(counts))


def kfold_split(labels, k: int, seed: int, groups=None) -> FoldPlan:
    """Stratified seeded k-fold assignment of utterances.

    `labels` maps utterance_id -> class index. With `groups` (utterance_id ->
    group key, e.g. speaker) all utterances sharing a key land in one fold.
    Groups are shuffled within each class, then dealt round-robin with a
    rolling fold counter so fold sizes stay balanced across classes.
    """
    if k < 2:
        raise ConfigError("fold count must be >= 2")
    if not labels:
        raise DataError("no utterances to split")
    ids = sorted(labels)
    if groups is None:
        groups = {u: u for u in ids}
    members = {}
    for u in ids:
        members.setdefault(groups[u], []).append(u)
    group_keys = sorted(members)
    if k > len(group_keys):
        raise ConfigError(f"{k} folds requested but only {len(group_keys)} groups available")

    by_class = {}
    for g in group_keys:
        by_class.setdefault(_group_label([labels[u] for u in members[g]]), []).append(g)

    rng = np.random.default_rng(seed)
    assignments = {}
    next_fold = 0
    for c in sorted(by_class):
        class_groups = by_class[c]
        for j in rng.permutation(len(class_groups)):
            fold = next_fold % k
            for u in members[class_groups[j]]:
                assignments[u] = fold
            next_fold += 1
    return FoldPlan(k=k, assignments=assignments)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError("confusion matrix must be square")
        if self.counts.shape[0] != len(self.class_names):
            raise DataError("confusion matrix size does not match class names")
        if np.any(self.counts < 0):
            raise DataError("confusion matrix entries must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(y_true, y_pred, class_names) -> ConfusionMatrix:
    names = tuple(class_names)
    if len(y_true) != len(y_pred):
        raise DataError("prediction and truth lists differ in length")
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        if not (0 <= t < len(names) and 0 <= p < len(names)):
            raise DataError(f"class index ({t}, {p}) out of range for {len(names)} classes")
        counts[t, p] += 1
    return ConfusionMatrix(counts=counts, class_names=names)


def weighted_accuracy(cm: ConfusionMatrix) -> float:
    """Overall accuracy: trace / total."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def unweighted_accuracy(cm: ConfusionMatrix) -> float:
    """Macro-averaged recall; classes with no samples are excluded with a warning."""
    row_sums = cm.counts.sum(axis=1)
    present = row_sums > 0
    if not np.any(present):
        raise DataError("confusion matrix has no samples in any class")
    if not np.all(present):
        missing = [cm.class_names[i] for i in np.flatnonzero(~present)]
        warnings.warn(f"classes with no samples excluded from UA: {missing}", RuntimeWarning)
    recalls = np.diag(cm.counts)[present] / row_sums[present]
    return float(recalls.mean())


def write_confusion_csv(path, cm: ConfusionMatrix) -> None:
    """CSV with true classes as rows, predicted classes as columns."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true"] + list(cm.class_names))
        for i, name in enumerate(cm.class_names):
            writer.writerow([name] + [int(v) for v in cm.counts[i]])


def write_metrics_report(path, report: dict) -> None:
    """Write the report to a temporary file, then move it into place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _is_generation_report(report) -> bool:
    """An object with an integer generation and numbers for wa, ua and
    mean_ep_entropy, and for wa_clean and ua_clean if either is present."""
    if not isinstance(report, dict):
        return False
    keys = ["wa", "ua", "mean_ep_entropy"]
    if "wa_clean" in report or "ua_clean" in report:
        keys += ["wa_clean", "ua_clean"]
    return type(report.get("generation")) is int and all(
        type(report.get(key)) in (int, float) for key in keys)


def read_metrics_report(path, generation: int | None = None) -> dict:
    """A stored metrics report, checked before it is used: the report of
    `generation`, or without one a run's report of all its generations."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except ValueError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    numbers = ("with numbers for wa, ua and mean_ep_entropy "
               "(and for wa_clean and ua_clean if present)")
    if generation is not None:
        if not (_is_generation_report(report) and report["generation"] == generation):
            raise DataError(f"{path} is not the report of generation {generation} {numbers}")
    elif not (isinstance(report, dict) and isinstance(report.get("mode"), str)
              and isinstance(report.get("class_names"), list)
              and all(isinstance(name, str) for name in report["class_names"])
              and isinstance(report.get("generations"), list)
              and all(_is_generation_report(g) for g in report["generations"])):
        raise DataError(f"{path} is not a run's report: a mode, class_names and a "
                        f"list of generation reports {numbers}")
    return report
