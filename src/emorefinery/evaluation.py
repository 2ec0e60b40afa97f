"""Cross-validation fold planning and utterance-level accuracy metrics."""

import math
import warnings

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_json, write_csv, write_json


def kfold_split(utterance_ids, labels, k: int, seed: int, groups=None) -> np.ndarray:
    """Stratified seeded k-fold assignment: the fold of each utterance, by position.

    `labels` and `groups` are aligned with `utterance_ids`. With `groups`
    (e.g. speakers) all utterances sharing a key land in one fold; without,
    each utterance is its own group. A group's class is its majority label,
    ties to the lowest class index. Groups are shuffled within each class,
    then dealt round-robin with a rolling fold counter so fold sizes stay
    balanced across classes. The plan depends on the ids, not on their order.
    """
    if k < 2:
        raise ConfigError("fold count must be >= 2")
    ids = list(utterance_ids)
    if not ids:
        raise DataError("no utterances to split")
    labels = np.asarray(labels, dtype=np.int64)
    groups = ids if groups is None else list(groups)
    if not len(ids) == len(labels) == len(groups):
        raise DataError(f"{len(ids)} utterance ids for {len(labels)} labels "
                        f"and {len(groups)} groups")
    members = {}
    for i in sorted(range(len(ids)), key=ids.__getitem__):
        members.setdefault(groups[i], []).append(i)
    group_keys = sorted(members)
    if k > len(group_keys):
        raise ConfigError(f"{k} folds requested but only {len(group_keys)} groups available")

    by_class = {}
    for g in group_keys:
        by_class.setdefault(int(np.argmax(np.bincount(labels[members[g]]))), []).append(g)

    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(ids), dtype=np.int64)
    next_fold = 0
    for c in sorted(by_class):
        class_groups = by_class[c]
        for j in rng.permutation(len(class_groups)):
            fold_of[members[class_groups[j]]] = next_fold % k
            next_fold += 1
    return fold_of


def confusion_from_predictions(y_true, y_pred, class_names) -> np.ndarray:
    """(K, K) int64 counts with rows = true class, columns = predicted class."""
    k = len(class_names)
    y_true, y_pred = np.asarray(y_true, dtype=np.int64), np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise DataError("prediction and truth lists differ in length")
    bad = (y_true < 0) | (y_true >= k) | (y_pred < 0) | (y_pred >= k)
    if bad.any():
        i = np.argmax(bad)
        raise DataError(f"class index ({y_true[i]}, {y_pred[i]}) out of range for {k} classes")
    return np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k)


def weighted_accuracy(counts) -> float:
    """Overall accuracy: trace / total."""
    total = counts.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(counts) / total)


def unweighted_accuracy(counts, class_names) -> float:
    """Macro-averaged recall; classes with no samples are excluded with a warning."""
    row_sums = counts.sum(axis=1)
    present = row_sums > 0
    if not np.any(present):
        raise DataError("confusion matrix has no samples in any class")
    if not np.all(present):
        missing = [class_names[i] for i in np.flatnonzero(~present)]
        warnings.warn(f"classes with no samples excluded from UA: {missing}", RuntimeWarning)
    recalls = np.diag(counts)[present] / row_sums[present]
    return float(recalls.mean())


def write_confusion_csv(path, counts, class_names) -> None:
    """CSV with true classes as rows, predicted classes as columns."""
    write_csv(path, ["true"] + list(class_names),
              ([name] + row for name, row in zip(class_names, counts.tolist())))


def write_metrics_report(path, report: dict) -> None:
    """Write the report to a temporary file, then move it into place."""
    write_json(path, report)


def _is_generation_report(report) -> bool:
    """An object with an integer generation and finite numbers for wa, ua
    and mean_ep_entropy, and for wa_clean and ua_clean if either is present."""
    if not isinstance(report, dict):
        return False
    keys = ["wa", "ua", "mean_ep_entropy"]
    if "wa_clean" in report or "ua_clean" in report:
        keys += ["wa_clean", "ua_clean"]
    values = [report.get(key) for key in keys]
    return type(report.get("generation")) is int and all(
        type(v) is int or (type(v) is float and math.isfinite(v)) for v in values)


def read_metrics_report(path, generation: int | None = None) -> dict:
    """A stored metrics report, checked before it is used: the report of
    `generation`, or without one a run's report of all its generations."""
    report = read_json(path)
    numbers = ("with numbers for wa, ua and mean_ep_entropy "
               "(and for wa_clean and ua_clean if present)")
    if generation is not None:
        if not (_is_generation_report(report) and report["generation"] == generation):
            raise DataError(f"{path} is not the report of generation {generation} {numbers}")
    elif not (isinstance(report, dict) and isinstance(report.get("mode"), str)
              and isinstance(report.get("class_names"), list)
              and all(isinstance(name, str) for name in report["class_names"])
              and isinstance(report.get("generations"), list) and report["generations"]
              and all(_is_generation_report(g) for g in report["generations"])
              and [g["generation"] for g in report["generations"]]
              == list(range(1, len(report["generations"]) + 1))):
        raise DataError(f"{path} is not a run's report: a mode, class_names and a "
                        f"list of the reports of generations 1..n in order {numbers}")
    return report
