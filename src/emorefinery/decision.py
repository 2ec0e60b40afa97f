"""Random-forest utterance classifier over representation vectors.

CART trees with Gini-impurity splits on axis-aligned thresholds. Candidate
thresholds are midpoints of consecutive sorted distinct feature values;
samples with x <= threshold go left. Split ranking is exact: one vectorized
float pass over every candidate feature shortlists near-optimal cuts, then
integer cross-multiplication decides their order, so ties break
reproducibly by (impurity, lowest feature index, lowest threshold).
"""

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_features: int = 0  # 0 means floor(sqrt(d))
    max_depth: int = -1  # -1 means unlimited
    min_samples_split: int = 2
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.max_features < 0:
            raise ConfigError("max_features must be positive, or 0 for floor(sqrt(d))")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")
        if self.max_depth < -1:
            raise ConfigError("max_depth must be >= 0, or -1 for unlimited")

    def resolved_max_features(self, d: int) -> int:
        mf = int(np.sqrt(d)) if self.max_features == 0 else self.max_features
        if not 1 <= mf <= d:
            raise ConfigError(f"max_features {mf} outside 1..{d}")
        return mf


@dataclass
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (histogram)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    histogram: np.ndarray = None

    @property
    def is_leaf(self) -> bool:
        return self.histogram is not None


@dataclass(frozen=True)
class Forest:
    trees: tuple
    class_names: tuple
    n_features: int
    seed: int


def _as_matrix(X) -> np.ndarray:
    rows = [np.asarray(getattr(x, "features", x), dtype=np.float64) for x in X]
    return np.stack(rows)


def _check_finite(x: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{what} {row} holds the non-finite value {x[row, col]} "
                        f"at feature {col}")


def _best_split(x, rows, y, k, features):
    """Exact Gini-optimal (feature, threshold) over x[rows], or None if nothing improves.

    Minimizing weighted child impurity equals maximizing
    T = A/n_l + B/n_r = (A*n_r + B*n_l) / (n_l*n_r), where A and B are the
    sums of squared class counts left and right of the cut. One float pass
    scores every (cut, feature) pair at once; the pairs near its maximum are
    then ranked exactly by cross-multiplying Python ints, in (feature, cut)
    order, so the first of equal candidates wins.
    """
    n = y.size
    feats = np.sort(features)
    xf = x[rows[:, None], feats]
    order = np.argsort(xf, axis=0, kind="stable")
    xs = xf[order, np.arange(feats.size)]
    left = np.cumsum(y[order[:-1]][:, :, None] == np.arange(k), axis=0, dtype=np.int64)
    total = np.bincount(y, minlength=k)
    a = (left ** 2).sum(axis=2)
    b = ((total - left) ** 2).sum(axis=2)
    n_left = np.arange(1, n, dtype=np.int64)[:, None]
    t_float = a / n_left + b / (n - n_left)
    t_float[xs[:-1] == xs[1:]] = -np.inf
    top = t_float.max()
    if top == -np.inf:
        return None
    cols, cuts = np.nonzero(t_float.T >= top - 1e-9 * max(1.0, top))
    best = None  # (numerator, denominator, column, cut) of T
    for j, c, a_c, b_c in zip(cols.tolist(), cuts.tolist(),
                              a[cuts, cols].tolist(), b[cuts, cols].tolist()):
        n_l, n_r = c + 1, n - c - 1
        num, den = a_c * n_r + b_c * n_l, n_l * n_r
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, j, c)
    num, den, j, c = best
    if num * n <= int((total ** 2).sum()) * den:
        return None
    # The midpoint can round onto hi or overflow; a threshold outside
    # [lo, hi) would send every sample to one side.
    lo, hi = float(xs[c, j]), float(xs[c + 1, j])
    mid = (lo + hi) / 2
    return int(feats[j]), mid if lo <= mid < hi else lo


def _grow(x, labels, rows, k, mf: int, cfg: ForestConfig, rng, depth: int) -> TreeNode:
    """Tree over the samples x[rows]; `rows` keeps their order, repeats included."""
    y = labels[rows]
    counts = np.bincount(y, minlength=k)
    if (np.count_nonzero(counts) <= 1 or rows.size < cfg.min_samples_split
            or depth == cfg.max_depth):
        return TreeNode(histogram=counts)
    d = x.shape[1]
    features = np.arange(d) if mf == d else rng.choice(d, size=mf, replace=False)
    split = _best_split(x, rows, y, k, features)
    if split is None:
        return TreeNode(histogram=counts)
    feature, threshold = split
    mask = x[rows, feature] <= threshold
    return TreeNode(feature=feature, threshold=threshold,
                    left=_grow(x, labels, rows[mask], k, mf, cfg, rng, depth + 1),
                    right=_grow(x, labels, rows[~mask], k, mf, cfg, rng, depth + 1))


def train_forest(X, y, cfg: ForestConfig, class_names) -> Forest:
    """Grow n_trees CART trees, each on a bootstrap resample when enabled."""
    names = tuple(class_names)
    if len(X) == 0:
        raise DataError("cannot train a forest on no samples")
    if len(X) != len(y):
        raise DataError("features and labels differ in length")
    x = _as_matrix(X)
    _check_finite(x, "training sample")
    labels = np.asarray(y, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= len(names)):
        raise DataError(f"labels must lie in 0..{len(names) - 1}")
    if len(set(labels.tolist())) == 1:
        warnings.warn(f"single-class training set; forest degenerates to always "
                      f"predicting {names[labels[0]]!r}", RuntimeWarning)
    mf = cfg.resolved_max_features(x.shape[1])

    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        n = x.shape[0]
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        trees.append(_grow(x, labels, rows, len(names), mf, cfg, rng, 0))
    return Forest(trees=tuple(trees), class_names=names, n_features=x.shape[1], seed=cfg.seed)


def _leaf(node: TreeNode, row: list) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def predict_forest(forest: Forest, x):
    """Plurality vote over tree votes; ties break to the lowest class index.

    `x` is one feature vector, giving one class index, or an (n, d) matrix
    of them, giving an int64 array of n class indices. Rows walk the trees
    as Python floats, which is cheaper than numpy index arrays at the few
    dozen rows one evaluation fold holds; the votes are tallied at once.
    """
    rows = np.asarray(getattr(x, "features", x), dtype=np.float64)
    if rows.ndim not in (1, 2) or rows.shape[-1] != forest.n_features:
        raise DataError(f"features have shape {rows.shape}, expected "
                        f"({forest.n_features},) or (rows, {forest.n_features})")
    matrix = rows.reshape(-1, forest.n_features)
    _check_finite(matrix, "input row")
    leaf_classes = np.array([[_leaf(tree, row).histogram.argmax() for tree in forest.trees]
                             for row in matrix.tolist()], dtype=np.int64)
    votes = (leaf_classes.reshape(len(matrix), len(forest.trees))[:, :, None]
             == np.arange(len(forest.class_names))).sum(axis=1)
    winners = np.argmax(votes, axis=1)
    return int(winners[0]) if rows.ndim == 1 else winners


def predict_forest_batch(forest: Forest, X) -> np.ndarray:
    """Class index for each of a sequence of feature vectors or representations."""
    if len(X) == 0:
        return np.zeros(0, dtype=np.int64)
    return predict_forest(forest, _as_matrix(X))


def write_predictions_csv(path, records) -> None:
    """Rows of (utterance_id, true class name, predicted class name)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utterance_id", "true", "pred"])
        for uid, true_name, pred_name in records:
            writer.writerow([uid, true_name, pred_name])


def read_predictions_csv(path) -> list:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["utterance_id", "true", "pred"]:
        raise DataError(f"{path} is not a predictions CSV")
    return [tuple(row) for row in rows[1:]]
