"""Random-forest utterance classifier over representation vectors.

CART trees with Gini-impurity splits on axis-aligned thresholds. Candidate
thresholds are midpoints of consecutive sorted distinct feature values;
samples with x <= threshold go left. Split ranking is exact: one vectorized
float pass over every candidate feature shortlists near-optimal cuts, then
integer cross-multiplication decides their order, so ties break
reproducibly by (impurity, lowest feature index, lowest threshold).

A forest's trees grow in lockstep, without recursion. Each tree keeps an
explicit depth-first stack and its own rng; a step takes from every
unfinished tree the next node that needs a split, closing leaves on the
way, and one split search serves all of the step's nodes, their rows laid
end to end. The rng of a tree draws its nodes' candidate features in
depth-first preorder, so each tree is the one a recursive grower would
build. A step stops taking nodes once their (node, feature) rows would
pass _STEP_ROWS, and always takes one, which bounds its temporaries
however many trees and samples the forest has.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_csv


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_features: int = 0  # 0 means floor(sqrt(d))
    max_depth: int = -1  # -1 means unlimited
    min_samples_split: int = 2
    bootstrap: bool = True

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


def _check_finite(x: np.ndarray, what: str) -> None:
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{what} {row} holds the non-finite value {x[row, col]} "
                        f"at feature {col}")


# Rows of (node, feature) segments one split-search step may lay end to end:
# the step's temporaries grow with this count, times the number of classes.
_STEP_ROWS = 1 << 16


def _column_ranks(x: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its column; equal values share a rank."""
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    steps = np.zeros(x.shape, dtype=np.int64)
    steps[1:] = xs[1:] != xs[:-1]  # -0.0 and 0.0 compare equal
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _best_splits(x, ranks, labels, rows, sizes, features, hists):
    """Exact Gini-optimal (feature, threshold), or None, for each node of one step.

    Node i holds the samples rows[i-th slice of `sizes`], the class counts
    hists[i] and the sorted candidate columns features[i]. Each (node,
    feature) pair is one segment of the laid-out samples, stably sorted by
    value within the segment. Minimizing weighted child impurity equals
    maximizing T = A/n_l + B/n_r = (A*n_r + B*n_l) / (n_l*n_r), where A and
    B are the sums of squared class counts left and right of the cut. A
    grows by 2c+1 with each sample, c being the samples of its class already
    left of the cut, and B = P - 2S + A, where P is the node's sum of squared
    class counts and S sums, over the samples left of the cut, the node's
    count of each one's class. One float pass scores every cut; the cuts near
    each node's maximum are then ranked exactly by cross-multiplying Python
    ints, in (feature, cut) order, so the first of equal candidates wins.
    """
    m, mf = features.shape
    k = hists.shape[1]
    seg_len = np.repeat(sizes, mf)
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(m * mf), seg_len)
    at = np.arange(seg.size)
    local = at - seg_start[seg]
    sample = rows[np.repeat(np.cumsum(sizes) - sizes, mf)[seg] + local]
    rank = ranks[sample, features.ravel()[seg]]
    order = np.argsort(seg * x.shape[0] + rank, kind="stable")
    sample, rank = sample[order], rank[order]
    y = labels[sample]

    # Running counts over the whole layout with a leading zero; a segment's
    # own counts are differences against its start.
    seen = np.zeros((k, seg.size + 1), dtype=np.int64)
    np.cumsum(y == np.arange(k)[:, None], axis=1, out=seen[:, 1:])
    earlier = seen[y, at] - seen[y, seg_start[seg]]
    node = seg // mf
    run = np.zeros((2, seg.size + 1), dtype=np.int64)
    np.cumsum(2 * earlier + 1, out=run[0, 1:])
    np.cumsum(hists[node, y], out=run[1, 1:])

    cut = np.flatnonzero(local < seg_len[seg] - 1)  # a cut after each of these
    base = seg_start[seg[cut]]
    a = run[0, cut + 1] - run[0, base]
    parent_sq = (hists ** 2).sum(axis=1)
    b = parent_sq[node[cut]] - 2 * (run[1, cut + 1] - run[1, base]) + a
    n_left = local[cut] + 1
    n_right = seg_len[seg[cut]] - n_left
    t_float = a / n_left + b / n_right
    t_float[rank[cut] == rank[cut + 1]] = -np.inf
    node_cuts = (sizes - 1) * mf
    top = np.maximum.reduceat(t_float, np.cumsum(node_cuts) - node_cuts)
    floor = np.where(top == -np.inf, np.inf, top - 1e-9 * np.maximum(1.0, top))
    shortlist = np.flatnonzero(t_float >= np.repeat(floor, node_cuts))

    best = [None] * m  # per node: (numerator, denominator, layout position) of T
    for i, p, a_c, b_c, n_l, n_r in zip(
            node[cut[shortlist]].tolist(), cut[shortlist].tolist(), a[shortlist].tolist(),
            b[shortlist].tolist(), n_left[shortlist].tolist(), n_right[shortlist].tolist()):
        num, den = a_c * n_r + b_c * n_l, n_l * n_r
        if best[i] is None or num * best[i][1] > best[i][0] * den:
            best[i] = (num, den, p)
    splits = []
    for i, (n, psq, found) in enumerate(zip(sizes.tolist(), parent_sq.tolist(), best)):
        if found is None or found[0] * n <= psq * found[1]:
            splits.append(None)
            continue
        p = found[2]
        feature = int(features[i, seg[p] % mf])
        # The midpoint can round onto hi or overflow; a threshold outside
        # [lo, hi) would send every sample to one side.
        lo, hi = float(x[sample[p], feature]), float(x[sample[p + 1], feature])
        mid = (lo + hi) / 2
        splits.append((feature, mid if lo <= mid < hi else lo))
    return splits


def _needs_split(entry, cfg: ForestConfig) -> bool:
    _, rows, _, present, depth = entry
    return present > 1 and rows.size >= cfg.min_samples_split and depth != cfg.max_depth


def _grow_in_lockstep(x, labels, k, mf: int, cfg: ForestConfig, stacks, rngs) -> None:
    """Grow every tree from its depth-first stack, one split search per step.

    A stack entry is (node, rows, histogram, classes present, depth): the
    node is filled in place, `rows` indexes its samples in order, repeats
    included. Each step takes from every unfinished tree the next node that
    needs a split, closing leaves on the way, until the step's segments
    would pass _STEP_ROWS; it always takes one. A tree's rng draws its
    nodes' features in depth-first preorder, as a recursive grower would.
    """
    d = x.shape[1]
    ranks = _column_ranks(x)
    live = list(range(len(stacks)))
    while live:
        taken = []  # (stack, node, rows, histogram, depth, features)
        laid = 0
        for t in live:
            stack = stacks[t]
            while stack and not _needs_split(stack[-1], cfg):
                node, _, hist, _, _ = stack.pop()
                node.histogram = hist
            if not stack:
                continue
            size = stack[-1][1].size * mf
            if taken and laid + size > _STEP_ROWS:
                break
            node, rows, hist, _, depth = stack.pop()
            features = np.arange(d) if mf == d else rngs[t].choice(d, size=mf, replace=False)
            taken.append((stack, node, rows, hist, depth, features))
            laid += size
        if taken:
            _split_step(x, ranks, labels, k, taken)
        live = [t for t in live if stacks[t]]


def _split_step(x, ranks, labels, k, taken) -> None:
    """One split search over the nodes `taken`; push the children of each split."""
    m = len(taken)
    sizes = np.array([entry[2].size for entry in taken])
    rows = np.concatenate([entry[2] for entry in taken])
    features = np.sort(np.array([entry[5] for entry in taken]), axis=1)
    splits = _best_splits(x, ranks, labels, rows, sizes, features,
                          np.array([entry[3] for entry in taken]))

    node_of_row = np.repeat(np.arange(m), sizes)
    columns = np.array([s[0] if s else 0 for s in splits])
    thresholds = np.array([s[1] if s else 0.0 for s in splits])
    child = 2 * node_of_row + (x[rows, columns[node_of_row]] > thresholds[node_of_row])
    child_rows = rows[np.argsort(child, kind="stable")]
    hists = np.bincount(child * k + labels[rows], minlength=2 * m * k).reshape(2 * m, k)
    present = np.count_nonzero(hists, axis=1).tolist()
    ends = np.cumsum(hists.sum(axis=1)).tolist()
    for i, ((stack, node, _, hist, depth, _), split) in enumerate(zip(taken, splits)):
        if split is None:
            node.histogram = hist
            continue
        node.feature, node.threshold = split
        node.left, node.right = TreeNode(), TreeNode()
        lo, mid, hi = (ends[2 * i - 1] if i else 0), ends[2 * i], ends[2 * i + 1]
        stack.append((node.right, child_rows[mid:hi], hists[2 * i + 1], present[2 * i + 1],
                      depth + 1))
        stack.append((node.left, child_rows[lo:mid], hists[2 * i], present[2 * i], depth + 1))


def train_forest(X, y, cfg: ForestConfig, class_names, seed: int) -> Forest:
    """Grow n_trees CART trees, each on a bootstrap resample when enabled;
    tree t draws from the seed sequence [seed, t]."""
    names = tuple(class_names)
    if len(X) == 0:
        raise DataError("cannot train a forest on no samples")
    if len(X) != len(y):
        raise DataError("features and labels differ in length")
    x = np.asarray(X, dtype=np.float64)
    _check_finite(x, "training sample")
    labels = np.asarray(y, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= len(names)):
        raise DataError(f"labels must lie in 0..{len(names) - 1}")
    if len(set(labels.tolist())) == 1:
        warnings.warn(f"single-class training set; forest degenerates to always "
                      f"predicting {names[labels[0]]!r}", RuntimeWarning)
    mf = cfg.resolved_max_features(x.shape[1])

    n, k = x.shape[0], len(names)
    trees, stacks, rngs = [], [], []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        hist = np.bincount(labels[rows], minlength=k)
        trees.append(TreeNode())
        stacks.append([(trees[-1], rows, hist, int(np.count_nonzero(hist)), 0)])
        rngs.append(rng)
    _grow_in_lockstep(x, labels, k, mf, cfg, stacks, rngs)
    return Forest(trees=tuple(trees), class_names=names, n_features=x.shape[1])


def _leaf(node: TreeNode, row: list) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def predict_forest(forest: Forest, x) -> np.ndarray:
    """Plurality vote over tree votes; ties break to the lowest class index.

    `x` is an (n, d) matrix of feature rows; returns an int64 array of n
    class indices. Rows walk the trees as Python floats, which is cheaper
    than numpy index arrays at the few dozen rows one evaluation fold
    holds; the votes are tallied at once.
    """
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != forest.n_features:
        raise DataError(f"features have shape {rows.shape}, expected (rows, {forest.n_features})")
    _check_finite(rows, "input row")
    leaf_classes = np.array([[_leaf(tree, row).histogram.argmax() for tree in forest.trees]
                             for row in rows.tolist()], dtype=np.int64)
    votes = (leaf_classes.reshape(len(rows), len(forest.trees))[:, :, None]
             == np.arange(len(forest.class_names))).sum(axis=1)
    return np.argmax(votes, axis=1)


def write_predictions_csv(path, records) -> None:
    """Rows of (utterance_id, true class name, predicted class name)."""
    write_csv(path, ["utterance_id", "true", "pred"], records)
