"""Forest tests: an exhaustive split-search oracle, a property test against
the first Fraction-ranked implementation, determinism, voting and
degenerate cases."""

import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorefinery import decision
from emorefinery.decision import (
    Forest,
    ForestConfig,
    TreeNode,
    predict_forest,
    train_forest,
)
from emorefinery.errors import ConfigError, DataError

NAMES3 = ("a", "b", "c")
EPS = np.finfo(np.float64).eps


# --- independent oracle: exhaustive split enumeration with exact rationals ---

def oracle_gini(y, k):
    counts = np.bincount(y, minlength=k)
    return 1 - Fraction(int(np.sum(counts ** 2)), int(len(y)) ** 2)


def oracle_best_split(x, y, k):
    parent = oracle_gini(y, k)
    n = len(y)
    best = None  # (weighted impurity, feature, threshold)
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            mask = x[:, f] <= thr
            n_l = int(mask.sum())
            imp = (n_l * oracle_gini(y[mask], k)
                   + (n - n_l) * oracle_gini(y[~mask], k)) / n
            cand = (imp, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None or not best[0] < parent:
        return None
    return best[1], best[2]


def oracle_grow(x, y, k, depth, max_depth, min_samples_split=2):
    counts = np.bincount(y, minlength=k)
    if (np.count_nonzero(counts) <= 1 or len(y) < min_samples_split
            or depth == max_depth):
        return ("leaf", counts)
    split = oracle_best_split(x, y, k)
    if split is None:
        return ("leaf", counts)
    f, thr = split
    mask = x[:, f] <= thr
    return ("node", f, thr,
            oracle_grow(x[mask], y[mask], k, depth + 1, max_depth, min_samples_split),
            oracle_grow(x[~mask], y[~mask], k, depth + 1, max_depth, min_samples_split))


def assert_same_tree(node: TreeNode, oracle):
    if oracle[0] == "leaf":
        assert node.is_leaf
        np.testing.assert_array_equal(node.histogram, oracle[1])
        return
    assert not node.is_leaf
    assert node.feature == oracle[1]
    assert node.threshold == oracle[2]
    assert_same_tree(node.left, oracle[3])
    assert_same_tree(node.right, oracle[4])


def single_tree_config(**kw):
    args = dict(n_trees=1, bootstrap=False, max_features=0)
    args.update(kw)
    return ForestConfig(**args)


def tree_signature(node: TreeNode):
    """A tree as nested tuples: leaf histograms, and for each split its
    feature and the bit pattern of its threshold."""
    if node.is_leaf:
        return tuple(int(v) for v in node.histogram)
    return (node.feature, struct.pack("<d", node.threshold),
            tree_signature(node.left), tree_signature(node.right))


# --- reference: the first implementation, one feature at a time with
# Fraction ranking; the vectorized split search must grow the same trees ---

def reference_purity_sum(counts):
    n = int(counts.sum())
    return Fraction(int(np.sum(counts.astype(object) ** 2)), n)


def reference_best_split(x, y, k, features):
    n = y.size
    parent_t = reference_purity_sum(np.bincount(y, minlength=k))
    best = None  # (T: Fraction, feature, threshold)
    for f in sorted(int(v) for v in features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cuts = np.flatnonzero(xs[:-1] != xs[1:])
        if cuts.size == 0:
            continue
        onehot = np.zeros((n, k), dtype=np.int64)
        onehot[np.arange(n), y[order]] = 1
        left = np.cumsum(onehot, axis=0)[cuts]
        right = np.bincount(y, minlength=k) - left
        n_left = (cuts + 1).astype(np.int64)
        n_right = n - n_left
        t_float = (left ** 2).sum(axis=1) / n_left + (right ** 2).sum(axis=1) / n_right
        shortlist = np.flatnonzero(t_float >= t_float.max() - 1e-9 * max(1.0, t_float.max()))
        for i in shortlist:
            t_exact = (Fraction(int((left[i] ** 2).sum()), int(n_left[i]))
                       + Fraction(int((right[i] ** 2).sum()), int(n_right[i])))
            threshold = (xs[cuts[i]] + xs[cuts[i] + 1]) / 2
            if (best is None or t_exact > best[0]
                    or (t_exact == best[0] and (f, threshold) < (best[1], best[2]))):
                best = (t_exact, f, threshold)
    if best is None or best[0] <= parent_t:
        return None
    return best[1], best[2]


def reference_grow(x, y, k, cfg, rng, depth):
    counts = np.bincount(y, minlength=k)
    n, d = x.shape
    if (np.count_nonzero(counts) <= 1 or n < cfg.min_samples_split
            or depth == cfg.max_depth):
        return TreeNode(histogram=counts)
    mf = cfg.resolved_max_features(d)
    features = np.arange(d) if mf == d else rng.choice(d, size=mf, replace=False)
    split = reference_best_split(x, y, k, features)
    if split is None:
        return TreeNode(histogram=counts)
    feature, threshold = split
    mask = x[:, feature] <= threshold
    return TreeNode(feature=feature, threshold=threshold,
                    left=reference_grow(x[mask], y[mask], k, cfg, rng, depth + 1),
                    right=reference_grow(x[~mask], y[~mask], k, cfg, rng, depth + 1))


def reference_trees(x, y, k, cfg, seed):
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        if cfg.bootstrap:
            idx = rng.integers(0, x.shape[0], size=x.shape[0])
            trees.append(reference_grow(x[idx], y[idx], k, cfg, rng, 0))
        else:
            trees.append(reference_grow(x, y, k, cfg, rng, 0))
    return trees


# Column kinds: coarse grids tie often, signed zeros compare equal but differ
# in bits, constant columns have no cut, eighths are exact and spread out.
COLUMN_VALUES = {
    "grid": st.integers(0, 3).map(float),
    "signed_zero": st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
    "eighths": st.integers(-400, 400).map(lambda v: v / 8),
}


@st.composite
def forest_cases(draw):
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(2, 6))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(sorted(COLUMN_VALUES) + ["constant"]))
        if kind == "constant":
            columns.append([draw(COLUMN_VALUES["eighths"])] * n)
        else:
            columns.append(draw(st.lists(COLUMN_VALUES[kind], min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    cfg = ForestConfig(n_trees=draw(st.integers(1, 8)),
                       max_features=draw(st.integers(0, d)),
                       max_depth=draw(st.integers(-1, 5)),
                       min_samples_split=draw(st.integers(2, 5)),
                       bootstrap=draw(st.booleans()))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.array(columns, dtype=np.float64).T, np.array(y, dtype=np.int64), k, cfg, seed


class TestReferenceEquivalence:
    # Forests of several trees put nodes of different trees and sizes into
    # one split-search step.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(forest_cases())
    def test_trees_match_reference_node_for_node(self, case):
        x, y, k, cfg, seed = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # single-class draws
            forest = train_forest(x, y, cfg, tuple("abcdef")[:k], seed)
        assert ([tree_signature(t) for t in forest.trees]
                == [tree_signature(t) for t in reference_trees(x, y, k, cfg, seed)])

    # A small row budget splits the steps, down to one node per step; a step
    # passes the budget only when it holds a single node.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(forest_cases(), st.integers(1, 100))
    def test_split_steps_match_reference_node_for_node(self, case, step_rows):
        x, y, k, cfg, seed = case
        steps = []
        search = decision._best_splits

        def recording_search(x, ranks, labels, rows, sizes, features, hists):
            steps.append((sizes.size, int(sizes.sum()) * features.shape[1]))
            return search(x, ranks, labels, rows, sizes, features, hists)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(decision, "_STEP_ROWS", step_rows)
            mp.setattr(decision, "_best_splits", recording_search)
            warnings.simplefilter("ignore", RuntimeWarning)  # single-class draws
            forest = train_forest(x, y, cfg, tuple("abcdef")[:k], seed)
        assert all(nodes == 1 or laid <= step_rows for nodes, laid in steps)
        assert ([tree_signature(t) for t in forest.trees]
                == [tree_signature(t) for t in reference_trees(x, y, k, cfg, seed)])


class TestOracleEquivalence:
    def test_four_separable_points(self):
        x = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.1], [1.2, 0.9]])
        y = [0, 0, 1, 1]
        cfg = single_tree_config(max_features=2)
        forest = train_forest(x, y, cfg, ("a", "b"), 0)
        assert predict_forest(forest, x).tolist() == y
        assert_same_tree(forest.trees[0], oracle_grow(x, np.array(y), 2, 0, -1))

    def test_random_small_datasets_match_oracle(self):
        rng = np.random.default_rng(101)
        for trial in range(25):
            n = int(rng.integers(5, 31))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            x = rng.uniform(0, 1, (n, d))
            y = rng.integers(0, k, n)
            if len(set(y.tolist())) < 2:
                continue
            cfg = single_tree_config(max_features=d, max_depth=2)
            forest = train_forest(x, y, cfg, tuple("abc")[:k], 0)
            assert_same_tree(forest.trees[0], oracle_grow(x, y, k, 0, 2))

    def test_tied_splits_match_oracle(self):
        # duplicated feature columns force exact impurity ties; the lowest
        # feature index must win in both routes
        rng = np.random.default_rng(102)
        for _ in range(10):
            n = int(rng.integers(6, 20))
            base = rng.integers(0, 4, n).astype(np.float64)
            x = np.stack([base, base, rng.uniform(0, 4, n)], axis=1)
            y = rng.integers(0, 3, n)
            if len(set(y.tolist())) < 2:
                continue
            cfg = single_tree_config(max_features=3, max_depth=2)
            forest = train_forest(x, y, cfg, NAMES3, 0)
            assert_same_tree(forest.trees[0], oracle_grow(x, y, 3, 0, 2))


class TestTraining:
    def test_full_depth_memorizes_consistent_data(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (40, 5))
        y = rng.integers(0, 3, 40)
        forest = train_forest(x, y, single_tree_config(max_features=5), NAMES3, 0)
        assert (predict_forest(forest, x) == y).all()

    def test_chain_deeper_than_the_recursion_limit(self):
        # Alternating labels on one feature: each split cuts one sample off
        # an end, so the tree is a chain 1,499 splits deep.
        x = np.arange(1500, dtype=np.float64)[:, None]
        y = np.arange(1500) % 2
        forest = train_forest(x, y, single_tree_config(max_features=1), ("a", "b"), 0)
        deepest, stack = 0, [(forest.trees[0], 0)]
        while stack:
            node, depth = stack.pop()
            deepest = max(deepest, depth)
            if not node.is_leaf:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        assert deepest == 1499
        assert predict_forest(forest, x).tolist() == y.tolist()

    def test_impurity_strictly_decreases_along_tree(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (60, 4))
        y = rng.integers(0, 3, 60)
        forest = train_forest(x, y, single_tree_config(max_features=4), NAMES3, 0)

        def walk(node, x_node, y_node):
            if node.is_leaf:
                return
            parent = oracle_gini(y_node, 3)
            mask = x_node[:, node.feature] <= node.threshold
            n = len(y_node)
            child = (int(mask.sum()) * oracle_gini(y_node[mask], 3)
                     + int((~mask).sum()) * oracle_gini(y_node[~mask], 3)) / n
            assert child < parent
            walk(node.left, x_node[mask], y_node[mask])
            walk(node.right, x_node[~mask], y_node[~mask])

        walk(forest.trees[0], x, y)

    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (30, 6))
        y = rng.integers(0, 3, 30)
        probe = rng.uniform(0, 1, (10, 6))
        cfg = ForestConfig(n_trees=15)
        f1 = train_forest(x, y, cfg, NAMES3, 5)
        f2 = train_forest(x, y, cfg, NAMES3, 5)
        np.testing.assert_array_equal(predict_forest(f1, probe),
                                      predict_forest(f2, probe))

    def test_different_seed_differs(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (40, 6))
        y = rng.integers(0, 3, 40)
        f1 = train_forest(x, y, ForestConfig(n_trees=10), NAMES3, 1)
        f2 = train_forest(x, y, ForestConfig(n_trees=10), NAMES3, 2)
        assert [tree_signature(t) for t in f1.trees] != [tree_signature(t) for t in f2.trees]

    def test_single_class_degenerates_with_warning(self):
        x = np.random.default_rng(11).uniform(0, 1, (8, 3))
        with pytest.warns(RuntimeWarning, match="single-class"):
            forest = train_forest(x, [1] * 8, ForestConfig(n_trees=5), NAMES3, 0)
        assert predict_forest(forest, x[:1]).tolist() == [1]

    def test_depth_zero_predicts_majority(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (12, 3))
        y = [0] * 3 + [1] * 7 + [2] * 2
        forest = train_forest(x, y, single_tree_config(max_depth=0, max_features=3), NAMES3, 0)
        assert forest.trees[0].is_leaf
        assert predict_forest(forest, x[:1]).tolist() == [1]

    @pytest.mark.parametrize("values, threshold", [
        # (1+e + 1+2e)/2 rounds up onto 1+2e
        ([1.0, 1.0 + EPS, 1.0 + 2 * EPS, 1.0 + 2 * EPS], 1.0 + EPS),
        # the sum overflows to inf, or to -inf
        ([1.7e308, 1.75e308], 1.7e308),
        ([-1.75e308, -1.7e308], -1.75e308),
    ])
    def test_midpoint_outside_the_gap_falls_back_to_lower_value(self, values, threshold):
        x = np.array(values)[:, None]
        y = [0] * (len(values) // 2) + [1] * (len(values) - len(values) // 2)
        forest = train_forest(x, y, single_tree_config(), ("a", "b"), 0)
        root = forest.trees[0]
        assert root.threshold == threshold
        assert root.left.is_leaf and root.right.is_leaf
        assert predict_forest(forest, x).tolist() == y

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.array([[0.0], [bad], [1.0], [2.0]])
        with pytest.raises(DataError, match="sample 1 holds the non-finite value"):
            train_forest(x, [0, 0, 1, 1], single_tree_config(), ("a", "b"), 0)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            train_forest([], [], ForestConfig(), NAMES3, 0)

    @pytest.mark.parametrize("labels", [[0, 1, 3], [0, 1, 4], [-1, 0, 1]])
    def test_label_outside_the_class_table_rejected(self, labels):
        with pytest.raises(DataError) as err:
            train_forest(np.zeros((3, 2)), labels, ForestConfig(), NAMES3, 0)
        assert str(err.value) == "labels must lie in 0..2"

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            train_forest(np.zeros((3, 2)), [0, 1], ForestConfig(), NAMES3, 0)

    def test_default_max_features_is_sqrt(self):
        assert ForestConfig().resolved_max_features(30) == 5
        assert ForestConfig().resolved_max_features(25) == 5
        assert ForestConfig(max_features=7).resolved_max_features(10) == 7
        with pytest.raises(ConfigError):
            ForestConfig(max_features=11).resolved_max_features(10)

    def test_separable_blobs(self):
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        x = np.concatenate([centers[c] + 0.3 * rng.standard_normal((20, 2))
                            for c in range(3)])
        y = np.repeat(np.arange(3), 20)
        forest = train_forest(x, y, ForestConfig(n_trees=25), NAMES3, 3)
        acc = (predict_forest(forest, x) == y).mean()
        assert acc >= 0.95


class TestVoting:
    def leaf_forest(self, histograms):
        trees = tuple(TreeNode(histogram=np.asarray(h)) for h in histograms)
        return Forest(trees=trees, class_names=NAMES3, n_features=2)

    def test_plurality(self):
        forest = self.leaf_forest([[5, 0, 0], [3, 1, 0], [0, 4, 0]])
        # votes: a, a, b
        assert predict_forest(forest, np.zeros((1, 2))).tolist() == [0]

    def test_tie_breaks_to_lowest_class(self):
        forest = self.leaf_forest([[1, 0, 0], [0, 0, 2]])
        # one vote each for a and c
        assert predict_forest(forest, np.zeros((3, 2))).tolist() == [0, 0, 0]

    def test_batch_matches_row_by_row(self):
        rng = np.random.default_rng(16)
        x = rng.integers(0, 3, (40, 5)).astype(np.float64)
        y = rng.integers(0, 3, 40)
        forest = train_forest(x, y, ForestConfig(n_trees=9), NAMES3, 6)
        probe = np.concatenate([x, rng.integers(-1, 4, (30, 5)).astype(np.float64)])
        batch = predict_forest(forest, probe)
        assert batch.dtype == np.int64
        assert batch.tolist() == [predict_forest(forest, row[None])[0] for row in probe]
        assert predict_forest(forest, probe[:0]).tolist() == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        forest = self.leaf_forest([[1, 0, 0]])
        with pytest.raises(DataError, match="row 0 holds the non-finite value"):
            predict_forest(forest, np.array([[0.0, bad]]))
        with pytest.raises(DataError, match="row 2 holds the non-finite value"):
            predict_forest(forest, np.array([[0.0, 0.0], [1.0, 1.0], [bad, 0.0]]))

    def test_identical_trees_vote_unanimously(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, (20, 4))
        y = rng.integers(0, 3, 20)
        single = train_forest(x, y, single_tree_config(max_features=4), NAMES3, 0)
        many = train_forest(x, y, single_tree_config(n_trees=7, max_features=4), NAMES3, 0)
        probe = rng.uniform(0, 1, (15, 4))
        np.testing.assert_array_equal(predict_forest(single, probe),
                                      predict_forest(many, probe))

    def test_dimension_mismatch_rejected(self):
        forest = self.leaf_forest([[1, 0, 0]])
        with pytest.raises(DataError, match="shape"):
            predict_forest(forest, np.zeros((1, 5)))
        # One row must come as a matrix of one row too.
        with pytest.raises(DataError, match="shape"):
            predict_forest(forest, np.zeros(2))

