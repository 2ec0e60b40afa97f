"""Fold-plan and metrics tests with hand-counted expected values."""

import re

import numpy as np
import pytest

from emorefinery.errors import ConfigError, DataError
from emorefinery.evaluation import (
    confusion_from_predictions,
    kfold_split,
    read_metrics_report,
    unweighted_accuracy,
    weighted_accuracy,
    write_confusion_csv,
    write_metrics_report,
)


def balanced_labels(n_classes, per_class):
    """(ids, labels) of per_class utterances of each class."""
    ids = [f"u{c}_{i}" for c in range(n_classes) for i in range(per_class)]
    return ids, np.repeat(np.arange(n_classes), per_class)


class TestKFoldSplit:
    def test_singleton_folds(self):
        fold_of = kfold_split([f"u{i}" for i in range(10)], np.arange(10) % 2, k=10, seed=0)
        assert np.bincount(fold_of).tolist() == [1] * 10

    def test_balanced_stratification(self):
        ids, labels = balanced_labels(4, 25)
        fold_of = kfold_split(ids, labels, k=10, seed=7)
        for f in range(10):
            assert np.count_nonzero(fold_of == f) == 10
            assert np.bincount(labels[fold_of == f], minlength=4).min() >= 2

    def test_partition(self):
        ids, labels = balanced_labels(3, 7)
        fold_of = kfold_split(ids, labels, k=4, seed=3)
        assert fold_of.dtype == np.int64 and fold_of.shape == (21,)
        assert set(fold_of.tolist()) == set(range(4))

    def test_same_seed_identical(self):
        ids, labels = balanced_labels(4, 10)
        np.testing.assert_array_equal(kfold_split(ids, labels, k=5, seed=42),
                                      kfold_split(ids, labels, k=5, seed=42))

    def test_different_seed_differs(self):
        ids, labels = balanced_labels(4, 10)
        assert not np.array_equal(kfold_split(ids, labels, k=5, seed=1),
                                  kfold_split(ids, labels, k=5, seed=2))

    def test_speaker_grouping(self):
        ids = [f"spk{s}_utt{i}" for s in range(6) for i in range(4)]
        labels = np.repeat(np.arange(6) % 3, 4)
        speakers = [u.split("_")[0] for u in ids]
        fold_of = kfold_split(ids, labels, k=3, seed=5, groups=speakers)
        for s in range(6):
            assert len(set(fold_of[4 * s:4 * s + 4].tolist())) == 1

    def test_plan_follows_ids_not_positions(self):
        ids, labels = balanced_labels(3, 6)
        speakers = [f"s{i % 4}" for i in range(len(ids))]
        perm = np.random.default_rng(0).permutation(len(ids))
        for groups in (None, speakers):
            fold_of = kfold_split(ids, labels, k=3, seed=9, groups=groups)
            permuted = kfold_split([ids[i] for i in perm], labels[perm], k=3, seed=9,
                                   groups=None if groups is None else [groups[i] for i in perm])
            np.testing.assert_array_equal(permuted, fold_of[perm])

    def test_too_many_folds(self):
        with pytest.raises(ConfigError, match="folds"):
            kfold_split(["a", "b"], [0, 1], k=3, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            kfold_split(["a", "b"], [0, 1], k=1, seed=0)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(DataError, match="2 utterance ids for 3 labels"):
            kfold_split(["a", "b"], [0, 1, 1], k=2, seed=0)
        with pytest.raises(DataError, match="no utterances"):
            kfold_split([], [], k=2, seed=0)


def hand_matrix():
    # class 0: 10 samples, 9 correct; class 1: 5 samples, 2 correct.
    return np.array([[9, 1], [3, 2]])


class TestMetrics:
    def test_wa_hand_count(self):
        assert weighted_accuracy(hand_matrix()) == pytest.approx(11 / 15)
        assert weighted_accuracy(hand_matrix()) == pytest.approx(0.7333, abs=5e-5)

    def test_ua_hand_count(self):
        assert unweighted_accuracy(hand_matrix(), ("a", "b")) == pytest.approx(0.65)

    def test_diagonal_is_perfect(self):
        cm = np.diag([4, 7, 2])
        assert weighted_accuracy(cm) == 1.0
        assert unweighted_accuracy(cm, ("a", "b", "c")) == 1.0

    def test_balanced_rows_make_wa_equal_ua(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            # every true class gets exactly 20 samples
            counts = np.zeros((4, 4), dtype=np.int64)
            for i in range(4):
                cuts = np.sort(rng.integers(0, 21, size=3))
                counts[i] = np.diff(np.concatenate([[0], cuts, [20]]))
            assert weighted_accuracy(counts) == pytest.approx(
                unweighted_accuracy(counts, tuple("abcd")), abs=1e-12)

    def test_permuting_classes_preserves_metrics(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(1, 20, size=(5, 5))
        perm = rng.permutation(5)
        counts2 = counts[np.ix_(perm, perm)]
        names2 = tuple(np.array(list("abcde"))[perm])
        assert weighted_accuracy(counts) == pytest.approx(weighted_accuracy(counts2), abs=1e-12)
        assert unweighted_accuracy(counts, tuple("abcde")) == pytest.approx(
            unweighted_accuracy(counts2, names2), abs=1e-12)

    def test_empty_matrix_rejected(self):
        cm = np.zeros((2, 2), dtype=int)
        with pytest.raises(DataError):
            weighted_accuracy(cm)
        with pytest.raises(DataError):
            unweighted_accuracy(cm, ("a", "b"))

    def test_zero_row_warns_and_excludes(self):
        cm = np.array([[3, 0, 0], [1, 1, 0], [0, 0, 0]])
        with pytest.warns(RuntimeWarning, match=re.escape("excluded from UA: ['c']")):
            ua = unweighted_accuracy(cm, ("a", "b", "c"))
        assert ua == pytest.approx((1.0 + 0.5) / 2)

    def test_from_predictions(self):
        cm = confusion_from_predictions([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], ("a", "b"))
        assert cm.dtype == np.int64
        np.testing.assert_array_equal(cm, [[1, 1], [1, 2]])

    @pytest.mark.parametrize("y_true, y_pred, bad", [
        ([0, 1], [0, -1], "(1, -1)"), ([2, 0], [0, 1], "(2, 0)"), ([0, 1], [1, 2], "(1, 2)")])
    def test_out_of_range_class_rejected(self, y_true, y_pred, bad):
        with pytest.raises(DataError, match=re.escape(f"class index {bad} out of range for 2")):
            confusion_from_predictions(y_true, y_pred, ("a", "b"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ in length"):
            confusion_from_predictions([0, 1], [0], ("a", "b"))


class TestConfusionCsv:
    def test_round_trip(self, tmp_path):
        cm = hand_matrix()
        path = tmp_path / "cm.csv"
        write_confusion_csv(path, cm, ("a", "b"))
        assert path.read_bytes() == b"true,a,b\r\na,9,1\r\nb,3,2\r\n"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert tuple(rows[0][1:]) == ("a", "b")
        np.testing.assert_array_equal([[int(v) for v in row[1:]] for row in rows[1:]], cm)

    def test_rows_are_true_classes(self, tmp_path):
        path = tmp_path / "cm.csv"
        write_confusion_csv(path, hand_matrix(), ("a", "b"))
        lines = path.read_text().splitlines()
        assert lines[0] == "true,a,b"
        assert lines[1] == "a,9,1"


def run_report(wa):
    return {"mode": "pEPR", "class_names": ["a", "b"],
            "generations": [{"generation": 1, "wa": wa, "ua": 0.5, "mean_ep_entropy": 0.7}]}


class TestMetricsReport:
    def test_round_trip_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_report(path, run_report(0.5))
        assert read_metrics_report(path) == run_report(0.5)
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.json"
        write_metrics_report(path, run_report(0.5))

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr("emorefinery.fileio.os.replace", interrupted)
        with pytest.raises(OSError):
            write_metrics_report(path, run_report(0.75))
        assert read_metrics_report(path) == run_report(0.5)

    @pytest.mark.parametrize("report, generation", [
        ({"generation": 1, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1}, 1),
        ({"generation": 1, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1,
          "wa_clean": 0.25, "ua_clean": 0.5}, 1),
        (run_report(1), None),
        ({**run_report(1), "generations": [
            {"generation": t, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1} for t in (1, 2)]},
         None),
    ])
    def test_accepts_reports(self, tmp_path, report, generation):
        path = tmp_path / "metrics.json"
        write_metrics_report(path, report)
        assert read_metrics_report(path, generation) == report

    @pytest.mark.parametrize("report, generation", [
        ({"generation": 2, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1}, 1),
        ({"generation": True, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1}, 1),
        ({"generation": 1, "wa": True, "ua": 0.5, "mean_ep_entropy": 1}, 1),
        ({"generation": 1, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1, "ua_clean": 0.5}, 1),
        ([], None),
        ({**run_report(0.5), "generations": {}}, None),
        ({**run_report(0.5), "class_names": "ab"}, None),
        ({**run_report(0.5), "mode": None}, None),
        (run_report("x"), None),
        # json reads NaN and Infinity, which no report is written with.
        ({"generation": 1, "wa": float("nan"), "ua": 0.5, "mean_ep_entropy": 1}, 1),
        ({"generation": 1, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": float("inf")}, 1),
        ({"generation": 1, "wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1,
          "wa_clean": 0.5, "ua_clean": -float("inf")}, 1),
        (run_report(float("nan")), None),
        ({**run_report(0.5), "generations": []}, None),
        ({**run_report(0.5), "generations": run_report(0.5)["generations"] * 2}, None),
        ({**run_report(0.5), "generations": [
            {**run_report(0.5)["generations"][0], "generation": 2}]}, None),
    ])
    def test_rejects_malformed_reports(self, tmp_path, report, generation):
        path = tmp_path / "metrics.json"
        write_metrics_report(path, report)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not "):
            read_metrics_report(path, generation)
