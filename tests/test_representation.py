"""Representation tests: the five per-dimension statistics and their layout."""

import csv

import numpy as np

from emorefinery.representation import ep_statistics, representations_for, write_representation_csv

# The five statistics of each profile dimension, in their block order.
STATISTICS = ("mean", "std", "min", "max", "range")


def ep_of(values):
    """A K x N profile, one column per segment."""
    return np.asarray(values, dtype=np.float64)


def random_ep(rng, k=4, n=9):
    v = rng.uniform(0.01, 1.0, (k, n))
    return v / v.sum(axis=0)


def statistic(features, name):
    """The K-vector block of one statistic in a 5K feature vector."""
    k = len(features) // len(STATISTICS)
    i = STATISTICS.index(name)
    return features[i * k:(i + 1) * k]


class TestEpStatistics:
    def test_constant_profile(self):
        rep = ep_statistics(ep_of(np.tile([[0.7], [0.3]], (1, 6))))
        np.testing.assert_allclose(statistic(rep, "mean"), [0.7, 0.3], atol=1e-15)
        np.testing.assert_allclose(statistic(rep, "std"), [0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(statistic(rep, "min"), [0.7, 0.3])
        np.testing.assert_array_equal(statistic(rep, "max"), [0.7, 0.3])
        np.testing.assert_array_equal(statistic(rep, "range"), [0.0, 0.0])

    def test_single_column(self):
        rep = ep_statistics(ep_of([[0.25], [0.75]]))
        np.testing.assert_array_equal(statistic(rep, "mean"), [0.25, 0.75])
        np.testing.assert_array_equal(statistic(rep, "std"), [0.0, 0.0])
        np.testing.assert_array_equal(statistic(rep, "range"), [0.0, 0.0])

    def test_hand_evaluated_two_columns(self):
        rep = ep_statistics(ep_of([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(rep, [0.5, 0.5, 0.5, 0.5, 0, 0, 1, 1, 1, 1], atol=1e-15)

    def test_length_is_five_k(self):
        rep = ep_statistics(random_ep(np.random.default_rng(0), k=6, n=12))
        assert rep.shape == (30,)

    def test_blockwise_layout(self):
        ep = random_ep(np.random.default_rng(1))
        rep = ep_statistics(ep)
        np.testing.assert_array_equal(rep[:4], ep.mean(axis=1))
        np.testing.assert_array_equal(rep[4:8], ep.std(axis=1))
        np.testing.assert_array_equal(rep[8:12], ep.min(axis=1))
        np.testing.assert_array_equal(rep[12:16], ep.max(axis=1))

    def test_population_std(self):
        # population std of [0, 1] is 0.5; the sample std would be ~0.707
        rep = ep_statistics(ep_of([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(statistic(rep, "std"), [0.5, 0.5], atol=1e-15)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        ep = random_ep(rng)
        shuffled = ep[:, rng.permutation(ep.shape[1])]
        np.testing.assert_allclose(ep_statistics(ep), ep_statistics(shuffled), atol=1e-15)

    def test_mean_block_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rep = ep_statistics(random_ep(rng))
            assert abs(statistic(rep, "mean").sum() - 1.0) < 1e-9

    def test_min_le_mean_le_max(self):
        rep = ep_statistics(random_ep(np.random.default_rng(4)))
        assert np.all(statistic(rep, "min") <= statistic(rep, "mean") + 1e-15)
        assert np.all(statistic(rep, "mean") <= statistic(rep, "max") + 1e-15)
        np.testing.assert_allclose(statistic(rep, "range"),
                                   statistic(rep, "max") - statistic(rep, "min"), atol=1e-15)


class TestRepresentationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ids = ["u2", "u0", "u1"]
        reps = np.stack([ep_statistics(random_ep(rng)) for _ in ids])
        path = tmp_path / "reps.csv"
        write_representation_csv(path, ids, reps)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == sorted(ids)
        for row in rows:
            values = np.array([float(v) for v in row[1:]])
            assert values.tobytes() == reps[ids.index(row[0])].tobytes()

    def test_header(self, tmp_path):
        reps = ep_statistics(random_ep(np.random.default_rng(6), k=2))[None]
        path = tmp_path / "reps.csv"
        write_representation_csv(path, ["u0"], reps)
        assert path.read_text().splitlines()[0] == "utterance_id," + ",".join(
            f"f_{i + 1}" for i in range(10))

    def test_representations_for_keys(self):
        rng = np.random.default_rng(7)
        eps = random_ep(rng, n=12).T.copy()
        offsets = [0, 5, 6, 12]
        reps = representations_for(eps, offsets)
        assert reps.shape == (3, 20)
        for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            assert reps[i].tobytes() == ep_statistics(eps[a:b].T).tobytes()
