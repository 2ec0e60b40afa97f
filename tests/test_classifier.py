"""Classifier tests: loss identities, gradient checks against finite
differences, training determinism, and checkpoint round-trips."""

import errno
import io
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from emorefinery import classifier
from emorefinery.classifier import (
    Model,
    TrainConfig,
    _mean_ce,
    _validation_split,
    load_model,
    predict_batch,
    save_model,
    train_segment_classifier,
)
from emorefinery.errors import ConfigError, DataError, TrainingDivergedError
from emorefinery.network import (Architecture, ConvNet, batch_cross_entropy, cross_entropy,
                                 entropy, kl_divergence, softmax)
from emorefinery.refinery import StackedDataset

NAMES4 = ("angry", "happy", "neutral", "sad")
NAMES6 = ("angry", "fear", "happy", "neutral", "sad", "surprise")


def random_distribution(rng, names):
    p = rng.uniform(0.01, 1.0, len(names))
    return p / p.sum()


def random_targets(rng, n, names):
    return np.stack([random_distribution(rng, names) for _ in range(n)])


def make_segments(rng, n, shape=(64, 32)):
    return np.stack([rng.standard_normal(shape) for _ in range(n)])


# The training seed of a test that names none.
SEED = 123


def stacked(x, utterance_ids=None, names=NAMES4):
    """Segments x as a StackedDataset: each run of equal utterance ids is one
    utterance, and by default every segment is its own."""
    if utterance_ids is None:
        utterance_ids = [f"u{i:03d}" for i in range(len(x))]
    runs = [(uid, len(list(group))) for uid, group in itertools.groupby(utterance_ids)]
    ends = np.cumsum([n for _, n in runs])
    return StackedDataset([uid for uid, _ in runs], [0] * len(runs), ["s"] * len(runs), names,
                          np.split(x, ends[:-1]))


def train(x, targets, cfg, utterance_ids=None, names=NAMES4, seed=SEED, **kw):
    """Train on every segment of x; by default each is its own utterance."""
    return train_segment_classifier(stacked(x, utterance_ids, names), targets,
                                    np.arange(len(x)), cfg, seed, **kw)


class TestLosses:
    def test_pure_entropy_is_zero(self):
        assert entropy(np.eye(4)[2]) == 0.0

    def test_uniform_entropy(self):
        assert abs(entropy(np.full(6, 1 / 6)) - math.log(6)) < 1e-12

    def test_ce_onehot_match_is_zero(self):
        d = np.eye(4)[1]
        assert cross_entropy(d, d) == 0.0

    def test_ce_worked_value(self):
        pred = np.array([0.8, 0.05, 0.05, 0.1])
        target = np.eye(4)[0]
        assert cross_entropy(pred, target) == pytest.approx(-math.log(0.8), abs=1e-12)
        assert cross_entropy(pred, target) == pytest.approx(0.22314, abs=5e-6)

    def test_ce_uniform_uniform(self):
        u = np.full(4, 0.25)
        assert cross_entropy(u, u) == pytest.approx(math.log(4), abs=1e-12)

    def test_ce_at_least_target_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pred = random_distribution(rng, NAMES6)
            target = random_distribution(rng, NAMES6)
            assert cross_entropy(pred, target) >= entropy(target) - 1e-12

    def test_kl_identity_case(self):
        d = random_distribution(np.random.default_rng(0), NAMES4)
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_kl_equals_ce_minus_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            pred = random_distribution(rng, NAMES6)
            target = random_distribution(rng, NAMES6)
            lhs = kl_divergence(pred, target)
            rhs = cross_entropy(pred, target) - entropy(target)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert lhs >= -1e-12

    def test_float32_loss_stays_float32_until_divided(self):
        logits = np.random.default_rng(4).standard_normal((5, 4)).astype(np.float32)
        t = np.eye(4, dtype=np.float32)[[0, 1, 2, 3, 0]]
        total = cross_entropy(softmax(logits), t)
        assert total.dtype == np.float32
        assert batch_cross_entropy(logits, t)[0] == float(total / np.float32(5))

    def test_kl_equals_ce_for_onehot_target(self):
        rng = np.random.default_rng(5)
        pred = random_distribution(rng, NAMES4)
        target = np.eye(4)[3]
        assert kl_divergence(pred, target) == cross_entropy(pred, target)


def tiny_net(k=4, shape=(16, 8), seed=0):
    arch = Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64")
    return ConvNet(arch, shape, k, np.random.default_rng(seed))


def net_loss(net, x, t, loss="ce"):
    logits = net.forward(x)
    p = np.maximum(softmax(logits), 1e-300)
    ce = float(-np.sum(t * np.log(p)) / x.shape[0])
    if loss == "ce":
        return ce
    tn = np.where(t > 0, t, 1.0)
    return ce + float(np.sum(t * np.log(tn)) / x.shape[0])  # KL = CE - H(target)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = tiny_net()
        n_params = sum(p.size for p in net.params())
        assert n_params <= 5000
        x = rng.standard_normal((3, 16, 8))
        t = rng.dirichlet(np.ones(4), size=3)

        logits = net.forward(x, train=True)
        _, dlogits = batch_cross_entropy(logits, t)
        net.backward(dlogits)
        analytic = [g.copy() for g in net.grads()]

        h = 1e-6
        for p, g in zip(net.params(), analytic):
            flat = p.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = net_loss(net, x, t)
                flat[i] = orig - h
                down = net_loss(net, x, t)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(g.reshape(-1)[i]), 1e-4)
                assert abs(numeric - g.reshape(-1)[i]) / scale < 1e-4

    def test_kl_and_ce_parameter_gradients_agree(self):
        # Finite-difference gradients of the two losses; the entropy term
        # is constant in the parameters so the gradients must coincide.
        rng = np.random.default_rng(10)
        net = tiny_net()
        x = rng.standard_normal((2, 16, 8))
        t = rng.dirichlet(np.ones(4), size=2)
        h = 1e-5
        for p in net.params():
            flat = p.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 40)):
                orig = flat[i]
                flat[i] = orig + h
                ce_up, kl_up = net_loss(net, x, t, "ce"), net_loss(net, x, t, "kl")
                flat[i] = orig - h
                ce_dn, kl_dn = net_loss(net, x, t, "ce"), net_loss(net, x, t, "kl")
                flat[i] = orig
                assert abs((kl_up - kl_dn) / (2 * h) - (ce_up - ce_dn) / (2 * h)) < 1e-9


class TestSoftmax:
    def test_extreme_logits_stay_valid(self):
        logits = np.array([[1e30, -1e30, 0.0], [700.0, -700.0, 0.0], [0.0, 0.0, 0.0]])
        p = softmax(logits)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)


def overfit_config(**kw):
    args = dict(
        initial_lr=0.02,
        batch_size=8,
        max_epochs=20,
        early_stop_patience=20,
        architecture=Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64"),
    )
    args.update(kw)
    return TrainConfig(**args)


class TestTraining:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(21)
        segs = make_segments(rng, 12, shape=(16, 8))
        targets = np.stack([random_distribution(np.random.default_rng(i), NAMES4)
                            for i in range(12)])
        cfg = overfit_config(max_epochs=3)
        m1 = train(segs, targets, cfg)
        m2 = train(segs, targets, cfg)
        for p1, p2 in zip(m1.net.params(), m2.net.params()):
            np.testing.assert_array_equal(p1, p2)

    def test_compact_float32_determinism_bit_identical(self):
        rng = np.random.default_rng(22)
        segs = make_segments(rng, 96, shape=(32, 32))
        ids = [f"u{i // 6:02d}" for i in range(96)]
        targets = random_targets(rng, 96, NAMES4)
        cfg = TrainConfig(max_epochs=4, batch_size=32, validation_fraction=0.2,
                          architecture="compact")
        m1 = train(segs, targets, cfg, ids, seed=8)
        m2 = train(segs, targets, cfg, ids, seed=8)
        assert m1.history == m2.history
        assert m1.history["n_val_segments"] > 0
        for p1, p2 in zip(m1.net.params(), m2.net.params(), strict=True):
            assert p1.dtype == np.float32
            assert p1.tobytes() == p2.tobytes()

    def test_overfits_two_segments(self):
        rng = np.random.default_rng(33)
        segs = make_segments(rng, 2, shape=(16, 8))
        targets = np.eye(4)[[0, 2]]
        model = train(segs, targets, overfit_config(), ["same_utt"] * 2)
        for seg, tgt in zip(segs, targets):
            np.testing.assert_allclose(predict_batch(model, seg[None])[0], tgt, atol=0.05)

    def test_overfit_argmax_matches_target(self):
        rng = np.random.default_rng(33)
        segs = make_segments(rng, 2, shape=(16, 8))
        targets = np.eye(4)[[0, 2]]
        model = train(segs, targets, overfit_config(), ["same_utt"] * 2)
        assert predict_batch(model, segs[:1])[0].argmax() == 0
        assert predict_batch(model, segs[1:])[0].argmax() == 2

    def test_training_ce_descends(self):
        rng = np.random.default_rng(44)
        segs = make_segments(rng, 64, shape=(16, 8))
        targets = random_targets(rng, 64, NAMES4)
        cfg = overfit_config(max_epochs=10)
        model = train(segs, targets, cfg)
        # The untrained net, built the way training builds it from the same seed.
        init_rng = np.random.default_rng(SEED)
        ids = np.array([f"u{i:03d}" for i in range(64)])
        train_rows = ~_validation_split(ids, cfg.validation_fraction, init_rng)
        untrained = ConvNet(cfg.resolved_architecture(), (16, 8), 4, init_rng)
        initial_ce = _mean_ce(untrained, segs[train_rows], targets[train_rows], cfg.batch_size)
        assert model.history["n_train_segments"] == train_rows.sum()
        assert model.history["train_ce"][-1] < initial_ce

    @pytest.mark.parametrize("lr", [0.05, 0.5])
    def test_early_stop_keeps_the_best_epoch(self, lr):
        # At these rates the validation loss rises within a few epochs.
        rng = np.random.default_rng(7)
        segs = make_segments(rng, 60, shape=(16, 8))
        targets = random_targets(rng, 60, NAMES4)
        ids = [f"u{i // 3:02d}" for i in range(60)]
        cfg = overfit_config(initial_lr=lr, validation_fraction=0.3, early_stop_patience=2,
                             max_epochs=30)
        model = train(segs, targets, cfg, ids, seed=7)
        monitor = model.history["monitor"]
        best = monitor.index(min(monitor))
        assert model.history["epochs_run"] == best + 1 + 2 < 30
        val = _validation_split(np.array(ids), cfg.validation_fraction, np.random.default_rng(7))
        assert _mean_ce(model.net, segs[val], targets[val], cfg.batch_size) == monitor[best]
        at_best = train(segs, targets, replace(cfg, max_epochs=best + 1), ids, seed=7)
        assert [p.tobytes() for p in model.net.params()] == \
            [p.tobytes() for p in at_best.net.params()]

    def test_rows_train_as_a_dataset_of_only_those_rows(self):
        rng = np.random.default_rng(23)
        segs = make_segments(rng, 30, shape=(16, 8))
        targets = random_targets(rng, 30, NAMES4)
        ids = [f"u{i // 3:02d}" for i in range(30)]
        rows = np.flatnonzero(np.arange(30) // 3 % 4 != 1)  # 7 of the 10 utterances
        cfg = overfit_config(max_epochs=3, validation_fraction=0.3)
        part = train_segment_classifier(stacked(segs, ids), targets, rows, cfg, SEED)
        alone = train(segs[rows], targets[rows], cfg, [ids[r] for r in rows])
        assert part.history == alone.history and part.history["n_val_segments"] == 6
        assert [p.tobytes() for p in part.net.params()] == \
            [p.tobytes() for p in alone.net.params()]

    def test_empty_dataset_rejected(self):
        segs = make_segments(np.random.default_rng(0), 2, shape=(16, 8))
        with pytest.raises(DataError, match="empty"):
            train_segment_classifier(stacked(segs), np.eye(4)[:2], np.array([], dtype=np.int64),
                                     overfit_config(), SEED)

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(0)
        segs = make_segments(rng, 3, shape=(16, 8))
        with pytest.raises(DataError, match="targets"):
            train(segs, np.eye(4)[:1], overfit_config())

    def test_malformed_shapes_rejected(self):
        with pytest.raises(DataError) as err:
            train(np.zeros((4, 16, 8)), np.eye(3)[[0, 1, 2, 0]], overfit_config())
        assert str(err.value) == ("targets have shape (4, 3), expected (4, 4): "
                                  "one row per segment")

    def test_validation_split_is_utterance_level(self):
        # 10 utterances x 4 segments; with fraction 0.25 some utterances
        # must be fully held out, never partially.
        rng = np.random.default_rng(55)
        segs = make_segments(rng, 40, shape=(16, 8))
        ids = [f"utt{u}" for u in range(10) for _ in range(4)]
        targets = random_targets(rng, 40, NAMES4)
        cfg = overfit_config(max_epochs=1, validation_fraction=0.25)
        mask = _validation_split(np.array(ids), cfg.validation_fraction,
                                 np.random.default_rng(SEED))
        assert all(len(set(mask[4 * u:4 * u + 4])) == 1 for u in range(10))
        model = train(segs, targets, cfg, ids)
        assert model.history["n_val_segments"] == 8  # 2 of 10 utterances
        assert model.history["n_train_segments"] == 32

    def test_training_holds_no_copy_of_the_segments(self):
        # The net casts each batch it is given, so training gathers one batch
        # of rows at a time and copies only the validation rows, a tenth of x.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4000, 8, 8))
        targets = np.eye(4)[rng.integers(4, size=4000)]
        ids = np.array([f"u{i:04d}" for i in range(4000)])
        cfg = TrainConfig(max_epochs=1,
                          architecture=Architecture(name="one-stage", conv_stages=((2,),)))
        data, rows = stacked(x, ids), np.arange(4000)
        # numpy imports and caches some of what training calls on first use.
        train_segment_classifier(data, targets, rows, cfg, SEED)
        tracemalloc.start()
        try:
            train_segment_classifier(data, targets, rows, cfg, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.x.nbytes


class TestPredict:
    def test_valid_distribution(self):
        rng = np.random.default_rng(1)
        segs = make_segments(rng, 4, shape=(16, 8))
        targets = random_targets(rng, 4, NAMES4)
        model = train(segs, targets, overfit_config(max_epochs=1))
        p = predict_batch(model, segs[:1])[0]
        assert p.shape == (4,)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all(p >= 0)

    def test_collapsed_model_predicts_uniform(self):
        rng = np.random.default_rng(2)
        segs = make_segments(rng, 4, shape=(16, 8))
        targets = random_targets(rng, 4, NAMES6)
        model = train(segs, targets, overfit_config(max_epochs=1), names=NAMES6)
        head = model.net.layers[-1]
        head.w[...] = 0.0
        head.b[...] = 0.0
        probs = predict_batch(model, segs[:1])[0]
        np.testing.assert_allclose(probs, 1 / 6, atol=1e-12)
        assert abs(probs[0] - 0.1667) < 1e-3

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        segs = make_segments(rng, 4, shape=(16, 8))
        targets = random_targets(rng, 4, NAMES4)
        model = train(segs, targets, overfit_config(max_epochs=1))
        with pytest.raises(DataError, match="shape"):
            predict_batch(model, np.zeros((1, 8, 8)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        segs = make_segments(rng, 6, shape=(16, 8))
        targets = random_targets(rng, 6, NAMES4)
        model = train(segs, targets, overfit_config(max_epochs=2))
        batch = predict_batch(model, segs)
        for i, seg in enumerate(segs):
            # BLAS accumulates differently for different batch shapes, so
            # agreement is to rounding, not bit-exact.
            np.testing.assert_allclose(batch[i], predict_batch(model, seg[None])[0], atol=1e-12)


class TestBlasThreads:
    """Training and prediction run OpenBLAS on one thread, and only while they run."""

    def data(self):
        rng = np.random.default_rng(31)
        segs = make_segments(rng, 24, shape=(32, 32))
        return segs, random_targets(rng, 24, NAMES4)

    def config(self):
        return TrainConfig(max_epochs=2, batch_size=8, architecture="compact")

    def test_one_thread_inside_and_restored_after(self, openblas, monkeypatch):
        seen = []
        forward = ConvNet.forward

        def spy(net, x, train=False):
            seen.append(openblas())
            return forward(net, x, train)

        monkeypatch.setattr(ConvNet, "forward", spy)
        segs, targets = self.data()
        model = train(segs, targets, self.config(), seed=4)
        assert seen and set(seen) == {1}
        assert openblas() == 2
        seen.clear()
        predict_batch(model, segs)
        assert seen and set(seen) == {1}
        assert openblas() == 2

    def test_restored_after_divergence(self, openblas, monkeypatch):
        def diverge(logits, targets):
            return float("nan"), np.zeros_like(logits)

        monkeypatch.setattr(classifier, "batch_cross_entropy", diverge)
        segs, targets = self.data()
        with pytest.raises(TrainingDivergedError):
            train(segs, targets, self.config(), seed=4)
        assert openblas() == 2

    def test_overlapping_pins_on_two_threads(self, openblas):
        # Thread A pins, then B pins, then A leaves while B is still inside:
        # B must still run on one thread, and once both have left the count
        # must be the 2 that A found.
        pin = classifier._single_thread_blas
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with pin():
                a_in.set()
                b_in.wait(30)
            a_out.set()

        def b():
            a_in.wait(30)
            with pin():
                b_in.set()
                a_out.wait(30)
                seen["inside"] = openblas()

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"inside": 1}
        assert openblas() == 2

    def test_many_threads_share_one_pin(self, openblas):
        # More threads than cores pin and unpin at every switch point: each
        # one inside sees one thread, and the count is restored at the end.
        seen = []

        def work():
            for _ in range(200):
                with classifier._single_thread_blas():
                    seen.append(openblas())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 1600 and set(seen) == {1}
        assert openblas() == 2

    def test_finds_the_numpy_1_wheel_symbols(self, monkeypatch):
        # numpy 1.x wheels bundle an OpenBLAS whose symbols end in "64_".
        lib = SimpleNamespace(openblas_get_num_threads64_=SimpleNamespace(),
                              openblas_set_num_threads64_=SimpleNamespace())
        maps = "7f00-7f01 r-xp 00000000 08:01 7 /site-packages/numpy.libs/libopenblas64_p.so\n"
        monkeypatch.setattr(classifier, "open", lambda path: io.StringIO(maps), raising=False)
        monkeypatch.setattr(classifier.ctypes, "CDLL", lambda path: lib)
        classifier._openblas.cache_clear()
        try:
            found = classifier._openblas()
        finally:
            classifier._openblas.cache_clear()
        assert found == (lib.openblas_get_num_threads64_, lib.openblas_set_num_threads64_)

    def test_without_openblas_same_parameters(self, monkeypatch):
        segs, targets = self.data()
        pinned = train(segs, targets, self.config(), seed=4)
        monkeypatch.setattr(classifier, "_openblas", lambda: None)
        unpinned = train(segs, targets, self.config(), seed=4)
        assert unpinned.history == pinned.history
        for p1, p2 in zip(pinned.net.params(), unpinned.net.params(), strict=True):
            assert p1.tobytes() == p2.tobytes()


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        segs = make_segments(rng, 8, shape=(16, 8))
        targets = random_targets(rng, 8, NAMES4)
        model = train(segs, targets, overfit_config(max_epochs=2), generation=3)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.class_names == model.class_names
        assert loaded.generation == 3
        assert loaded.seed == model.seed
        assert loaded.net.arch == model.net.arch
        assert loaded.net.input_shape == model.net.input_shape == (16, 8)
        for p1, p2 in zip(model.net.params(), loaded.net.params()):
            np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(
            predict_batch(model, segs), predict_batch(loaded, segs)
        )

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_disk_names_the_checkpoint(self):
        rng = np.random.default_rng(0)
        model = train(rng.standard_normal((4, 8, 4)), np.eye(2)[[0, 1, 0, 1]],
                      TrainConfig(max_epochs=1, architecture="tiny"), ["a", "a", "b", "b"],
                      ("neg", "pos"), seed=3)
        with pytest.raises(OSError) as err:
            save_model(model, "/dev/full")
        assert (err.value.filename, err.value.errno) == ("/dev/full", errno.ENOSPC)

    def test_meta_document_is_pinned(self, tmp_path):
        # The checkpoint's meta JSON as it has been written: a renamed or
        # reordered key makes old checkpoints another format.
        rng = np.random.default_rng(0)
        model = train(rng.standard_normal((4, 8, 4)), np.eye(2)[[0, 1, 0, 1]],
                      TrainConfig(max_epochs=1, architecture="tiny"), ["a", "a", "b", "b"],
                      ("neg", "pos"), seed=3, generation=2)
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            meta = bytes(data["meta"]).decode()
        assert meta == (
            '{"format": "emorefinery-model", "version": 1, "architecture": {"name": "tiny", '
            '"conv_stages": [[2], [2]], "dense": [], "dtype": "float64"}, "input_shape": [8, 4], '
            '"class_names": ["neg", "pos"], "generation": 2, "seed": 3}')
        assert json.loads(meta)["architecture"] == {"name": "tiny", "conv_stages": [[2], [2]],
                                                    "dense": [], "dtype": "float64"}

    @staticmethod
    def checkpoint(tmp_path):
        """A saved tiny model's checkpoint bytes and its members."""
        rng = np.random.default_rng(0)
        model = train(rng.standard_normal((4, 8, 4)), np.eye(2)[[0, 1, 0, 1]],
                      TrainConfig(max_epochs=1, architecture="tiny"), ["a", "a", "b", "b"],
                      ("neg", "pos"), seed=3)
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            return (tmp_path / "m.npz").read_bytes(), dict(data)

    @staticmethod
    def with_meta(members, **change):
        meta = {**json.loads(bytes(members["meta"]).decode()), **change}
        meta = {k: v for k, v in meta.items() if v is not None}
        return {**members, "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}

    @pytest.mark.parametrize("damage, what", [
        (lambda raw, members: raw[:len(raw) // 2], "File is not a zip file"),
        (lambda raw, members: b"", "No data left in file"),
        (lambda raw, members: b"fold 1\n", "pickled"),
        (lambda raw, members: {"x": np.zeros(3)}, "'meta is not a file in the archive'"),
        (lambda raw, members: np.zeros(3), "it is not an .npz archive"),
        (lambda raw, members: {"meta": np.frombuffer(b"[1]", dtype=np.uint8)},
         "its meta is not an emorefinery-model version 1 document"),
        (lambda raw, members: TestPersistence.with_meta(members, format="other"),
         "its meta is not an emorefinery-model version 1 document"),
        (lambda raw, members: TestPersistence.with_meta(members, version=2),
         "its meta is not an emorefinery-model version 1 document"),
        (lambda raw, members: TestPersistence.with_meta(members, version=True),
         "its meta is not an emorefinery-model version 1 document"),
        (lambda raw, members: TestPersistence.with_meta(members, version=None),
         "its meta is not an emorefinery-model version 1 document"),
        (lambda raw, members: TestPersistence.with_meta(members, generation=None),
         "'generation'"),
        (lambda raw, members: TestPersistence.with_meta(members, class_names="np"),
         "class_names must be a list of strings, not 'np'"),
        (lambda raw, members: TestPersistence.with_meta(members, generation="2"),
         "its generation '2' and seed 3 are not both integers"),
        (lambda raw, members: TestPersistence.with_meta(members, seed=2.9),
         "its generation 1 and seed 2.9 are not both integers"),
        (lambda raw, members: {k: v for k, v in members.items() if k != "param_001"},
         "'param_001 is not a file in the archive'"),
    ], ids=["cut", "empty", "text", "other-npz", "npy", "meta-list", "format", "version-2",
            "version-true", "no-version", "no-generation", "classes-string",
            "generation-string", "seed-float", "no-param"])
    def test_other_files_raise_one_error_naming_the_file(self, tmp_path, damage, what):
        damaged = damage(*self.checkpoint(tmp_path))
        path = tmp_path / "damaged.npz"
        if isinstance(damaged, bytes):
            path.write_bytes(damaged)
        elif isinstance(damaged, dict):
            np.savez(path, **damaged)
        else:
            with path.open("wb") as fh:
                np.save(fh, damaged)
        with pytest.raises(DataError) as err:
            load_model(path)
        message = str(err.value)
        assert message.startswith(f"{path} is not a model checkpoint: ") and what in message
        assert message.count(str(path)) == 1

    def test_unreadable_file_is_named(self, tmp_path):
        with pytest.raises(DataError, match="^" + re.escape(
                f"{tmp_path / 'absent.npz'} cannot be read (No such file or directory)") + "$"):
            load_model(tmp_path / "absent.npz")


class TestConfigValidation:
    def test_bad_validation_fraction(self):
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=0.9)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(initial_lr=-1.0)

    def test_unknown_architecture(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            TrainConfig(architecture="nope")

    @pytest.mark.parametrize("architecture, what", [
        ({"name": "x", "conv_stages": [[4]], "pool": 3}, r"unknown architecture keys \['pool'\]"),
        ({"conv_stages": [[4]]}, "inline architecture needs name and conv_stages"),
        (7, "architecture must be a name or an inline object"),
    ])
    def test_inline_architecture_checked_when_built(self, architecture, what):
        with pytest.raises(ConfigError, match=what):
            TrainConfig(architecture=architecture)

    def test_inline_object_becomes_architecture(self):
        cfg = TrainConfig(architecture={"name": "x", "conv_stages": [[4], [8]]})
        assert cfg.architecture == Architecture(name="x", conv_stages=((4,), (8,)))
        assert TrainConfig(architecture="tiny").architecture == "tiny"
