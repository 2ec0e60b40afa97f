"""Segment-level emotion classifier.

Maps a log-Mel segment to a K-class probability distribution. Training
minimizes soft-target cross-entropy with an adaptive-moment optimizer,
a staircase-exponential learning-rate decay, and early stopping on a
held-out validation split made at the utterance level.
"""

import contextlib
import ctypes
import functools
import json
import logging
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .network import (ARCHITECTURES, Adam, Architecture, ConvNet, batch_cross_entropy,
                      cross_entropy, softmax)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 0.001
    lr_decay: float = 0.8
    lr_decay_every: int = 2
    batch_size: int = 128
    early_stop_patience: int = 3
    max_epochs: int = 20
    validation_fraction: float = 0.1
    architecture: object = "compact"  # name, Architecture, or its JSON object

    def __post_init__(self):
        if min(self.initial_lr, self.lr_decay, self.batch_size, self.max_epochs) <= 0:
            raise ConfigError("training hyperparameters must be positive")
        if self.lr_decay_every < 1 or self.early_stop_patience < 1:
            raise ConfigError("lr_decay_every and early_stop_patience must be >= 1")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ConfigError("validation_fraction must be in (0, 0.5]")
        arch = self.architecture
        if isinstance(arch, str):
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}; "
                                  f"known: {sorted(ARCHITECTURES)}")
        elif isinstance(arch, dict):
            extra = set(arch) - {f.name for f in fields(Architecture)}
            if extra:
                raise ConfigError(f"unknown architecture keys {sorted(extra)}")
            if "name" not in arch or "conv_stages" not in arch:
                raise ConfigError("inline architecture needs name and conv_stages")
            object.__setattr__(self, "architecture", Architecture(**arch))
        elif not isinstance(arch, Architecture):
            raise ConfigError("architecture must be a name or an inline object")

    def resolved_architecture(self) -> Architecture:
        arch = self.architecture
        return ARCHITECTURES[arch] if isinstance(arch, str) else arch


@dataclass
class Model:
    """Trained segment classifier: its net, whose `arch` and `input_shape`
    describe it, plus the classes and provenance."""

    class_names: tuple
    generation: int
    seed: int
    net: ConvNet = field(repr=False)
    history: dict = field(default_factory=dict, repr=False)


def _validation_split(utterance_ids: np.ndarray, fraction: float, rng: np.random.Generator):
    """Seeded utterance-level split; returns boolean mask of validation rows.

    Utterances are shuffled in order of first appearance. If the dataset has
    too few utterances for a non-empty validation set, everything stays in
    training and the mask is all-False.
    """
    _, first = np.unique(utterance_ids, return_index=True)
    order = utterance_ids[np.sort(first)]
    n_val = int(np.floor(fraction * len(order)))
    if n_val == 0:
        return np.zeros(len(utterance_ids), dtype=bool)
    return np.isin(utterance_ids, order[rng.permutation(len(order))[:n_val]])


# (get, set) thread-count symbols: the scipy-openblas build numpy wheels
# bundle, then a plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The thread count is process-wide, so blocks open on any thread share one
# pin: the first block in saves the count and the last one out restores it.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def _single_thread_blas():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    The network's GEMMs are too small to gain from a second thread, which
    would only spin and double the CPU time. The count does not change
    results. Without OpenBLAS this does nothing.
    """
    global _pin_depth, _pin_saved
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def _forward_in_batches(net: ConvNet, x: np.ndarray, batch_size: int) -> np.ndarray:
    outs = [net.forward(x[i : i + batch_size]) for i in range(0, x.shape[0], batch_size)]
    return np.concatenate(outs, axis=0)


def _mean_ce(net: ConvNet, x: np.ndarray, t: np.ndarray, batch_size: int) -> float:
    logits = _forward_in_batches(net, x, batch_size)
    return float(cross_entropy(softmax(logits).astype(np.float64), t) / x.shape[0])


@_single_thread_blas()
def train_segment_classifier(x, targets, utterance_ids, class_names, cfg: TrainConfig,
                             seed: int, generation: int = 1) -> Model:
    """Train a classifier on segments x (n, n_mels, seg_frames) with soft targets (n, K).

    `utterance_ids[j]` names segment j's utterance, so that the validation
    split holds out whole utterances. Returns the parameter snapshot with the
    best monitored loss: validation cross-entropy when an utterance-level
    validation split is possible, otherwise the running training loss.
    Deterministic given the seed and the input order.
    """
    x, targets, utterance_ids = np.asarray(x), np.asarray(targets), np.asarray(utterance_ids)
    class_names = tuple(class_names)
    if x.shape[0] == 0:
        raise DataError("empty training set")
    if not len(targets) == len(utterance_ids) == x.shape[0]:
        raise DataError(f"{x.shape[0]} segments but {len(targets)} targets "
                        f"and {len(utterance_ids)} utterance ids")
    if x.ndim != 3 or targets.shape[1:] != (len(class_names),):
        raise DataError(f"segments of shape {x.shape} and targets of shape {targets.shape} "
                        f"are not (n, n_mels, seg_frames) and (n, {len(class_names)})")

    arch = cfg.resolved_architecture()
    x = x.astype(arch.np_dtype, copy=False)
    t = targets.astype(arch.np_dtype)
    k = len(class_names)

    rng = np.random.default_rng(seed)
    val_mask = _validation_split(utterance_ids, cfg.validation_fraction, rng)
    x_train, t_train = x[~val_mask], t[~val_mask]
    x_val, t_val = x[val_mask], t[val_mask].astype(np.float64)

    net = ConvNet(arch, x.shape[1:], k, rng)
    opt = Adam(net.params())
    best_loss = np.inf
    best_params = net.snapshot()
    epochs_since_best = 0
    n_train = x_train.shape[0]
    history = {
        "train_ce": [],
        "monitor": [],
        "n_train_segments": int(n_train),
        "n_val_segments": int(x_val.shape[0]),
    }

    for epoch in range(cfg.max_epochs):
        lr = cfg.initial_lr * cfg.lr_decay ** (epoch // cfg.lr_decay_every)
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            logits = net.forward(x_train[idx], train=True)
            loss, dlogits = batch_cross_entropy(logits, t_train[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start} (lr={lr:g})"
                )
            net.backward(dlogits)
            opt.step(net.params(), net.grads(), lr)
            epoch_loss += loss * idx.size
        epoch_loss /= n_train

        if x_val.shape[0] > 0:
            monitor = _mean_ce(net, x_val, t_val, cfg.batch_size)
        else:
            monitor = epoch_loss
        if not np.isfinite(monitor):
            raise TrainingDivergedError(f"non-finite monitored loss at epoch {epoch}")
        logger.debug("epoch %d lr=%.2g train=%.4f monitor=%.4f", epoch, lr, epoch_loss, monitor)
        history["train_ce"].append(epoch_loss)
        history["monitor"].append(monitor)

        if monitor < best_loss:
            best_loss = monitor
            best_params = net.snapshot()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.early_stop_patience:
                break

    if not all(np.isfinite(p).all() for p in best_params):
        raise TrainingDivergedError(
            f"parameters became non-finite in training (initial_lr={cfg.initial_lr:g})")
    net.restore(best_params)
    history["best_monitor"] = float(best_loss)
    history["epochs_run"] = len(history["train_ce"])
    return Model(class_names=class_names, generation=generation, seed=seed, net=net,
                 history=history)


@_single_thread_blas()
def predict_batch(m: Model, x, batch_size: int = 256) -> np.ndarray:
    """Class probabilities (n, K), rows normalized, of segments x (n, n_mels, seg_frames)."""
    x = np.asarray(x)
    if x.shape[1:] != m.net.input_shape:
        raise DataError(f"segment shape {x.shape[1:]} != model input {m.net.input_shape}")
    x = x.astype(m.net.arch.np_dtype, copy=False)
    logits = _forward_in_batches(m.net, x, batch_size)
    p = softmax(logits).astype(np.float64)
    return p / p.sum(axis=1, keepdims=True)


def save_model(m: Model, path) -> None:
    """Write a self-describing checkpoint; load_model round-trips bit-exactly."""
    meta = {
        "format": "emorefinery-model",
        "version": 1,
        "architecture": asdict(m.net.arch),
        "input_shape": list(m.net.input_shape),
        "class_names": list(m.class_names),
        "generation": m.generation,
        "seed": m.seed,
    }
    arrays = {f"param_{i:03d}": p for i, p in enumerate(m.net.params())}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_model(path) -> Model:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != "emorefinery-model":
            raise DataError(f"{path}: not a model checkpoint")
        class_names = tuple(meta["class_names"])
        net = ConvNet(Architecture(**meta["architecture"]), meta["input_shape"],
                      len(class_names), np.random.default_rng(0))
        net.restore([data[f"param_{i:03d}"] for i in range(len(net.params()))])
    return Model(class_names=class_names, generation=int(meta["generation"]),
                 seed=int(meta["seed"]), net=net)
