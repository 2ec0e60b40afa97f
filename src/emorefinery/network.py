"""Minimal convolutional network with explicit backpropagation.

Layers are implemented directly on numpy so training is deterministic and
parameter gradients are available for finite-difference verification.
Convolutions are 3x3 stride-1 with same-padding; every stage ends in a
2x2 max pool.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDivergedError


def _positive_ints(value) -> bool:
    """A list or tuple of positive Python ints."""
    return isinstance(value, (tuple, list)) and all(type(v) is int and v > 0 for v in value)


@dataclass(frozen=True)
class Architecture:
    """Network shape descriptor.

    conv_stages lists the conv channel widths of each stage; a 2x2 max
    pool follows each stage. dense lists hidden fully-connected widths
    before the final class-logit layer.
    """

    name: str
    conv_stages: tuple = ((16,), (32,), (64,), (64,))
    dense: tuple = ()
    dtype: str = "float32"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"architecture name must be a string, not {self.name!r}")
        stages = self.conv_stages
        if not (isinstance(stages, (tuple, list)) and stages
                and all(s and _positive_ints(s) for s in stages)):
            raise ConfigError("conv_stages must be a non-empty list of non-empty lists of "
                              f"positive channel widths, not {stages!r}")
        if not _positive_ints(self.dense):
            raise ConfigError(f"dense must be a list of positive widths, not {self.dense!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported dtype {self.dtype!r}")
        object.__setattr__(self, "conv_stages", tuple(tuple(s) for s in stages))
        object.__setattr__(self, "dense", tuple(self.dense))

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def conv_shapes(self, input_shape) -> list:
        """The conv stack's walk over one input of (h, w): per stage, the h
        and w its convolutions see and the (c_in, c_out) of each of them."""
        h, w = input_shape
        c = 1
        stages = []
        for stage in self.conv_stages:
            stages.append((h, w, list(zip((c,) + stage[:-1], stage))))
            c = stage[-1]
            h, w = h // 2, w // 2
        return stages

    def conv_macs(self, input_shape) -> int:
        """Multiply-adds of the conv layers for one input of (h, w)."""
        return sum(9 * c_in * c_out * h * w
                   for h, w, convs in self.conv_shapes(input_shape) for c_in, c_out in convs)


ARCHITECTURES = {
    "compact": Architecture(name="compact", conv_stages=((16,), (32,), (64,), (64,))),
    # A deliberately small net for gradient checking and fast tests.
    "tiny": Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64"),
    # VGG configuration E sized head; desk-scale runs should prefer "compact".
    "vgg-e": Architecture(
        name="vgg-e",
        conv_stages=((64, 64), (128, 128), (256, 256, 256, 256), (512, 512, 512, 512), (512, 512, 512, 512)),
        dense=(4096, 4096),
    ),
}


# Samples per im2col block. Both passes rebuild the columns of one block at
# a time from the layer's input, so a layer holds one block's columns, not
# the batch's, and a block's columns stay in cache for its GEMM.
_CONV_BLOCK = 8


class Conv3x3:
    """3x3 convolution, stride 1, zero same-padding."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, dtype):
        fan_in = c_in * 9
        self.w = (rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self._x = None

    def _im2col(self, x):
        b, c, h, w = x.shape
        xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
        xp[:, :, 1:-1, 1:-1] = x
        cols = np.empty((b, c, 3, 3, h, w), dtype=x.dtype)
        for dy in range(3):
            for dx in range(3):
                cols[:, :, dy, dx] = xp[:, :, dy : dy + h, dx : dx + w]
        return cols.reshape(b, c * 9, h * w)

    def forward(self, x, train: bool):
        b, c, h, w = x.shape
        w2 = self.w.reshape(self.w.shape[0], -1)
        out = np.empty((b, w2.shape[0], h * w), dtype=np.result_type(w2, x))
        # Each sample is its own GEMM, so blocking leaves every output as it was.
        for lo in range(0, b, _CONV_BLOCK):
            np.matmul(w2, self._im2col(x[lo : lo + _CONV_BLOCK]), out=out[lo : lo + _CONV_BLOCK])
        out += self.b[None, :, None]
        if train:
            self._x = x
        return out.reshape(b, self.w.shape[0], h, w)

    def backward(self, g, need_dx: bool = True):
        """Set dw and db; return the input gradient, or None if not need_dx."""
        x, self._x = self._x, None
        b, c_out, h, w = g.shape
        g2 = g.reshape(b, c_out, h * w)
        w2 = self.w.reshape(c_out, -1)
        # dW is the sum over samples of per-sample products. An axis-0 sum
        # adds rows in order, so carrying the running sum in row 0 of the
        # next block's products gives the bits of one sum over all samples.
        prods = np.empty((min(b, _CONV_BLOCK) + 1, c_out, w2.shape[1]),
                         dtype=np.result_type(g, x))
        dw = None
        for lo in range(0, b, _CONV_BLOCK):
            cols = self._im2col(x[lo : lo + _CONV_BLOCK])
            block = prods[: len(cols) + 1]
            np.matmul(g2[lo : lo + _CONV_BLOCK], cols.transpose(0, 2, 1), out=block[1:])
            if dw is None:
                block = block[1:]
            else:
                block[0] = dw
            dw = block.sum(axis=0)
        self.dw = dw.reshape(self.w.shape)
        self.db = g2.sum(axis=(0, 2))
        if not need_dx:
            return None
        dx = np.empty((b, self.w.shape[1], h, w), dtype=g.dtype)
        for lo in range(0, b, _CONV_BLOCK):
            dx[lo : lo + _CONV_BLOCK] = self._col2im(w2, g[lo : lo + _CONV_BLOCK])
        return dx

    @staticmethod
    def _col2im(w2, g):
        """The input gradient of the samples of g, as a view.

        col2im on flat planes padded to width w + 2: each (dy, dx) shift is
        then one contiguous run per plane instead of h runs of length w.
        g gets two zero columns per row, so dcols has the same layout. Its
        real columns are the same dot products as without them; its zero
        columns land in the padding or add +-0.0 to sums that start at
        +0.0 and so are never -0.0. Each element still sums its terms in
        (dy, dx) order.
        """
        b, c_out, h, w = g.shape
        c_in = w2.shape[1] // 9
        wp = w + 2
        gp = np.zeros((b, c_out, h, wp), dtype=g.dtype)
        gp[..., :w] = g
        dcols = np.matmul(w2.T, gp.reshape(b, c_out, h * wp)).reshape(b, c_in, 9, h * wp)
        dxp = np.zeros((b, c_in, (h + 2) * wp + 2), dtype=g.dtype)
        for k in range(9):
            start = (k // 3) * wp + k % 3
            dxp[:, :, start : start + h * wp] += dcols[:, :, k]
        return dxp[:, :, wp + 1 : wp + 1 + h * wp].reshape(b, c_in, h, wp)[..., :w]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, train: bool):
        if train:
            self._mask = x > 0
            return x * self._mask
        return np.maximum(x, 0)

    def backward(self, g):
        out = g * self._mask
        self._mask = None
        return out


class MaxPool2x2:
    """2x2 max pool, stride 2. Ties go to the first position in row-major
    order within the window, so the gradient route is deterministic."""

    def __init__(self):
        self._hits = None

    def forward(self, x, train: bool):
        q00, q01, q10, q11 = _window_views(x)
        out = np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))
        # np.maximum leaves open which of two equal operands it returns. Equal
        # values differ in bits only as -0.0 against +0.0 or as NaNs, so only
        # inputs holding those need the slower walk that keeps the first.
        x_bits = _bits(x)
        if np.isnan(out).any() or (
            (x_bits == 0).any() and (x_bits == np.iinfo(x_bits.dtype).min).any()
        ):
            out = _first_max(x)
        if train:
            self._hits = _first_hits(x_bits, _bits(out))
        return out

    def backward(self, g):
        b, c, h, w = g.shape
        dx = np.empty((b, c, 2 * h, 2 * w), dtype=g.dtype)
        # Multiplying g's bits by a hit mask writes +0.0 where it is False.
        g_bits = _bits(g)
        for hit, dq_bits in zip(self._hits, _window_views(_bits(dx))):
            np.multiply(g_bits, hit, out=dq_bits)
        self._hits = None
        return dx


def _window_views(a):
    """The four strided views of a's 2x2 windows, in row-major window order."""
    return [a[:, :, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]


def _first_hits(x_bits, out_bits):
    """One mask per window position: True where that position is the first
    in its window to hold the output's bits, that is, where forward took the
    output from, NaN windows included. The output is one of the window's
    elements, so the last position takes every window not yet matched.
    """
    first, *middle, _ = _window_views(x_bits)
    hits = [first == out_bits]
    taken = hits[0].copy()
    for q_bits in middle:
        hit = (q_bits == out_bits) & ~taken
        taken |= hit
        hits.append(hit)
    hits.append(~taken)
    return hits


def _first_max(x):
    """Each window's first maximal element in row-major order, bit for bit.

    Each step is the one np.argmax makes: move on unless q <= the running
    max, and never leave a NaN.
    """
    first, *rest = _window_views(x)
    out = first.copy()
    for q in rest:
        np.copyto(out, q, where=~(q <= out) & (out == out))
    return out


def _bits(a):
    """a reinterpreted as signed integers of the same width."""
    return a.view(np.dtype(f"i{a.itemsize}"))


class Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x, train: bool):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return g.reshape(self._shape)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype):
        self.w = (rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self._x = None

    def forward(self, x, train: bool):
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, g):
        self.dw = g.T @ self._x
        self.db = g.sum(axis=0)
        self._x = None
        return g @ self.w


class ConvNet:
    """Stack of conv stages plus a dense head emitting K class logits."""

    def __init__(self, arch: Architecture, input_shape: tuple, k: int, rng: np.random.Generator):
        self.arch = arch
        self.input_shape = tuple(input_shape)  # (n_mels, seg_frames)
        dtype = arch.np_dtype
        layers = []
        for h, w, convs in arch.conv_shapes(input_shape):
            for c_in, c_out in convs:
                layers.append(Conv3x3(c_in, c_out, rng, dtype))
                layers.append(ReLU())
            if h % 2 or w % 2:
                raise ConfigError(
                    f"architecture {arch.name!r} pools {h}x{w} below even dims for input {input_shape}"
                )
            layers.append(MaxPool2x2())
        layers.append(Flatten())
        n_in = c_out * (h // 2) * (w // 2)
        for width in arch.dense:
            layers.append(Dense(n_in, width, rng, dtype))
            layers.append(ReLU())
            n_in = width
        layers.append(Dense(n_in, k, rng, dtype))
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """x: (batch, n_mels, seg_frames) -> logits (batch, k)."""
        out = x.astype(self.arch.np_dtype, copy=False).reshape(x.shape[0], 1, *self.input_shape)
        for layer in self.layers:
            out = layer.forward(out, train)
        return out

    def backward(self, dlogits: np.ndarray) -> None:
        g = dlogits.astype(self.arch.np_dtype, copy=False)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        # The first layer is a conv on the input image, whose gradient no one reads.
        self.layers[0].backward(g, need_dx=False)

    def params(self) -> list:
        """The w and b of each conv and dense layer in layer order, which is
        the checkpoint's param_NNN order."""
        return [p for layer in self.layers if hasattr(layer, "w") for p in (layer.w, layer.b)]

    def grads(self) -> list:
        """The dw and db of the last backward, in the order of params()."""
        return [g for layer in self.layers if hasattr(layer, "w") for g in (layer.dw, layer.db)]

    def snapshot(self) -> list:
        return [p.copy() for p in self.params()]

    def restore(self, arrays) -> None:
        for p, a in zip(self.params(), arrays, strict=True):
            p[...] = a


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; never NaN/Inf for finite input."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Floor of a predicted probability inside the log, for stability.
PROB_EPS = 1e-12


def entropy(p: np.ndarray):
    """Shannon entropy in nats of a distribution, summed over rows if p
    holds several; 0*ln(0) counts as 0."""
    nz = p > 0
    return -np.sum(p[nz] * np.log(p[nz]))


def cross_entropy(pred: np.ndarray, target: np.ndarray):
    """-sum target * ln(pred) over every entry, with pred clamped at PROB_EPS.

    Returns the numpy sum in the inputs' dtype, so that a float32 loss stays
    float32 until its caller divides it.
    """
    return -np.sum(target * np.log(np.maximum(pred, PROB_EPS)))


def kl_divergence(pred: np.ndarray, target: np.ndarray):
    """sum target * ln(target / pred) over every entry, with pred clamped at
    PROB_EPS; zero target entries contribute 0."""
    p = np.maximum(pred, PROB_EPS)
    nz = target > 0
    return np.sum(target[nz] * np.log(target[nz] / p[nz]))


def batch_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean soft-target cross-entropy and its gradient w.r.t. the logits."""
    p = softmax(logits)
    loss = float(cross_entropy(p, targets) / logits.shape[0])
    dlogits = (p - targets) / logits.shape[0]
    return loss, dlogits


class Adam:
    """Adaptive-moment gradient method, standard defaults."""

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr: float) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v, strict=True):
            # An infinite moment would zero every later update while loss and
            # parameters stay finite, so overflow here ends training.
            try:
                with np.errstate(over="raise"):
                    m *= self.beta1
                    m += (1.0 - self.beta1) * g
                    v *= self.beta2
                    v += (1.0 - self.beta2) * g * g
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"optimizer moments overflowed at step {self.t} ({exc})") from exc
            p -= lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
